#include "log/log_reader.h"

#include <algorithm>
#include <cstring>

#include "log/batch_log.h"
#include "log/codec.h"
#include "log/record.h"

namespace bohm {

namespace {

/// Segment names in ascending first-seqno order (foreign files ignored).
Status SortedSegments(const std::string& dir, LogEnv* env,
                      std::vector<std::pair<uint64_t, std::string>>* out) {
  out->clear();
  std::vector<std::string> names;
  Status st = env->ListDir(dir, &names);
  if (st.IsNotFound()) return Status::OK();  // absent dir: empty log
  BOHM_RETURN_NOT_OK(st);
  for (const std::string& name : names) {
    uint64_t first;
    if (ParseSegmentFileName(name, &first)) out->emplace_back(first, name);
  }
  std::sort(out->begin(), out->end());
  return Status::OK();
}

/// True if a plausible record header (magic + valid header CRC) exists
/// anywhere in [data, data+len). Used to distinguish a crash-damaged tail
/// (nothing intelligible after it) from mid-log corruption (good records
/// survive past the damage — a hole we must not replay across).
bool HasRecordBeyond(const uint8_t* data, size_t len) {
  if (len < kRecordHeaderSize) return false;
  for (size_t off = 1; off + kRecordHeaderSize <= len; ++off) {
    if (DecodeFixed32(data + off) == kRecordMagic &&
        DecodeFixed32(data + off + 20) == Crc32c(data + off, 20)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status ReadBatchLog(const std::string& dir, LogEnv* env,
                    std::vector<ReplayedBatch>* out, LogScanStats* stats) {
  out->clear();
  *stats = LogScanStats{};

  std::vector<std::pair<uint64_t, std::string>> segments;
  BOHM_RETURN_NOT_OK(SortedSegments(dir, env, &segments));

  // The log is anchored, not floating: seqnos start at 1 (0 is reserved)
  // and each segment's filename carries its first record's seqno. Anchoring
  // the scan at 1 and cross-checking every filename against the running
  // expectation means lost or deleted *leading* segments are refused
  // instead of silently replaying only a suffix of history.
  uint64_t expected_seqno = 1;
  for (size_t si = 0; si < segments.size(); ++si) {
    const bool last_segment = (si + 1 == segments.size());
    const std::string path = dir + "/" + segments[si].second;
    if (segments[si].first != expected_seqno) {
      return Status::Internal(
          "log segment " + path + " starts at seqno " +
          std::to_string(segments[si].first) + " but " +
          std::to_string(expected_seqno) +
          " was expected — earlier segments are missing or misnamed");
    }
    std::string contents;
    BOHM_RETURN_NOT_OK(env->ReadFileToString(path, &contents));
    ++stats->segments;

    const auto* data = reinterpret_cast<const uint8_t*>(contents.data());
    size_t off = 0;
    while (off < contents.size()) {
      RecordHeader hdr;
      RecordScan scan =
          CheckRecord(data + off, contents.size() - off, &hdr);
      if (scan != RecordScan::kOk) {
        const size_t tail_len = contents.size() - off;
        // kBadPayload frames an exact damaged region; anything following
        // it is proof of mid-log damage. For the unframed cases, scrub
        // the remaining bytes for a surviving record.
        const bool more_beyond =
            (scan == RecordScan::kBadPayload)
                ? (tail_len > kRecordHeaderSize + hdr.payload_len)
                : HasRecordBeyond(data + off, tail_len);
        if (!last_segment || more_beyond) {
          return Status::Internal(
              "log corruption before the tail in " + path + " at offset " +
              std::to_string(off) + " — refusing to replay past a hole");
        }
        BOHM_RETURN_NOT_OK(env->TruncateFile(path, off));
        // The repair itself must be durable before the engine starts and
        // appends new synced segments: a crash that resurrects the damaged
        // tail once this segment is no longer last would read as mid-log
        // corruption and brick an otherwise recoverable log.
        BOHM_RETURN_NOT_OK(env->SyncFile(path));
        BOHM_RETURN_NOT_OK(env->SyncDir(dir));
        stats->tail_truncated = true;
        stats->truncated_bytes = tail_len;
        stats->tail_detail =
            std::string("dropped ") + std::to_string(tail_len) +
            " damaged tail byte(s) (" +
            (scan == RecordScan::kTornHeader    ? "torn header"
             : scan == RecordScan::kBadHeader   ? "unreadable header"
             : scan == RecordScan::kTornPayload ? "torn payload"
                                                : "payload checksum") +
            ") from " + path;
        break;
      }

      if (hdr.seqno != expected_seqno) {
        return Status::Internal("log seqno gap in " + path + ": expected " +
                                std::to_string(expected_seqno) + ", found " +
                                std::to_string(hdr.seqno));
      }
      expected_seqno = hdr.seqno + 1;

      ReplayedBatch batch;
      batch.seqno = hdr.seqno;
      BOHM_RETURN_NOT_OK(DecodeBatchPayload(data + off + kRecordHeaderSize,
                                            hdr.payload_len, &batch.txns));
      ++stats->records;
      stats->last_seqno = hdr.seqno;
      stats->txns += batch.txns.size();
      out->push_back(std::move(batch));
      off += kRecordHeaderSize + hdr.payload_len;
    }
  }
  return Status::OK();
}

Status ScanRecordSpans(const std::string& dir, LogEnv* env,
                       std::vector<RecordSpan>* out) {
  out->clear();
  std::vector<std::pair<uint64_t, std::string>> segments;
  BOHM_RETURN_NOT_OK(SortedSegments(dir, env, &segments));
  for (const auto& [first, name] : segments) {
    const std::string path = dir + "/" + name;
    std::string contents;
    BOHM_RETURN_NOT_OK(env->ReadFileToString(path, &contents));
    const auto* data = reinterpret_cast<const uint8_t*>(contents.data());
    size_t off = 0;
    while (off < contents.size()) {
      RecordHeader hdr;
      RecordScan scan =
          CheckRecord(data + off, contents.size() - off, &hdr);
      if (scan != RecordScan::kOk) {
        return Status::Internal("ScanRecordSpans on a damaged log: " + path);
      }
      out->push_back(RecordSpan{path, off, kRecordHeaderSize + hdr.payload_len,
                                hdr.seqno});
      off += kRecordHeaderSize + hdr.payload_len;
    }
  }
  return Status::OK();
}

}  // namespace bohm
