// Unit tests for the durable-log building blocks: CRC32C, fixed-width
// coding, record framing, segment naming, and the procedure codecs.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "log/batch_log.h"
#include "log/codec.h"
#include "log/coding.h"
#include "log/crc32c.h"
#include "log/record.h"
#include "workload/ycsb.h"

namespace bohm {
namespace {

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC32C check value (RFC 3720 appendix / RocksDB tests).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const char* s = "the quick brown fox jumps over the lazy dog";
  const size_t n = std::strlen(s);
  uint32_t one_shot = Crc32c(s, n);
  uint32_t incr = Crc32c(s, 10);
  incr = Crc32c(incr, s + 10, n - 10);
  EXPECT_EQ(incr, one_shot);
  EXPECT_NE(Crc32c(s, n - 1), one_shot);
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  AppendFixed32(&buf, 0xDEADBEEFu);
  AppendFixed64(&buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 12u);
  // Little-endian pinned, independent of host order.
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0xEFu);
  const auto* p = reinterpret_cast<const uint8_t*>(buf.data());
  EXPECT_EQ(DecodeFixed32(p), 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed64(p + 4), 0x0123456789ABCDEFull);
}

TEST(CodingTest, SliceBoundsChecked) {
  std::string buf;
  AppendFixed32(&buf, 7);
  Slice s(reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  EXPECT_TRUE(s.GetFixed32(&v32));
  EXPECT_EQ(v32, 7u);
  EXPECT_EQ(s.remaining(), 0u);
  EXPECT_FALSE(s.GetFixed32(&v32));
  EXPECT_FALSE(s.GetFixed64(&v64));
  const uint8_t* bytes = nullptr;
  EXPECT_FALSE(s.GetBytes(&bytes, 1));
  EXPECT_TRUE(s.GetBytes(&bytes, 0));
}

TEST(RecordTest, RoundTrip) {
  std::string file;
  EncodeRecord(&file, /*seqno=*/42, "hello payload");
  ASSERT_EQ(file.size(), kRecordHeaderSize + 13);
  RecordHeader hdr;
  const auto* data = reinterpret_cast<const uint8_t*>(file.data());
  ASSERT_EQ(CheckRecord(data, file.size(), &hdr), RecordScan::kOk);
  EXPECT_EQ(hdr.seqno, 42u);
  EXPECT_EQ(hdr.payload_len, 13u);
}

TEST(RecordTest, EmptyPayloadIsValid) {
  std::string file;
  EncodeRecord(&file, 1, "");
  RecordHeader hdr;
  const auto* data = reinterpret_cast<const uint8_t*>(file.data());
  ASSERT_EQ(CheckRecord(data, file.size(), &hdr), RecordScan::kOk);
  EXPECT_EQ(hdr.payload_len, 0u);
}

TEST(RecordTest, DetectsEveryDamageMode) {
  std::string file;
  EncodeRecord(&file, 7, "payload-bytes");
  const auto* data = reinterpret_cast<const uint8_t*>(file.data());
  RecordHeader hdr;

  // Torn header: fewer than kRecordHeaderSize bytes remain.
  EXPECT_EQ(CheckRecord(data, kRecordHeaderSize - 1, &hdr),
            RecordScan::kTornHeader);
  // Torn payload: header intact, payload cut short.
  EXPECT_EQ(CheckRecord(data, kRecordHeaderSize + 3, &hdr),
            RecordScan::kTornPayload);
  // Flipped payload byte: header fine, payload CRC fails.
  {
    std::string bad = file;
    bad[kRecordHeaderSize + 2] ^= 0x40;
    EXPECT_EQ(CheckRecord(reinterpret_cast<const uint8_t*>(bad.data()),
                          bad.size(), &hdr),
              RecordScan::kBadPayload);
  }
  // Flipped header byte: header CRC fails (framing untrustworthy).
  {
    std::string bad = file;
    bad[9] ^= 0x01;  // inside the seqno field
    EXPECT_EQ(CheckRecord(reinterpret_cast<const uint8_t*>(bad.data()),
                          bad.size(), &hdr),
              RecordScan::kBadHeader);
  }
}

TEST(SegmentNameTest, RoundTripAndRejection) {
  const std::string name = SegmentFileName(123456789);
  uint64_t first = 0;
  ASSERT_TRUE(ParseSegmentFileName(name, &first));
  EXPECT_EQ(first, 123456789u);
  // Lexicographic order == numeric order (zero padding).
  EXPECT_LT(SegmentFileName(99), SegmentFileName(100));
  EXPECT_FALSE(ParseSegmentFileName("log-abc.seg", &first));
  EXPECT_FALSE(ParseSegmentFileName("notes.txt", &first));
  EXPECT_FALSE(ParseSegmentFileName("log-00000000000000000001.tmp", &first));
}

TEST(CodecTest, PutRoundTrip) {
  PutProcedure put(/*table=*/3, /*key=*/17, /*value=*/0xABCDu);
  ASSERT_EQ(put.codec_id(), kCodecPut);
  std::string buf;
  EncodeTxn(&buf, put);
  Slice in(reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  ProcedurePtr decoded;
  ASSERT_TRUE(DecodeTxn(&in, &decoded).ok());
  EXPECT_EQ(in.remaining(), 0u);
  ASSERT_EQ(decoded->rwset().writes().size(), 1u);
  EXPECT_EQ(decoded->rwset().writes()[0].table, 3u);
  EXPECT_EQ(decoded->rwset().writes()[0].key, 17u);
}

TEST(CodecTest, IncrementRoundTrip) {
  IncrementProcedure inc(/*table=*/0, /*key=*/5, /*delta=*/9);
  ASSERT_EQ(inc.codec_id(), kCodecIncrement);
  std::string buf;
  EncodeTxn(&buf, inc);
  Slice in(reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  ProcedurePtr decoded;
  ASSERT_TRUE(DecodeTxn(&in, &decoded).ok());
  EXPECT_EQ(decoded->codec_id(), kCodecIncrement);
  // Behavioral identity: same args re-encode to the same bytes.
  std::string buf2;
  EncodeTxn(&buf2, *decoded);
  EXPECT_EQ(buf, buf2);
}

TEST(CodecTest, YcsbRmwRoundTrip) {
  YcsbRmwProcedure rmw({4, 8, 15, 16, 23, 42}, /*record_size=*/1000);
  ASSERT_EQ(rmw.codec_id(), kCodecYcsbRmw);
  std::string buf;
  EncodeTxn(&buf, rmw);
  Slice in(reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  ProcedurePtr decoded;
  ASSERT_TRUE(DecodeTxn(&in, &decoded).ok());
  ASSERT_EQ(decoded->rwset().writes().size(), 6u);
  EXPECT_EQ(decoded->rwset().writes()[5].key, 42u);
  std::string buf2;
  EncodeTxn(&buf2, *decoded);
  EXPECT_EQ(buf, buf2);
}

TEST(CodecTest, GetIsNotLoggable) {
  uint64_t out = 0;
  GetProcedure get(0, 1, &out);
  EXPECT_EQ(get.codec_id(), kNotLoggable);
}

TEST(CodecTest, UnknownIdAndMalformedArgsRejected) {
  std::string buf;
  AppendFixed32(&buf, 999);  // no such codec
  AppendFixed32(&buf, 0);
  Slice in(reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  ProcedurePtr decoded;
  EXPECT_TRUE(DecodeTxn(&in, &decoded).IsInvalidArgument());

  std::string truncated;
  AppendFixed32(&truncated, kCodecPut);
  AppendFixed32(&truncated, 3);  // claims 3 arg bytes, provides none
  Slice in2(reinterpret_cast<const uint8_t*>(truncated.data()),
            truncated.size());
  EXPECT_TRUE(DecodeTxn(&in2, &decoded).IsInvalidArgument());
}

TEST(CodecTest, BatchPayloadRoundTrip) {
  // A non-loggable (read-only) procedure is left out of the payload.
  uint64_t out = 0;
  std::vector<ProcedurePtr> txns;
  txns.push_back(std::make_unique<PutProcedure>(0, 1, 100));
  txns.push_back(std::make_unique<GetProcedure>(0, 1, &out));
  txns.push_back(std::make_unique<IncrementProcedure>(0, 2, 5));
  std::string payload;
  EncodeBatchPayload(&payload, txns);
  std::vector<ProcedurePtr> decoded;
  ASSERT_TRUE(DecodeBatchPayload(
                  reinterpret_cast<const uint8_t*>(payload.data()),
                  payload.size(), &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0]->codec_id(), kCodecPut);
  EXPECT_EQ(decoded[1]->codec_id(), kCodecIncrement);

  // Empty batches are legal (all-read-only batches log an empty record).
  std::string empty;
  EncodeBatchPayload(&empty, {});
  ASSERT_TRUE(DecodeBatchPayload(
                  reinterpret_cast<const uint8_t*>(empty.data()),
                  empty.size(), &decoded)
                  .ok());
  EXPECT_TRUE(decoded.empty());

  // Trailing garbage after the declared transactions is rejected.
  std::string trailing = payload;
  trailing.push_back('x');
  EXPECT_TRUE(DecodeBatchPayload(
                  reinterpret_cast<const uint8_t*>(trailing.data()),
                  trailing.size(), &decoded)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace bohm
