// Log reading and crash repair: turns whatever a crash left in the log
// directory back into the sequenced batch stream.
//
// Tail policy — the heart of recovery correctness:
//
//  * Damage is only legal at the *tail of the highest segment*. The
//    writer appends and syncs in order, so a crash can lose only a
//    suffix; a good record physically after damage proves the damage is
//    not a crash artifact, and recovery refuses to proceed (replaying
//    past a hole would silently reorder the deterministic input log).
//  * A torn or checksum-failing tail record is truncated away — never
//    replayed, never "repaired". Those transactions were by definition
//    not durable, and with durable-ack on, never acknowledged either.
//  * Seqnos must be consecutive across the whole scan (the writer
//    allocates them densely); a gap is corruption, not a crash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "log/log_env.h"
#include "txn/procedure.h"

namespace bohm {

/// One recovered batch: its log sequence number and the rebuilt
/// transactions, in original sequenced order.
struct ReplayedBatch {
  uint64_t seqno = 0;
  std::vector<ProcedurePtr> txns;
};

struct LogScanStats {
  uint64_t segments = 0;
  uint64_t records = 0;
  uint64_t txns = 0;
  bool tail_truncated = false;      ///< a damaged tail was repaired
  uint64_t truncated_bytes = 0;     ///< bytes dropped by the repair
  std::string tail_detail;          ///< human-readable repair description
  uint64_t last_seqno = 0;          ///< highest durable seqno (0: empty log)
};

/// Scans `dir`, repairs the tail if damaged (truncating the segment file
/// in place), and returns the durable batches in seqno order. An empty or
/// absent directory recovers to zero batches. Returns Internal for
/// mid-log damage, InvalidArgument for undecodable (but checksum-valid)
/// payloads.
Status ReadBatchLog(const std::string& dir, LogEnv* env,
                    std::vector<ReplayedBatch>* out, LogScanStats* stats);

/// Byte span of one record inside one segment file — the crash-point
/// enumeration the fault tests iterate over ("truncate mid-record 3",
/// "flip a payload byte of record 5", ...).
struct RecordSpan {
  std::string path;     // full path to the segment file
  uint64_t offset = 0;  // record start within the file
  uint64_t length = 0;  // header + payload bytes
  uint64_t seqno = 0;
};

/// Enumerates record spans of an intact log (no repair; errors on any
/// damage — call it before injecting faults, not after).
Status ScanRecordSpans(const std::string& dir, LogEnv* env,
                       std::vector<RecordSpan>* out);

}  // namespace bohm
