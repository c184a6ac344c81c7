// Procedure codecs: how transactions cross the durability boundary.
//
// Bohm's recovery story (paper Section 2.3) is that the totally-ordered
// input log is itself the redo log — replaying the same transactions in
// the same order deterministically reproduces the database. That only
// works if a transaction can be rebuilt from bytes, so every loggable
// StoredProcedure carries a codec id plus an EncodeArgs() serialization
// of its constructor arguments, and this module owns the inverse: a
// registry keyed by codec id that re-instantiates the procedure.
//
// The registry is a closed switch, not runtime registration: static
// registrars are linker-fragile, and the set of loggable procedures is a
// deliberate, reviewed list (a codec id is an on-disk format commitment —
// ids are never reused or renumbered).
//
// Payload layout for one batch (the record payload in record.h):
//
//   u32 txn_count
//   repeated txn_count times:
//     u32 codec_id
//     u32 arg_len
//     arg_len bytes (codec-specific, see each Encode/Decode pair)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "log/coding.h"
#include "txn/procedure.h"

namespace bohm {

// On-disk codec ids. Append-only; never renumber.
inline constexpr uint32_t kCodecPut = 1;
inline constexpr uint32_t kCodecIncrement = 2;
inline constexpr uint32_t kCodecYcsbRmw = 3;

/// Appends one encoded transaction (codec id + args) to `out`.
/// Precondition: proc.codec_id() != kNotLoggable.
void EncodeTxn(std::string* out, const StoredProcedure& proc);

/// Rebuilds a procedure from its encoded form, consuming from `in`.
/// Fails with InvalidArgument on an unknown codec id or malformed args —
/// which, given CRC-verified payloads, indicates a format bug rather than
/// disk corruption.
Status DecodeTxn(Slice* in, ProcedurePtr* out);

/// Appends a whole batch payload (txn count + each loggable txn) to
/// `out`. Transactions with codec_id() == kNotLoggable are left out: the
/// engine admits them under durability only when they write nothing, so
/// replay without them reaches the same state.
void EncodeBatchPayload(std::string* out,
                        const std::vector<ProcedurePtr>& txns);

/// Decodes a batch payload back into procedures.
Status DecodeBatchPayload(const uint8_t* data, size_t len,
                          std::vector<ProcedurePtr>* out);

}  // namespace bohm
