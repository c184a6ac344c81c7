#include "log/codec.h"

#include "workload/ycsb.h"

namespace bohm {

void EncodeTxn(std::string* out, const StoredProcedure& proc) {
  const uint32_t id = proc.codec_id();
  assert(id != kNotLoggable && "caller must filter non-loggable procedures");
  AppendFixed32(out, id);
  size_t len_at = out->size();
  AppendFixed32(out, 0);  // arg_len placeholder
  proc.EncodeArgs(out);
  const uint32_t arg_len =
      static_cast<uint32_t>(out->size() - len_at - 4);
  // Patch the placeholder in place (little-endian, same as AppendFixed32).
  (*out)[len_at] = static_cast<char>(arg_len & 0xFF);
  (*out)[len_at + 1] = static_cast<char>((arg_len >> 8) & 0xFF);
  (*out)[len_at + 2] = static_cast<char>((arg_len >> 16) & 0xFF);
  (*out)[len_at + 3] = static_cast<char>((arg_len >> 24) & 0xFF);
}

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("log codec: malformed ") + what);
}

Status DecodePut(Slice* in, ProcedurePtr* out) {
  uint32_t table;
  uint64_t key, value;
  if (!in->GetFixed32(&table) || !in->GetFixed64(&key) ||
      !in->GetFixed64(&value)) {
    return Malformed("Put args");
  }
  *out = std::make_unique<PutProcedure>(static_cast<TableId>(table),
                                        static_cast<Key>(key), value);
  return Status::OK();
}

Status DecodeIncrement(Slice* in, ProcedurePtr* out) {
  uint32_t table;
  uint64_t key, delta;
  if (!in->GetFixed32(&table) || !in->GetFixed64(&key) ||
      !in->GetFixed64(&delta)) {
    return Malformed("Increment args");
  }
  *out = std::make_unique<IncrementProcedure>(static_cast<TableId>(table),
                                              static_cast<Key>(key), delta);
  return Status::OK();
}

Status DecodeYcsbRmw(Slice* in, ProcedurePtr* out) {
  uint32_t record_size, n_keys;
  if (!in->GetFixed32(&record_size) || !in->GetFixed32(&n_keys)) {
    return Malformed("YcsbRmw args");
  }
  if (in->remaining() < static_cast<size_t>(n_keys) * 8) {
    return Malformed("YcsbRmw key list");
  }
  std::vector<Key> keys;
  keys.reserve(n_keys);
  for (uint32_t i = 0; i < n_keys; ++i) {
    uint64_t k;
    if (!in->GetFixed64(&k)) return Malformed("YcsbRmw key list");
    keys.push_back(static_cast<Key>(k));
  }
  *out = std::make_unique<YcsbRmwProcedure>(keys, record_size);
  return Status::OK();
}

}  // namespace

Status DecodeTxn(Slice* in, ProcedurePtr* out) {
  uint32_t id, arg_len;
  if (!in->GetFixed32(&id) || !in->GetFixed32(&arg_len)) {
    return Malformed("txn header");
  }
  const uint8_t* args;
  if (!in->GetBytes(&args, arg_len)) return Malformed("txn args length");
  Slice arg_slice(args, arg_len);
  switch (id) {
    case kCodecPut:
      return DecodePut(&arg_slice, out);
    case kCodecIncrement:
      return DecodeIncrement(&arg_slice, out);
    case kCodecYcsbRmw:
      return DecodeYcsbRmw(&arg_slice, out);
    default:
      return Status::InvalidArgument("log codec: unknown codec id " +
                                     std::to_string(id));
  }
}

void EncodeBatchPayload(std::string* out,
                        const std::vector<const StoredProcedure*>& txns) {
  AppendFixed32(out, static_cast<uint32_t>(txns.size()));
  for (const StoredProcedure* p : txns) EncodeTxn(out, *p);
}

Status DecodeBatchPayload(const uint8_t* data, size_t len,
                          std::vector<ProcedurePtr>* out) {
  out->clear();
  Slice in(data, len);
  uint32_t count;
  if (!in.GetFixed32(&count)) return Malformed("txn count");
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ProcedurePtr p;
    BOHM_RETURN_NOT_OK(DecodeTxn(&in, &p));
    out->push_back(std::move(p));
  }
  if (in.remaining() != 0) return Malformed("trailing payload bytes");
  return Status::OK();
}

}  // namespace bohm
