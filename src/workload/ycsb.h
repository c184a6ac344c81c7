// YCSB workload (Cooper et al. [11]) as configured in the paper's
// evaluation (Section 4.2): one table of fixed-size records (1,000 bytes;
// the paper's "standard record size"), keys drawn from a scrambled zipfian
// distribution whose theta parameter is the contention knob (theta = 0 is
// uniform / low contention; theta = 0.9 is the paper's high contention).
//
// Three transaction types:
//  * 10RMW      — ten read-modify-writes of distinct records (4.2.1)
//  * 2RMW-8R    — two RMWs plus eight reads, distinct records (4.2.2)
//  * ReadOnly   — reads 10,000 uniformly-chosen records (4.2.3)
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rand.h"
#include "common/status.h"
#include "common/zipf.h"
#include "storage/schema.h"
#include "txn/procedure.h"

namespace bohm {

inline constexpr TableId kYcsbTableId = 0;

struct YcsbConfig {
  uint64_t record_count = 1'000'000;
  uint32_t record_size = 1000;  // >= 8; the first 8 bytes are a counter
  double theta = 0.0;           // zipfian contention parameter
  uint32_t scan_size = 10'000;  // records read by a read-only transaction
};

/// Catalog with the single YCSB table.
Catalog YcsbCatalog(const YcsbConfig& cfg);

/// Loads all records through `sink` (records start zeroed with a
/// recognizable byte pattern in the non-counter tail). `sink` is the
/// engine's Load function.
template <typename LoadFn>
Status YcsbLoad(const YcsbConfig& cfg, LoadFn&& sink) {
  std::vector<char> payload(cfg.record_size, static_cast<char>(0xAB));
  std::memset(payload.data(), 0, 8);  // 64-bit counter in the prefix
  for (uint64_t k = 0; k < cfg.record_count; ++k) {
    Status s = sink(kYcsbTableId, static_cast<Key>(k), payload.data());
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// N read-modify-writes of distinct records: read, copy, increment the
/// 64-bit counter prefix, write back the full record.
class YcsbRmwProcedure final : public StoredProcedure {
 public:
  YcsbRmwProcedure(const std::vector<Key>& keys, uint32_t record_size);
  void Run(TxnOps& ops) override;
  uint32_t codec_id() const override;
  void EncodeArgs(std::string* out) const override;

 private:
  uint32_t record_size_;
};

/// 2RMW-8R: keys[0..rmw_count) are RMWs, the rest are plain reads.
class YcsbMixedProcedure final : public StoredProcedure {
 public:
  YcsbMixedProcedure(const std::vector<Key>& keys, uint32_t rmw_count,
                     uint32_t record_size);
  void Run(TxnOps& ops) override;

  /// Sum of counter prefixes observed by the read portion (prevents the
  /// reads from being optimized away; also a test observable).
  uint64_t observed_sum() const { return observed_sum_; }

 private:
  uint32_t rmw_count_;
  uint32_t record_size_;
  uint64_t observed_sum_ = 0;
};

/// Long read-only transaction: reads `keys` and accumulates their counter
/// prefixes.
class YcsbScanProcedure final : public StoredProcedure {
 public:
  explicit YcsbScanProcedure(const std::vector<Key>& keys);
  void Run(TxnOps& ops) override;

  uint64_t observed_sum() const { return observed_sum_; }

 private:
  uint64_t observed_sum_ = 0;
};

/// Per-thread transaction generator.
class YcsbGenerator {
 public:
  enum class TxnType { k10Rmw, k2Rmw8R, kReadOnlyScan };

  YcsbGenerator(const YcsbConfig& cfg, uint64_t seed);

  /// Draws `n` *distinct* keys from the zipfian distribution ("each
  /// element of a transaction's read- and write-set is unique",
  /// Section 4.2.1).
  std::vector<Key> DrawDistinctKeys(uint32_t n);
  /// Draws `n` distinct keys uniformly (read-only scans, Section 4.2.3).
  std::vector<Key> DrawUniformKeys(uint32_t n);

  ProcedurePtr Make(TxnType type);

  /// Mixed update / read-only stream: with probability
  /// `read_only_fraction` produce a scan, else a 10RMW (Section 4.2.3).
  ProcedurePtr MakeMixed(double read_only_fraction);

  Rng& rng() { return rng_; }

 private:
  YcsbConfig cfg_;
  Rng rng_;
  ScrambledZipf zipf_;
};

}  // namespace bohm
