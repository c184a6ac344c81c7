#include "workload/ycsb.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "log/codec.h"

namespace bohm {

Catalog YcsbCatalog(const YcsbConfig& cfg) {
  TableSpec spec;
  spec.id = kYcsbTableId;
  spec.name = "usertable";
  spec.record_size = cfg.record_size;
  spec.capacity = cfg.record_count;
  Catalog catalog;
  (void)catalog.AddTable(std::move(spec));
  return catalog;
}

YcsbRmwProcedure::YcsbRmwProcedure(const std::vector<Key>& keys,
                                   uint32_t record_size)
    : record_size_(record_size) {
  set_.Reserve(static_cast<uint32_t>(2 * keys.size()));
  for (Key k : keys) set_.AddRmw(kYcsbTableId, k);
}

uint32_t YcsbRmwProcedure::codec_id() const { return kCodecYcsbRmw; }

void YcsbRmwProcedure::EncodeArgs(std::string* out) const {
  AppendFixed32(out, record_size_);
  const auto keys = set_.reads();
  AppendFixed32(out, static_cast<uint32_t>(keys.size()));
  for (const RecordId& r : keys) {
    AppendFixed64(out, static_cast<uint64_t>(r.key));
  }
}

void YcsbRmwProcedure::Run(TxnOps& ops) {
  // The read set lists the keys in constructor order.
  for (const RecordId& r : set_.reads()) {
    const Key k = r.key;
    const void* old = ops.Read(kYcsbTableId, k);
    void* buf = ops.Write(kYcsbTableId, k);
    if (buf == nullptr) return;
    uint64_t counter = 0;
    if (old != nullptr) {
      std::memcpy(&counter, old, sizeof(counter));
      // The multi-version overhead the paper measures: the *entire* new
      // record must be produced, not just the 8 bytes that change.
      std::memcpy(buf, old, record_size_);
    } else {
      std::memset(buf, 0, record_size_);
    }
    ++counter;
    std::memcpy(buf, &counter, sizeof(counter));
  }
}

YcsbMixedProcedure::YcsbMixedProcedure(const std::vector<Key>& keys,
                                       uint32_t rmw_count,
                                       uint32_t record_size,
                                       uint64_t* observed_sum)
    : rmw_count_(rmw_count),
      record_size_(record_size),
      observed_sum_(observed_sum) {
  const auto n = static_cast<uint32_t>(keys.size());
  set_.Reserve(n + std::min(rmw_count_, n));
  for (uint32_t i = 0; i < n; ++i) {
    if (i < rmw_count_) {
      set_.AddRmw(kYcsbTableId, keys[i]);
    } else {
      set_.AddRead(kYcsbTableId, keys[i]);
    }
  }
}

void YcsbMixedProcedure::Run(TxnOps& ops) {
  uint64_t sum = 0;
  const auto keys = set_.reads();  // constructor order: RMWs first
  for (uint32_t i = 0; i < keys.size(); ++i) {
    const void* old = ops.Read(kYcsbTableId, keys[i].key);
    uint64_t counter = 0;
    if (old != nullptr) std::memcpy(&counter, old, sizeof(counter));
    if (i < rmw_count_) {
      void* buf = ops.Write(kYcsbTableId, keys[i].key);
      if (buf == nullptr) return;
      if (old != nullptr) {
        std::memcpy(buf, old, record_size_);
      } else {
        std::memset(buf, 0, record_size_);
      }
      ++counter;
      std::memcpy(buf, &counter, sizeof(counter));
    } else {
      sum += counter;
    }
  }
  if (observed_sum_ != nullptr) *observed_sum_ = sum;
}

YcsbScanProcedure::YcsbScanProcedure(const std::vector<Key>& keys,
                                     uint64_t* observed_sum)
    : observed_sum_(observed_sum) {
  set_.Reserve(static_cast<uint32_t>(keys.size()));
  for (Key k : keys) set_.AddRead(kYcsbTableId, k);
}

void YcsbScanProcedure::Run(TxnOps& ops) {
  uint64_t sum = 0;
  for (const RecordId& r : set_.reads()) {
    const void* p = ops.Read(kYcsbTableId, r.key);
    uint64_t counter = 0;
    if (p != nullptr) std::memcpy(&counter, p, sizeof(counter));
    sum += counter;
  }
  if (observed_sum_ != nullptr) *observed_sum_ = sum;
}

YcsbGenerator::YcsbGenerator(const YcsbConfig& cfg, uint64_t seed)
    : cfg_(cfg), rng_(seed), zipf_(cfg.record_count, cfg.theta) {}

std::vector<Key> YcsbGenerator::DrawDistinctKeys(uint32_t n) {
  std::vector<Key> keys;
  keys.reserve(n);
  while (keys.size() < n) {
    Key k = zipf_.Next(rng_);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

std::vector<Key> YcsbGenerator::DrawUniformKeys(uint32_t n) {
  std::vector<Key> keys;
  keys.reserve(n);
  // Scans draw thousands of keys; linear dedup would be quadratic.
  std::unordered_set<Key> seen;
  seen.reserve(n * 2);
  while (keys.size() < n) {
    Key k = rng_.Uniform(cfg_.record_count);
    if (seen.insert(k).second) keys.push_back(k);
  }
  return keys;
}

ProcedurePtr YcsbGenerator::Make(TxnType type) {
  switch (type) {
    case TxnType::k10Rmw:
      return std::make_unique<YcsbRmwProcedure>(DrawDistinctKeys(10),
                                                cfg_.record_size);
    case TxnType::k2Rmw8R:
      return std::make_unique<YcsbMixedProcedure>(DrawDistinctKeys(10), 2,
                                                  cfg_.record_size);
    case TxnType::kReadOnlyScan:
      return std::make_unique<YcsbScanProcedure>(
          DrawUniformKeys(cfg_.scan_size));
  }
  return nullptr;
}

ProcedurePtr YcsbGenerator::MakeMixed(double read_only_fraction) {
  if (rng_.NextDouble() < read_only_fraction) {
    return Make(TxnType::kReadOnlyScan);
  }
  return Make(TxnType::k10Rmw);
}

}  // namespace bohm
