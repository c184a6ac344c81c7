#include "bohm/table.h"

#include <new>

namespace bohm {

namespace {

constexpr uint64_t kHeadsPerLinePair = kLinePairSize / sizeof(Version*);

}  // namespace

BohmTable::BohmTable(const TableSpec& spec, uint32_t partitions)
    : spec_(spec),
      partitions_(partitions == 0 ? 1 : partitions),
      large_(IsLargeTable(spec)) {
  const uint64_t per_part = (spec.capacity + partitions_ - 1) / partitions_;
  stride_ = (per_part + kHeadsPerLinePair - 1) / kHeadsPerLinePair *
            kHeadsPerLinePair;
  const uint64_t slots = stride_ * partitions_;
  const uint64_t bytes = slots * sizeof(*heads_);
  // A huge-page block starts on a 2 MiB boundary; a heap block is
  // over-allocated by a line pair so its array can start on one.
  block_ = MakeBlock(large_ ? bytes : bytes + kLinePairSize, large_);
  const auto base = reinterpret_cast<uintptr_t>(block_.get());
  void* first = reinterpret_cast<void*>((base + kLinePairSize - 1) &
                                        ~uintptr_t{kLinePairSize - 1});
  heads_ = static_cast<std::atomic<Version*>*>(first);
  // Single-threaded construction; the table is published to workers only
  // after the constructor returns.
  for (uint64_t i = 0; i < slots; ++i) {
    new (&heads_[i]) std::atomic<Version*>(nullptr);
  }
}

BohmDatabase::BohmDatabase(const Catalog& catalog, uint32_t partitions)
    : catalog_(catalog), partitions_(partitions == 0 ? 1 : partitions) {
  tables_.resize(catalog_.MaxTableId());
  for (const TableSpec& spec : catalog_.tables()) {
    tables_[spec.id] = std::make_unique<BohmTable>(spec, partitions_);
  }
}

}  // namespace bohm
