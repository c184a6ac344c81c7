#include "txn/rwset.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace bohm {
namespace {

bool HasDuplicates(std::span<const RecordId> set) {
  std::vector<RecordId> v(set.begin(), set.end());
  std::sort(v.begin(), v.end());
  return std::adjacent_find(v.begin(), v.end()) != v.end();
}

}  // namespace

ReadWriteSet::ReadWriteSet(const ReadWriteSet& other) { *this = other; }

ReadWriteSet& ReadWriteSet::operator=(const ReadWriteSet& other) {
  if (this == &other) return *this;
  n_reads_ = 0;
  n_writes_ = 0;
  Reserve(other.size());
  std::memcpy(data_, other.data_, other.size() * sizeof(RecordId));
  n_reads_ = other.n_reads_;
  n_writes_ = other.n_writes_;
  return *this;
}

ReadWriteSet::~ReadWriteSet() {
  if (spilled()) ::operator delete(data_);
}

void ReadWriteSet::Reallocate(uint32_t capacity) {
  auto* buffer =
      static_cast<RecordId*>(::operator new(capacity * sizeof(RecordId)));
  std::memcpy(buffer, data_, size() * sizeof(RecordId));
  if (spilled()) ::operator delete(data_);
  data_ = buffer;
  capacity_ = capacity;
}

bool ReadWriteSet::IsWritten(const RecordId& id) const {
  const auto w = writes();
  return std::find(w.begin(), w.end(), id) != w.end();
}

Status ReadWriteSet::Validate() const {
  if (HasDuplicates(reads())) {
    return Status::InvalidArgument("duplicate record in read set");
  }
  if (HasDuplicates(writes())) {
    return Status::InvalidArgument("duplicate record in write set");
  }
  return Status::OK();
}

std::vector<std::pair<RecordId, AccessMode>> ReadWriteSet::LockOrder() const {
  std::vector<std::pair<RecordId, AccessMode>> order;
  order.reserve(size());
  for (const RecordId& r : reads()) order.emplace_back(r, AccessMode::kRead);
  for (const RecordId& w : writes()) order.emplace_back(w, AccessMode::kWrite);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              // Write sorts first among duplicates so the dedup pass below
              // keeps the stronger mode.
              return a.second == AccessMode::kWrite &&
                     b.second == AccessMode::kRead;
            });
  // Collapse RMW duplicates to a single exclusive acquisition.
  auto last = std::unique(order.begin(), order.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          });
  order.erase(last, order.end());
  return order;
}

}  // namespace bohm
