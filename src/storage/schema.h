// Table schemas. The paper's workloads use fixed-size records (YCSB:
// 1,000 bytes; SmallBank and the microbenchmark: 8 bytes), so tables are
// declared with a fixed record size and a capacity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "txn/key.h"

namespace bohm {

struct TableSpec {
  TableId id = 0;
  std::string name;
  /// Fixed payload size of every record in this table, in bytes.
  uint32_t record_size = 8;
  /// Keys are 0..capacity-1, as in every paper workload. Every engine
  /// reaches records through the paper's "simple fixed-size array index"
  /// (Section 4) of `capacity` slots and refuses any other key.
  uint64_t capacity = 0;
};

/// The set of tables a database instance serves. Immutable once built.
class Catalog {
 public:
  Catalog() = default;
  explicit Catalog(std::vector<TableSpec> tables);

  /// Adds a table; ids must be unique. Returns InvalidArgument otherwise.
  Status AddTable(TableSpec spec);

  const TableSpec* Find(TableId id) const;
  const std::vector<TableSpec>& tables() const { return tables_; }
  /// Largest table id + 1 (tables are typically densely numbered).
  TableId MaxTableId() const;

 private:
  std::vector<TableSpec> tables_;
};

}  // namespace bohm
