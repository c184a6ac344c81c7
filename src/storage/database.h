// The tables of one executor-engine instance (2PL, Silo, Hekaton, SI), by
// table id. 2PL and Silo instantiate it over SVTable, Hekaton and SI over
// MVTable. Both are the paper's fixed-size array index (Section 4), so a
// key names a slot exactly when it is below its table's capacity.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "storage/schema.h"
#include "txn/rwset.h"

namespace bohm {

template <typename Table>
class Database {
 public:
  explicit Database(const Catalog& catalog) : tables_(catalog.MaxTableId()) {
    for (const TableSpec& spec : catalog.tables()) {
      tables_[spec.id] = std::make_unique<Table>(spec);
    }
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(Database);

  Table* table(TableId id) const {
    return id < tables_.size() ? tables_[id].get() : nullptr;
  }

  /// The footprint check every executor engine makes before Run(), the
  /// counterpart of BohmEngine::CheckSubmit: InvalidArgument when the
  /// declared read or write set names an unknown table or a key at or
  /// past its table's capacity.
  Status CheckFootprint(const ReadWriteSet& set) const {
    for (std::span<const RecordId> part : {set.reads(), set.writes()}) {
      for (const RecordId& rec : part) {
        const Table* t = table(rec.table);
        if (t == nullptr) {
          return Status::InvalidArgument("footprint names an unknown table");
        }
        if (rec.key >= t->capacity()) {
          return Status::InvalidArgument("footprint key beyond table capacity");
        }
      }
    }
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace bohm
