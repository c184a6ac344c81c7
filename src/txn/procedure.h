// Stored procedures: the unit of work every engine executes.
//
// The paper's model requires the entire transaction up front with a
// deducible write-set (Section 3); this maps exactly onto the stored-
// procedure style used by performance-sensitive OLTP applications, which
// the paper calls out as the intended interface.
//
// A procedure carries its declared footprint (`set_`, txn/rwset.h) inside
// the object, so a transaction whose footprint fits the inline records is
// a single heap allocation from Submit until the engine destroys it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "txn/ops.h"
#include "txn/rwset.h"

namespace bohm {

/// codec_id() value for procedures that cannot be serialized into the
/// durable log (e.g. they capture out-pointers). An engine running with
/// durability enabled rejects them at Submit — a transaction the log
/// cannot reproduce would make replay diverge from the original run.
inline constexpr uint32_t kNotLoggable = 0;

/// Base class for transactions. Subclasses populate `set_` in their
/// constructor (the declared footprint; a subclass that knows its size
/// calls set_.Reserve first) and implement Run(). Run() may read its keys
/// back from `set_` instead of keeping a second copy.
///
/// Contract for Run():
///  * It may only access records declared in rwset(). Engines are allowed
///    to (and do) treat undeclared access as a programming error.
///  * It must be deterministic given the values returned by ops.Read():
///    optimistic engines re-run it after validation failures, and the Bohm
///    engine may re-run it if a read dependency forces a back-out.
///  * It must not retain pointers obtained from ops between runs.
///  * After ops.Abort(), none of its writes become visible.
class StoredProcedure {
 public:
  virtual ~StoredProcedure() = default;

  const ReadWriteSet& rwset() const { return set_; }

  /// Executes the transaction's logic against an engine-provided accessor.
  virtual void Run(TxnOps& ops) = 0;

  /// Stable identifier of this procedure's log codec (see log/codec.h), or
  /// kNotLoggable. A procedure with a codec can be rebuilt, bit-identical
  /// in behavior, from its EncodeArgs() bytes — which is all Bohm needs
  /// for recovery: the sequenced input log *is* the redo log.
  virtual uint32_t codec_id() const { return kNotLoggable; }

  /// Serializes constructor arguments for the log (only called when
  /// codec_id() != kNotLoggable).
  virtual void EncodeArgs(std::string* out) const { (void)out; }

 protected:
  ReadWriteSet set_;
};

using ProcedurePtr = std::unique_ptr<StoredProcedure>;

/// A trivially reusable procedure for tests and examples: reads nothing,
/// writes a constant 8-byte value into one record.
class PutProcedure final : public StoredProcedure {
 public:
  PutProcedure(TableId table, Key key, uint64_t value);
  void Run(TxnOps& ops) override;
  uint32_t codec_id() const override;
  void EncodeArgs(std::string* out) const override;

 private:
  TableId table_;
  Key key_;
  uint64_t value_;
};

/// Reads one 8-byte record into `out` (test/example helper).
class GetProcedure final : public StoredProcedure {
 public:
  GetProcedure(TableId table, Key key, uint64_t* out, bool* found = nullptr);
  void Run(TxnOps& ops) override;

 private:
  TableId table_;
  Key key_;
  uint64_t* out_;
  bool* found_;
};

/// Atomically increments an 8-byte counter record (test/example helper;
/// also the core of the paper's microbenchmark transactions).
class IncrementProcedure final : public StoredProcedure {
 public:
  IncrementProcedure(TableId table, Key key, uint64_t delta = 1);
  void Run(TxnOps& ops) override;
  uint32_t codec_id() const override;
  void EncodeArgs(std::string* out) const override;

 private:
  TableId table_;
  Key key_;
  uint64_t delta_;
};

}  // namespace bohm
