#include "workload/smallbank.h"

#include <chrono>
#include <cstring>

namespace bohm {

namespace {

int64_t ReadBalance(TxnOps& ops, TableId table, Key key) {
  const void* p = ops.Read(table, key);
  int64_t v = 0;
  if (p != nullptr) std::memcpy(&v, p, sizeof(v));
  return v;
}

void WriteBalance(TxnOps& ops, TableId table, Key key, int64_t v) {
  void* p = ops.Write(table, key);
  if (p != nullptr) std::memcpy(p, &v, sizeof(v));
}

}  // namespace

Catalog SmallBankCatalog(const SmallBankConfig& cfg) {
  Catalog catalog;
  (void)catalog.AddTable(TableSpec{kSbCustomerTable, "customer", 8,
                                   cfg.customers});
  (void)catalog.AddTable(TableSpec{kSbSavingsTable, "savings", 8,
                                   cfg.customers});
  (void)catalog.AddTable(TableSpec{kSbCheckingTable, "checking", 8,
                                   cfg.customers});
  return catalog;
}

void SmallBankSpin(uint32_t us) {
  if (us == 0) return;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

BalanceProcedure::BalanceProcedure(Key customer, uint32_t spin_us)
    : customer_(customer), spin_us_(spin_us) {
  set_.AddRead(kSbCustomerTable, customer);
  set_.AddRead(kSbSavingsTable, customer);
  set_.AddRead(kSbCheckingTable, customer);
}

void BalanceProcedure::Run(TxnOps& ops) {
  (void)ops.Read(kSbCustomerTable, customer_);  // the "name lookup"
  total_ = ReadBalance(ops, kSbSavingsTable, customer_) +
           ReadBalance(ops, kSbCheckingTable, customer_);
  SmallBankSpin(spin_us_);
}

DepositCheckingProcedure::DepositCheckingProcedure(Key customer,
                                                   int64_t amount,
                                                   uint32_t spin_us)
    : customer_(customer), amount_(amount), spin_us_(spin_us) {
  set_.AddRead(kSbCustomerTable, customer);
  set_.AddRmw(kSbCheckingTable, customer);
}

void DepositCheckingProcedure::Run(TxnOps& ops) {
  (void)ops.Read(kSbCustomerTable, customer_);
  int64_t bal = ReadBalance(ops, kSbCheckingTable, customer_);
  WriteBalance(ops, kSbCheckingTable, customer_, bal + amount_);
  SmallBankSpin(spin_us_);
}

TransactSavingProcedure::TransactSavingProcedure(Key customer,
                                                 int64_t amount,
                                                 uint32_t spin_us)
    : customer_(customer), amount_(amount), spin_us_(spin_us) {
  set_.AddRead(kSbCustomerTable, customer);
  set_.AddRmw(kSbSavingsTable, customer);
}

void TransactSavingProcedure::Run(TxnOps& ops) {
  (void)ops.Read(kSbCustomerTable, customer_);
  int64_t bal = ReadBalance(ops, kSbSavingsTable, customer_);
  int64_t updated = bal + amount_;
  SmallBankSpin(spin_us_);
  if (updated < 0) {
    ops.Abort();
    return;
  }
  WriteBalance(ops, kSbSavingsTable, customer_, updated);
}

AmalgamateProcedure::AmalgamateProcedure(Key customer0, Key customer1,
                                         uint32_t spin_us)
    : customer0_(customer0), customer1_(customer1), spin_us_(spin_us) {
  set_.AddRead(kSbCustomerTable, customer0);
  set_.AddRead(kSbCustomerTable, customer1);
  set_.AddRmw(kSbSavingsTable, customer0);
  set_.AddRmw(kSbCheckingTable, customer0);
  set_.AddRmw(kSbCheckingTable, customer1);
}

void AmalgamateProcedure::Run(TxnOps& ops) {
  (void)ops.Read(kSbCustomerTable, customer0_);
  (void)ops.Read(kSbCustomerTable, customer1_);
  int64_t savings0 = ReadBalance(ops, kSbSavingsTable, customer0_);
  int64_t checking0 = ReadBalance(ops, kSbCheckingTable, customer0_);
  int64_t checking1 = ReadBalance(ops, kSbCheckingTable, customer1_);
  WriteBalance(ops, kSbSavingsTable, customer0_, 0);
  WriteBalance(ops, kSbCheckingTable, customer0_, 0);
  WriteBalance(ops, kSbCheckingTable, customer1_,
               checking1 + savings0 + checking0);
  SmallBankSpin(spin_us_);
}

WriteCheckProcedure::WriteCheckProcedure(Key customer, int64_t amount,
                                         uint32_t spin_us)
    : customer_(customer), amount_(amount), spin_us_(spin_us) {
  set_.AddRead(kSbCustomerTable, customer);
  set_.AddRead(kSbSavingsTable, customer);
  set_.AddRmw(kSbCheckingTable, customer);
}

void WriteCheckProcedure::Run(TxnOps& ops) {
  (void)ops.Read(kSbCustomerTable, customer_);
  int64_t savings = ReadBalance(ops, kSbSavingsTable, customer_);
  int64_t checking = ReadBalance(ops, kSbCheckingTable, customer_);
  int64_t debit = amount_;
  if (savings + checking < amount_) debit += 1;  // overdraft penalty
  WriteBalance(ops, kSbCheckingTable, customer_, checking - debit);
  SmallBankSpin(spin_us_);
}

SmallBankGenerator::SmallBankGenerator(const SmallBankConfig& cfg,
                                       uint64_t seed)
    : cfg_(cfg), rng_(seed) {}

ProcedurePtr SmallBankGenerator::Make() {
  return Make(static_cast<TxnType>(rng_.Uniform(5)));
}

ProcedurePtr SmallBankGenerator::Make(TxnType type) {
  const uint32_t spin = cfg_.spin_us;
  switch (type) {
    case TxnType::kBalance:
      return std::make_unique<BalanceProcedure>(RandomCustomer(), spin);
    case TxnType::kDepositChecking:
      return std::make_unique<DepositCheckingProcedure>(
          RandomCustomer(), static_cast<int64_t>(rng_.Uniform(100)) + 1,
          spin);
    case TxnType::kTransactSaving: {
      // Mix deposits and withdrawals so the logic-abort path is exercised.
      int64_t amount = static_cast<int64_t>(rng_.Uniform(200)) - 100;
      return std::make_unique<TransactSavingProcedure>(RandomCustomer(),
                                                       amount, spin);
    }
    case TxnType::kAmalgamate: {
      Key c0 = RandomCustomer();
      Key c1 = RandomCustomer();
      if (cfg_.customers > 1) {
        while (c1 == c0) c1 = RandomCustomer();
      }
      if (cfg_.customers == 1) return Make(TxnType::kBalance);
      return std::make_unique<AmalgamateProcedure>(c0, c1, spin);
    }
    case TxnType::kWriteCheck:
      return std::make_unique<WriteCheckProcedure>(
          RandomCustomer(), static_cast<int64_t>(rng_.Uniform(100)) + 1,
          spin);
  }
  return nullptr;
}

ProcedurePtr SmallBankGenerator::MakeConserving() {
  if (rng_.Uniform(2) == 0 || cfg_.customers < 2) {
    return Make(TxnType::kBalance);
  }
  return Make(TxnType::kAmalgamate);
}

}  // namespace bohm
