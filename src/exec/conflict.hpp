// Declared state footprint of a transaction (DESIGN.md §7).
//
// Transactions declare their state footprint up front (`Transaction.contracts`
// / `.accounts`, enforced by PortableStateView's kUndeclaredAccess abort).
// No system reads it: the engine runs each task on its own bundle and never
// orders tasks (exec/engine.hpp).  This file stays only because the
// benchmark's exec-layer probe (bench/suite/layers.cpp) fills
// `exec::Task::access` with declared_access(); once that line goes, this
// file and `Task::access` go with it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "ledger/transaction.hpp"

namespace jenga::exec {

/// A resource a task reads or writes, folded into one flat id space.  The top
/// two bits tag the category so contract and account keys can never collide.
using ResourceKey = std::uint64_t;

[[nodiscard]] constexpr ResourceKey contract_key(ContractId c) {
  return (1ULL << 63) | c.value;
}
[[nodiscard]] constexpr ResourceKey account_key(AccountId a) {
  return (1ULL << 62) | a.value;
}

/// Declared footprint of one task, split into read and write keys.
struct AccessSet {
  std::vector<ResourceKey> reads;
  std::vector<ResourceKey> writes;

  /// Sorts, dedups, and drops reads shadowed by writes of the same key.
  void normalize();
};

/// The conservative footprint of a whole transaction: the VM may write any
/// declared resource (the view enforces nothing finer than the declaration),
/// so everything lands in the write set.
[[nodiscard]] AccessSet declared_access(const ledger::Transaction& tx);

}  // namespace jenga::exec
