// Conflict analysis over declared read/write sets (DESIGN.md §7).
//
// Transactions declare their state footprint up front (`Transaction.contracts`
// / `.accounts`, enforced by PortableStateView's kUndeclaredAccess abort), so
// whether two transactions of a block may interleave is statically known:
// write-write and read-write overlaps conflict, read-read does not.  The
// baselines cut each decided block into segments of mutually non-conflicting
// items with this test, so every batch they hand exec::Engine is disjoint.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "ledger/transaction.hpp"

namespace jenga::exec {

/// A resource a task reads or writes, folded into one flat id space.  The top
/// two bits tag the category so contract, account and transaction keys can
/// never collide across categories.
using ResourceKey = std::uint64_t;

[[nodiscard]] constexpr ResourceKey contract_key(ContractId c) {
  return (1ULL << 63) | c.value;
}
[[nodiscard]] constexpr ResourceKey account_key(AccountId a) {
  return (1ULL << 62) | a.value;
}
/// Serializes work items belonging to the same transaction (the baselines can
/// carry one tx through several items of a single block, each reading the
/// previous item's buffered output).  Prefix collisions between distinct
/// hashes only over-serialize — never miss a real conflict.
[[nodiscard]] inline ResourceKey tx_key(const Hash256& h) {
  return (3ULL << 62) | (h.prefix_u64() >> 2);
}

/// Declared footprint of one task, split into read and write keys.
struct AccessSet {
  std::vector<ResourceKey> reads;
  std::vector<ResourceKey> writes;

  /// Sorts, dedups, and drops reads shadowed by writes of the same key.
  void normalize();
};

/// Write-write or read-write overlap on any key (both sets must be
/// normalized).  Read-read sharing is not a conflict.
[[nodiscard]] bool conflicts(const AccessSet& a, const AccessSet& b);

/// The conservative footprint of a whole transaction: the VM may write any
/// declared resource (the view enforces nothing finer than the declaration),
/// so everything lands in the write set.
[[nodiscard]] AccessSet declared_access(const ledger::Transaction& tx);

}  // namespace jenga::exec
