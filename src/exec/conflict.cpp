#include "exec/conflict.hpp"

#include <algorithm>
#include <iterator>

namespace jenga::exec {

void AccessSet::normalize() {
  auto sort_unique = [](std::vector<ResourceKey>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(writes);
  sort_unique(reads);
  // A key both read and written behaves as a write.
  std::vector<ResourceKey> pure;
  pure.reserve(reads.size());
  std::set_difference(reads.begin(), reads.end(), writes.begin(), writes.end(),
                      std::back_inserter(pure));
  reads = std::move(pure);
}

AccessSet declared_access(const ledger::Transaction& tx) {
  AccessSet s;
  s.writes.reserve(tx.contracts.size() + tx.accounts.size() + 1);
  for (auto c : tx.contracts) s.writes.push_back(contract_key(c));
  for (auto a : tx.accounts) s.writes.push_back(account_key(a));
  s.writes.push_back(account_key(tx.sender));  // fee debit
  s.normalize();
  return s;
}

}  // namespace jenga::exec
