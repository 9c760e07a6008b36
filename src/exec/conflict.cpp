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

namespace {

bool sorted_intersect(const std::vector<ResourceKey>& a, const std::vector<ResourceKey>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

bool conflicts(const AccessSet& a, const AccessSet& b) {
  return sorted_intersect(a.writes, b.writes) || sorted_intersect(a.writes, b.reads) ||
         sorted_intersect(a.reads, b.writes);
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
