#include "baselines/pyramid.hpp"

#include <algorithm>

#include "ledger/portable_state.hpp"
#include "vm/interpreter.hpp"

namespace jenga::baselines {

using ledger::PortableState;
using ledger::Transaction;

std::pair<ShardId, WorkItem> PyramidSystem::classify_tx(const TxPtr& tx) {
  // Route to the b-shard covering the most declared contracts (one b-shard
  // is anchored at every shard).
  const std::uint32_t num_b = config_.num_shards;
  std::uint32_t best = 0, best_cover = 0;
  for (std::uint32_t b = 0; b < num_b; ++b) {
    std::uint32_t cover = 0;
    for (auto c : tx->contracts)
      if (in_span(b, home_of_contract(c))) ++cover;
    if (cover > best_cover) {
      best_cover = cover;
      best = b;
    }
  }
  WorkItem item;
  item.kind = WorkItem::Kind::kExec;
  item.tx = tx;
  item.aux = best;
  return {bshard_committee(best), std::move(item)};
}

PreparedExec PyramidSystem::prepare_exec(Shard& shard, const WorkItem& item) {
  if (item.kind != WorkItem::Kind::kExec) return CxFuncSystem::prepare_exec(shard, item);
  PreparedExec p;
  const Transaction& tx = *item.tx;

  // Merged-committee round: lock + slice every in-span resource at once.
  const std::uint32_t b = item.aux;
  for (auto c : tx.contracts) {
    const ShardId home = home_of_contract(c);
    if (!in_span(b, home)) continue;
    if (!shards_[home.value]->locks.lock_contract(c, tx.hash)) {
      p.action = PreparedExec::Action::kLockBusy;
      return p;
    }
  }
  PortableState bundle;
  for (auto c : tx.contracts) {
    const ShardId home = home_of_contract(c);
    if (in_span(b, home)) {
      const auto* st = shards_[home.value]->store.contract_state(c);
      bundle.contracts[c] = st ? *st : ledger::ContractState{};
      p.task.logic.push_back(shards_[home.value]->logic.get(c));
    } else {
      p.task.logic.push_back(nullptr);  // out-of-span: a step group runs it later
    }
  }
  for (auto a : tx.accounts) {
    const ShardId home = home_of_account(a);
    if (in_span(b, home))
      bundle.balances[a] = shards_[home.value]->store.balance(a).value_or(0);
  }
  // The in-span subsequence, order preserved (non-contiguous: task-owned).
  for (const auto& s : tx.steps)
    if (in_span(b, home_of_contract(tx.contracts[s.contract_slot]))) p.task.own_steps.push_back(s);

  p.action = PreparedExec::Action::kRun;
  p.task.id = tx.hash;
  p.task.sender = tx.sender;
  p.task.limits.gas_limit = tx.gas_limit;
  p.task.input = std::move(bundle);
  return p;
}

void PyramidSystem::finish_exec(Shard& shard, NodeId decider, const WorkItem& item,
                                const PreparedExec& prep, exec::TaskResult& result,
                                BlockCtx& ctx) {
  if (item.kind != WorkItem::Kind::kExec) {
    CxFuncSystem::finish_exec(shard, decider, item, prep, result, ctx);
    return;
  }
  // Buffer updates on each owning member shard for the commit round, then
  // run the out-of-span steps as CX Func step groups.
  const Hash256& h = item.tx->hash;
  for (auto& [c, st] : result.output.contracts)
    shards_[home_of_contract(c).value]->buffered[h].contracts[c] = std::move(st);
  for (const auto& [a, bal] : result.output.balances)
    shards_[home_of_account(a).value]->buffered[h].balances[a] = bal;
  hand_off(shard, decider, item.tx, pack_aux(item.aux, 0));
}

StorageReport PyramidSystem::storage_report() const {
  StorageReport r = BaselineSystem::storage_report();
  // Every node additionally replicates the other `span-1` shards of its
  // b-shard: state, logic and chain; averaged over all N nodes.
  std::uint64_t extra = 0;
  const std::uint32_t span = std::min(config_.merge_span, config_.num_shards);
  for (std::uint32_t b = 0; b < config_.num_shards; ++b) {
    for (std::uint32_t off = 1; off < span; ++off) {
      const std::uint32_t s = (b + off) % config_.num_shards;
      extra += shards_[s]->store.state_storage_bytes() +
               shards_[s]->logic.logic_storage_bytes() + shards_[s]->chain.total_bytes();
    }
  }
  r.extra_bytes_per_node = extra / config_.num_shards;
  return r;
}

}  // namespace jenga::baselines
