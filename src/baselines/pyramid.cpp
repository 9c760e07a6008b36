#include "baselines/pyramid.hpp"

#include <algorithm>

#include "ledger/portable_state.hpp"
#include "vm/interpreter.hpp"

namespace jenga::baselines {

using ledger::PortableState;
using ledger::Transaction;

namespace {

/// aux packing for kStepExec: (b-shard << 16) | next step index.
constexpr std::uint32_t pack_aux(std::uint32_t b, std::uint32_t step) {
  return (b << 16) | step;
}
constexpr std::uint32_t aux_bshard(std::uint32_t aux) { return aux >> 16; }
constexpr std::uint32_t aux_step(std::uint32_t aux) { return aux & 0xFFFF; }

}  // namespace

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

std::uint32_t PyramidSystem::next_out_of_span_step(const Transaction& tx, std::uint32_t b,
                                                   std::uint32_t from) const {
  for (std::uint32_t i = from; i < tx.steps.size(); ++i) {
    if (!in_span(b, home_of_contract(tx.contracts[tx.steps[i].contract_slot]))) return i;
  }
  return static_cast<std::uint32_t>(tx.steps.size());
}

void PyramidSystem::continue_out_of_span(Shard& shard, NodeId decider, const WorkItem& item,
                                         std::uint32_t from) {
  const Transaction& tx = *item.tx;
  const std::uint32_t b = aux_bshard(item.aux);
  const std::uint32_t next = next_out_of_span_step(tx, b, from);
  if (next >= tx.steps.size()) {
    broadcast_commit(shard, decider, item.tx, /*ok=*/true);
    return;
  }
  WorkItem hand_off;
  hand_off.kind = WorkItem::Kind::kStepExec;
  hand_off.tx = item.tx;
  hand_off.aux = pack_aux(b, next);
  send_cross(decider, shard.id,
             home_of_contract(tx.contracts[tx.steps[next].contract_slot]),
             std::move(hand_off));
}

PreparedExec PyramidSystem::prepare_exec(Shard& shard, const WorkItem& item) {
  PreparedExec p;
  const Transaction& tx = *item.tx;

  if (item.kind == WorkItem::Kind::kExec) {
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
        p.task.logic.push_back(nullptr);  // out-of-span: executed later elsewhere
      }
    }
    for (auto a : tx.accounts) {
      const ShardId home = home_of_account(a);
      if (in_span(b, home))
        bundle.balances[a] = shards_[home.value]->store.balance(a).value_or(0);
    }
    // The in-span subsequence, order preserved (non-contiguous: task-owned).
    for (const auto& s : tx.steps)
      if (in_span(b, home_of_contract(tx.contracts[s.contract_slot])))
        p.task.own_steps.push_back(s);
    p.balance_snapshot = bundle.balances;
    p.task.input = std::move(bundle);
  } else {  // kStepExec
    const std::uint32_t b = aux_bshard(item.aux);
    const std::uint32_t from = aux_step(item.aux);
    // Lock the declared contracts homed here.
    for (auto c : tx.contracts) {
      if (home_of_contract(c) == shard.id && !shard.locks.lock_contract(c, tx.hash)) {
        p.action = PreparedExec::Action::kLockBusy;
        return p;
      }
    }
    // The maximal run of out-of-span steps homed here (skipping in-span
    // steps, which the merged committee already ran).
    std::uint32_t next = from;
    while (next < tx.steps.size()) {
      const ShardId home = home_of_contract(tx.contracts[tx.steps[next].contract_slot]);
      if (in_span(b, home)) {
        ++next;
        continue;
      }
      if (home != shard.id) break;
      p.task.own_steps.push_back(tx.steps[next]);
      ++next;
    }
    p.next = next;
    PortableState slice;
    for (auto c : tx.contracts) {
      if (home_of_contract(c) == shard.id) {
        const auto* st = shard.store.contract_state(c);
        slice.contracts[c] = st ? *st : ledger::ContractState{};
        p.task.logic.push_back(shard.logic.get(c));
      } else {
        p.task.logic.push_back(nullptr);
      }
    }
    for (auto a : tx.accounts)
      if (home_of_account(a) == shard.id)
        slice.balances[a] = shard.store.balance(a).value_or(0);
    if (const auto buffered = shard.buffered.find(tx.hash); buffered != shard.buffered.end())
      slice.merge(buffered->second);
    p.balance_snapshot = slice.balances;
    p.task.input = std::move(slice);
  }

  p.action = PreparedExec::Action::kRun;
  p.task.id = tx.hash;
  p.task.sender = tx.sender;
  p.task.limits.gas_limit = tx.gas_limit;
  return p;
}

void PyramidSystem::finish_exec(Shard& shard, NodeId decider, const WorkItem& item,
                                PreparedExec& prep, exec::TaskResult* result, BlockCtx&) {
  if (prep.action == PreparedExec::Action::kLockBusy) {
    retry_or_abort(shard, decider, item);
    return;
  }
  const Transaction& tx = *item.tx;
  const bool ok = result != nullptr && result->vm.ok();
  if (!ok) {
    broadcast_commit(shard, decider, item.tx, /*ok=*/false);
    return;
  }

  if (item.kind == WorkItem::Kind::kExec) {
    const std::uint32_t b = item.aux;
    // Buffer updates on each owning member shard for the commit round.
    // Unchanged balances are dropped: accounts are not locked, and a stale
    // write-back would clobber concurrent fee deductions.
    PortableState updated = std::move(result->output);
    for (auto& [c, st] : updated.contracts)
      shards_[home_of_contract(c).value]->buffered[tx.hash].contracts[c] = std::move(st);
    for (auto& [a, bal] : updated.balances) {
      const auto snap = prep.balance_snapshot.find(a);
      if (snap != prep.balance_snapshot.end() && snap->second == bal) continue;
      shards_[home_of_account(a).value]->buffered[tx.hash].balances[a] = bal;
    }
    WorkItem continuation = item;
    continuation.aux = pack_aux(b, 0);
    continue_out_of_span(shard, decider, continuation, 0);
  } else {  // kStepExec
    PortableState updated = std::move(result->output);
    for (const auto& [a, bal] : prep.balance_snapshot) {
      const auto it = updated.balances.find(a);
      if (it != updated.balances.end() && it->second == bal) updated.balances.erase(it);
    }
    shard.buffered[tx.hash] = std::move(updated);
    continue_out_of_span(shard, decider, item, prep.next);
  }
}

void PyramidSystem::process_item(Shard& shard, NodeId, const WorkItem& item, BlockCtx& ctx) {
  switch (item.kind) {
    case WorkItem::Kind::kCommit:
      apply_commit(shard, item, ctx);
      break;
    default:
      break;
  }
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
