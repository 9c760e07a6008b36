#include "baselines/cxfunc.hpp"

#include "ledger/portable_state.hpp"
#include "vm/interpreter.hpp"

namespace jenga::baselines {

using ledger::PortableState;
using ledger::Transaction;

std::pair<ShardId, WorkItem> CxFuncSystem::classify_tx(const TxPtr& tx) {
  WorkItem item;
  item.kind = WorkItem::Kind::kStepExec;
  item.tx = tx;
  item.aux = 0;
  const ShardId first = home_of_contract(tx->contracts[tx->steps.front().contract_slot]);
  return {first, std::move(item)};
}

PreparedExec CxFuncSystem::prepare_exec(Shard& shard, const WorkItem& item) {
  PreparedExec p;
  const Transaction& tx = *item.tx;
  const std::uint32_t from = item.aux;

  // Lock every declared contract homed here (idempotent re-lock by owner).
  for (auto c : tx.contracts) {
    if (home_of_contract(c) == shard.id && !shard.locks.lock_contract(c, tx.hash)) {
      p.action = PreparedExec::Action::kLockBusy;
      return p;
    }
  }

  // View over this shard's slice: store values overlaid with updates
  // buffered by earlier visits of the same transaction.
  PortableState slice;
  for (auto c : tx.contracts) {
    if (home_of_contract(c) != shard.id) continue;
    const auto* st = shard.store.contract_state(c);
    slice.contracts[c] = st ? *st : ledger::ContractState{};
  }
  for (auto a : tx.accounts) {
    if (home_of_account(a) == shard.id)
      slice.balances[a] = shard.store.balance(a).value_or(0);
  }
  if (const auto buffered = shard.buffered.find(tx.hash); buffered != shard.buffered.end())
    slice.merge(buffered->second);

  std::uint32_t end = from;
  while (end < tx.steps.size() &&
         home_of_contract(tx.contracts[tx.steps[end].contract_slot]) == shard.id)
    ++end;

  p.action = PreparedExec::Action::kRun;
  p.next = end;
  p.task.id = tx.hash;
  p.task.sender = tx.sender;
  p.task.logic.reserve(tx.contracts.size());
  for (auto c : tx.contracts) p.task.logic.push_back(shard.logic.get(c));
  p.task.steps_view = std::span(tx.steps.data() + from, end - from);
  p.task.limits.gas_limit = tx.gas_limit;
  // Snapshot balances so untouched ones are NOT written back at commit:
  // accounts are not locked here, and restoring a stale balance would undo a
  // concurrent transaction's fee/debit.
  p.balance_snapshot = slice.balances;
  p.task.input = std::move(slice);
  return p;
}

void CxFuncSystem::finish_exec(Shard& shard, NodeId decider, const WorkItem& item,
                               PreparedExec& prep, exec::TaskResult* result, BlockCtx&) {
  if (prep.action == PreparedExec::Action::kLockBusy) {
    retry_or_abort(shard, decider, item);
    return;
  }
  const Transaction& tx = *item.tx;
  if (result == nullptr || !result->vm.ok()) {
    broadcast_commit(shard, decider, item.tx, /*ok=*/false);
    return;
  }
  PortableState updated = std::move(result->output);
  for (const auto& [a, bal] : prep.balance_snapshot) {
    const auto it = updated.balances.find(a);
    if (it != updated.balances.end() && it->second == bal) updated.balances.erase(it);
  }
  shard.buffered[tx.hash] = std::move(updated);
  if (prep.next >= tx.steps.size()) {
    broadcast_commit(shard, decider, item.tx, /*ok=*/true);
    return;
  }
  WorkItem hand_off;
  hand_off.kind = WorkItem::Kind::kStepExec;
  hand_off.tx = item.tx;
  hand_off.aux = prep.next;
  send_cross(decider, shard.id,
             home_of_contract(tx.contracts[tx.steps[prep.next].contract_slot]),
             std::move(hand_off));
}

void CxFuncSystem::process_item(Shard& shard, NodeId, const WorkItem& item, BlockCtx& ctx) {
  switch (item.kind) {
    case WorkItem::Kind::kCommit:
      apply_commit(shard, item, ctx);
      break;
    default:
      break;
  }
}

}  // namespace jenga::baselines
