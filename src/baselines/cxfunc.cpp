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
  return {step_home(*tx, 0), std::move(item)};
}

PreparedExec CxFuncSystem::prepare_exec(Shard& shard, const WorkItem& item) {
  PreparedExec p;
  const Transaction& tx = *item.tx;

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

  // The group: steps homed here from the item's step on, passing over steps
  // a committee already ran, up to the first step homed elsewhere.
  std::uint32_t end = aux_step(item.aux);
  for (; end < tx.steps.size(); ++end) {
    const ShardId home = step_home(tx, end);
    if (ran_by_committee(item.aux, home)) continue;
    if (home != shard.id) break;
    p.task.own_steps.push_back(tx.steps[end]);
  }

  p.action = PreparedExec::Action::kRun;
  p.next = end;
  p.task.id = tx.hash;
  p.task.sender = tx.sender;
  p.task.logic.reserve(tx.contracts.size());
  for (auto c : tx.contracts) p.task.logic.push_back(shard.logic.get(c));
  p.task.limits.gas_limit = tx.gas_limit;
  p.task.input = std::move(slice);
  return p;
}

void CxFuncSystem::finish_exec(Shard& shard, NodeId decider, const WorkItem& item,
                               const PreparedExec& prep, exec::TaskResult& result, BlockCtx&) {
  shard.buffered[item.tx->hash] = std::move(result.output);
  hand_off(shard, decider, item.tx, pack_aux(aux_bshard(item.aux), prep.next));
}

void CxFuncSystem::hand_off(Shard& shard, NodeId decider, const TxPtr& tx, std::uint32_t aux) {
  std::uint32_t next = aux_step(aux);
  while (next < tx->steps.size() && ran_by_committee(aux, step_home(*tx, next))) ++next;
  if (next >= tx->steps.size()) {
    broadcast_commit(shard, decider, tx, /*ok=*/true);
    return;
  }
  WorkItem item;
  item.kind = WorkItem::Kind::kStepExec;
  item.tx = tx;
  item.aux = pack_aux(aux_bshard(aux), next);
  send_cross(decider, shard.id, step_home(*tx, next), std::move(item));
}

void CxFuncSystem::process_item(Shard& shard, NodeId, const WorkItem& item, BlockCtx& ctx) {
  if (item.kind == WorkItem::Kind::kCommit) apply_commit(shard, item, ctx);
}

}  // namespace jenga::baselines
