#include "baselines/single_shard.hpp"

#include "ledger/portable_state.hpp"
#include "vm/interpreter.hpp"

namespace jenga::baselines {

using ledger::PortableState;
using ledger::Transaction;

std::pair<ShardId, WorkItem> SingleShardSystem::classify_tx(const TxPtr& tx) {
  WorkItem item;
  item.tx = tx;
  const ShardId sender_shard = home_of_account(tx->sender);
  if (sender_shard == ShardId{0}) {
    // Sender already lives on the contract shard: execute directly.
    item.kind = WorkItem::Kind::kExec;
    return {ShardId{0}, std::move(item)};
  }
  item.kind = WorkItem::Kind::kMoveOut;
  return {sender_shard, std::move(item)};
}

void SingleShardSystem::process_item(Shard& shard, NodeId decider, const WorkItem& item,
                                     BlockCtx& ctx) {
  const Transaction& tx = *item.tx;
  switch (item.kind) {
    case WorkItem::Kind::kMoveOut: {
      // Lock and ship the sender's balance to the contract shard.
      if (!shard.locks.lock_account(tx.sender, tx.hash)) {
        // Busy moving for another tx: retry from the mempool, then abort.
        retry_or_abort(shard, decider, item);
        break;
      }
      WorkItem exec;
      exec.kind = WorkItem::Kind::kExec;
      exec.tx = item.tx;
      exec.state.balances[tx.sender] = shard.store.balance(tx.sender).value_or(0);
      send_cross(decider, shard.id, ShardId{0}, std::move(exec));
      break;
    }
    case WorkItem::Kind::kCommit:
      // Account shards must also release the MoveOut lock on the sender.
      if (home_of_account(tx.sender) == shard.id)
        shard.locks.unlock_account(tx.sender, tx.hash);
      apply_commit(shard, item, ctx);
      break;
    default:
      break;
  }
}

PreparedExec SingleShardSystem::prepare_exec(Shard& shard, const WorkItem& item) {
  PreparedExec p;
  const Transaction& tx = *item.tx;
  // shard.id == 0: all contract logic and state are local.
  bool lock_failed = false;
  for (auto c : tx.contracts) {
    if (!shard.locks.lock_contract(c, tx.hash)) {
      lock_failed = true;
      break;
    }
  }
  // A sender local to the contract shard skipped MoveOut: lock it here
  // so concurrent transactions cannot interleave balance writes.
  if (!lock_failed && home_of_account(tx.sender) == shard.id &&
      !shard.locks.lock_account(tx.sender, tx.hash)) {
    lock_failed = true;
  }
  if (lock_failed) {
    p.action = PreparedExec::Action::kLockBusy;
    return p;
  }
  PortableState bundle = item.state;  // shipped-in balances
  for (auto a : tx.accounts) {
    if (home_of_account(a) == shard.id)
      bundle.balances[a] = shard.store.balance(a).value_or(0);
  }
  for (auto c : tx.contracts) {
    const auto* st = shard.store.contract_state(c);
    bundle.contracts[c] = st ? *st : ledger::ContractState{};
  }
  p.action = PreparedExec::Action::kRun;
  p.task.id = tx.hash;
  p.task.sender = tx.sender;
  p.task.logic.reserve(tx.contracts.size());
  for (auto c : tx.contracts) p.task.logic.push_back(shard.logic.get(c));
  p.task.steps_view = tx.steps;
  p.task.limits.gas_limit = tx.gas_limit;
  p.task.input = std::move(bundle);
  return p;
}

void SingleShardSystem::finish_exec(Shard& shard, NodeId decider, const WorkItem& item,
                                    const PreparedExec&, exec::TaskResult& result, BlockCtx&) {
  // Buffer the contract states and the balances homed here for the commit
  // round; each other changed balance rides its account shard's commit.
  PortableState local;
  local.contracts = std::move(result.output.contracts);
  for (const auto& [a, bal] : result.output.balances)
    if (home_of_account(a) == shard.id) local.balances[a] = bal;
  shard.buffered[item.tx->hash] = std::move(local);
  broadcast_commit(shard, decider, item.tx, /*ok=*/true, result.output);
}

}  // namespace jenga::baselines
