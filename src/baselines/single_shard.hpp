// Single Shard — systems where one designated shard processes every smart
// contract (paper §II-C, [4][9][25]).
//
// All contract state and logic live on shard 0.  Before a contract tx runs,
// the sender's account shard locks the balance and ships it to shard 0
// (MoveOut round + cross-shard message); shard 0 executes everything in one
// consensus round; the commit round fans out, carrying the updated balance
// back to the account shard.  Contract-processing capacity therefore never
// scales with the shard count.
#pragma once

#include "baselines/baseline_base.hpp"

namespace jenga::baselines {

class SingleShardSystem final : public BaselineSystem {
 public:
  SingleShardSystem(sim::Simulator& sim, sim::Network& net, telemetry::Telemetry& telemetry,
                    BaselineConfig config, Genesis genesis)
      : BaselineSystem(sim, net, telemetry, config, std::move(genesis)) {
    place_contracts();
  }

 protected:
  [[nodiscard]] ShardId home_of_contract(ContractId) const override { return ShardId{0}; }
  std::pair<ShardId, WorkItem> classify_tx(const TxPtr& tx) override;
  void process_item(Shard& shard, NodeId decider, const WorkItem& item,
                    BlockCtx& ctx) override;

  /// kExec — the whole-tx run on shard 0 — goes through the batch engine.
  /// kMoveOut stays inline: it only locks and ships a balance, no VM work.
  [[nodiscard]] bool is_exec_item(const WorkItem& item) const override {
    return item.kind == WorkItem::Kind::kExec;
  }
  PreparedExec prepare_exec(Shard& shard, const WorkItem& item) override;
  void finish_exec(Shard& shard, NodeId decider, const WorkItem& item, PreparedExec& prep,
                   exec::TaskResult* result, BlockCtx& ctx) override;
};

}  // namespace jenga::baselines
