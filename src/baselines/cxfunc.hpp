// CX Func — Ethereum's Cross-Shard Function Call (paper §II-C, [23]).
//
// Contracts are hash-placed on shards; state, logic and execution of a
// contract are confined to its home shard.  A k-step transaction becomes a
// chain of sub-transactions: each home shard in step order locks its
// contracts, executes its consecutive step group via intra-shard consensus,
// buffers the tentative updates, and hands control to the next shard with a
// cross-shard message.  After the last group, a commit decision fans out to
// every involved shard, which applies (or discards) its buffered updates.
#pragma once

#include "baselines/baseline_base.hpp"

namespace jenga::baselines {

class CxFuncSystem final : public BaselineSystem {
 public:
  CxFuncSystem(sim::Simulator& sim, sim::Network& net, telemetry::Telemetry& telemetry,
               BaselineConfig config, Genesis genesis)
      : BaselineSystem(sim, net, telemetry, config, std::move(genesis)) {
    place_contracts();
  }

 protected:
  std::pair<ShardId, WorkItem> classify_tx(const TxPtr& tx) override;
  void process_item(Shard& shard, NodeId decider, const WorkItem& item,
                    BlockCtx& ctx) override;

  /// kStepExec — the consecutive run of steps starting at item.aux that are
  /// homed on this shard — goes through the batch engine.
  [[nodiscard]] bool is_exec_item(const WorkItem& item) const override {
    return item.kind == WorkItem::Kind::kStepExec;
  }
  PreparedExec prepare_exec(Shard& shard, const WorkItem& item) override;
  void finish_exec(Shard& shard, NodeId decider, const WorkItem& item, PreparedExec& prep,
                   exec::TaskResult* result, BlockCtx& ctx) override;
};

}  // namespace jenga::baselines
