// CX Func — Ethereum's Cross-Shard Function Call (paper §II-C, [23]).
//
// Contracts are hash-placed on shards; state, logic and execution of a
// contract are confined to its home shard.  A k-step transaction becomes a
// chain of sub-transactions: each home shard in step order locks its
// contracts, executes its consecutive step group via intra-shard consensus,
// buffers the tentative updates, and hands control to the next shard with a
// cross-shard message.  After the last group, a commit decision fans out to
// every involved shard, which applies (or discards) its buffered updates.
//
// This step-group path is also Pyramid's fallback for the steps its merged
// committee does not cover (pyramid.hpp): a step group passes over every
// step ran_by_committee() claims, which CX Func never does.
#pragma once

#include "baselines/baseline_base.hpp"

namespace jenga::baselines {

class CxFuncSystem : public BaselineSystem {
 public:
  CxFuncSystem(sim::Simulator& sim, sim::Network& net, telemetry::Telemetry& telemetry,
               BaselineConfig config, Genesis genesis)
      : BaselineSystem(sim, net, telemetry, config, std::move(genesis)) {
    place_contracts();
  }

 protected:
  /// kStepExec's `aux`: (b-shard << 16) | index of the group's first step.
  /// CX Func's b-shard is always 0, so its aux is the step index itself.
  static constexpr std::uint32_t pack_aux(std::uint32_t b, std::uint32_t step) {
    return (b << 16) | step;
  }
  static constexpr std::uint32_t aux_bshard(std::uint32_t aux) { return aux >> 16; }
  static constexpr std::uint32_t aux_step(std::uint32_t aux) { return aux & 0xFFFF; }

  std::pair<ShardId, WorkItem> classify_tx(const TxPtr& tx) override;
  void process_item(Shard& shard, NodeId decider, const WorkItem& item,
                    BlockCtx& ctx) override;

  /// kStepExec — the steps from aux_step(item.aux) on that are homed on this
  /// shard, up to the first that is not — goes through the batch engine.
  [[nodiscard]] bool is_exec_item(const WorkItem& item) const override {
    return item.kind == WorkItem::Kind::kStepExec;
  }
  PreparedExec prepare_exec(Shard& shard, const WorkItem& item) override;
  void finish_exec(Shard& shard, NodeId decider, const WorkItem& item, const PreparedExec& prep,
                   exec::TaskResult& result, BlockCtx& ctx) override;

  /// Whether a committee already ran the steps homed on `home` for a step
  /// group item with this `aux`; step groups pass over such steps.  CX Func:
  /// never.
  [[nodiscard]] virtual bool ran_by_committee(std::uint32_t, ShardId) const { return false; }
  /// Hands `tx` to the home shard of its first step at or after
  /// aux_step(aux) that no committee ran, as a kStepExec item keeping aux's
  /// b-shard; fans out the commit when no such step is left.
  void hand_off(Shard& shard, NodeId decider, const TxPtr& tx, std::uint32_t aux);

  [[nodiscard]] ShardId step_home(const ledger::Transaction& tx, std::uint32_t step) const {
    return home_of_contract(tx.contracts[tx.steps[step].contract_slot]);
  }
};

}  // namespace jenga::baselines
