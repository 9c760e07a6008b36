// Pyramid — layered sharding with merged "b-shards" (paper §II-C, [13]).
//
// Every i-shard `b` anchors a merged committee (b-shard) spanning the
// `merge_span` consecutive shards [b, b+span) (mod S): its nodes
// additionally store every spanned shard's state, logic and chain.  A
// contract transaction is routed to the b-shard covering the most of its
// declared contracts: the in-span part executes in ONE consensus round on
// the merged committee (it has all the needed state/logic), the out-of-span
// remainder falls back to CX Func-style sequential step groups, and one
// final cross-shard commit round applies buffered updates everywhere — the
// paper's observation that "merged shards cannot cover all transactions"
// made concrete.  The price is per-node storage that grows with the span
// (Fig. 7a's rising curve): every node carries `merge_span` shard-shares.
#pragma once

#include "baselines/baseline_base.hpp"

namespace jenga::baselines {

class PyramidSystem final : public BaselineSystem {
 public:
  PyramidSystem(sim::Simulator& sim, sim::Network& net, telemetry::Telemetry& telemetry,
                BaselineConfig config, Genesis genesis)
      : BaselineSystem(sim, net, telemetry, config, std::move(genesis)) {
    place_contracts();
  }

  /// Per-node storage including the merged-committee replication overhead.
  [[nodiscard]] StorageReport storage_report() const override;

  /// The shard whose committee acts for b-shard `b` (its anchor).
  [[nodiscard]] ShardId bshard_committee(std::uint32_t b) const { return ShardId{b}; }
  /// b-shard `b` spans shards [b, b+span) modulo S.
  [[nodiscard]] bool in_span(std::uint32_t b, ShardId s) const {
    const std::uint32_t offset = (s.value + config_.num_shards - b) % config_.num_shards;
    return offset < std::min(config_.merge_span, config_.num_shards);
  }

 protected:
  std::pair<ShardId, WorkItem> classify_tx(const TxPtr& tx) override;
  void process_item(Shard& shard, NodeId decider, const WorkItem& item,
                    BlockCtx& ctx) override;

  /// Both VM-carrying kinds go through the batch engine: kExec (the merged
  /// committee's in-span round) and kStepExec (out-of-span step groups).
  [[nodiscard]] bool is_exec_item(const WorkItem& item) const override {
    return item.kind == WorkItem::Kind::kExec || item.kind == WorkItem::Kind::kStepExec;
  }
  PreparedExec prepare_exec(Shard& shard, const WorkItem& item) override;
  void finish_exec(Shard& shard, NodeId decider, const WorkItem& item, PreparedExec& prep,
                   exec::TaskResult* result, BlockCtx& ctx) override;

 private:
  /// Index of the first step at or after `from` whose home lies outside
  /// b-shard `b`'s span; tx.steps.size() if none.
  [[nodiscard]] std::uint32_t next_out_of_span_step(const ledger::Transaction& tx,
                                                    std::uint32_t b, std::uint32_t from) const;
  void continue_out_of_span(Shard& shard, NodeId decider, const WorkItem& item,
                            std::uint32_t from);
};

}  // namespace jenga::baselines
