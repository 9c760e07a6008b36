// Pyramid — layered sharding with merged "b-shards" (paper §II-C, [13]).
//
// Every i-shard `b` anchors a merged committee (b-shard) spanning the
// `merge_span` consecutive shards [b, b+span) (mod S): its nodes
// additionally store every spanned shard's state, logic and chain.  A
// contract transaction is routed to the b-shard covering the most of its
// declared contracts: the in-span part executes in ONE consensus round on
// the merged committee (it has all the needed state/logic), the out-of-span
// remainder runs CX Func's step groups (cxfunc.hpp), which pass over the
// in-span steps, and one final cross-shard commit round applies buffered
// updates everywhere — the paper's observation that "merged shards cannot
// cover all transactions" made concrete.  The price is per-node storage that
// grows with the span (Fig. 7a's rising curve): every node carries
// `merge_span` shard-shares.
#pragma once

#include "baselines/cxfunc.hpp"

namespace jenga::baselines {

class PyramidSystem final : public CxFuncSystem {
 public:
  PyramidSystem(sim::Simulator& sim, sim::Network& net, telemetry::Telemetry& telemetry,
                BaselineConfig config, Genesis genesis)
      : CxFuncSystem(sim, net, telemetry, config, std::move(genesis)) {}

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

  /// kExec (the merged committee's in-span round, aux = b-shard) goes through
  /// the batch engine here; kStepExec is CX Func's.
  [[nodiscard]] bool is_exec_item(const WorkItem& item) const override {
    return item.kind == WorkItem::Kind::kExec || CxFuncSystem::is_exec_item(item);
  }
  PreparedExec prepare_exec(Shard& shard, const WorkItem& item) override;
  void finish_exec(Shard& shard, NodeId decider, const WorkItem& item, const PreparedExec& prep,
                   exec::TaskResult& result, BlockCtx& ctx) override;

  /// The merged committee of b-shard aux_bshard(aux) ran every step homed in
  /// its span.
  [[nodiscard]] bool ran_by_committee(std::uint32_t aux, ShardId home) const override {
    return in_span(aux_bshard(aux), home);
  }
};

}  // namespace jenga::baselines
