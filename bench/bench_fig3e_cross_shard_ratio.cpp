// Fig. 3e: share of cross-shard communication when processing smart-contract
// transactions, vs the number of shards.  The paper reports a large and
// rising cross-shard ratio (>90% at 12 shards with secure cross-shard
// broadcast).  We measure the CX Func prototype under the quorum-broadcast
// transport (f+1 senders x all receivers, the "more secure scheme" of
// §VII-E); the client-relay transport is shown for comparison.
#include <cstdio>

#include "bench_config.hpp"
#include "report.hpp"

int main() {
  using namespace jenga;
  using namespace jenga::bench;
  ShapeReporter rep;
  using namespace jenga::harness;

  header("Fig. 3e — cross-shard communication ratio vs number of shards",
         "paper Fig. 3e");

  std::printf("%-8s %-26s %-26s\n", "Shards", "cross ratio (quorum bcast)",
              "cross ratio (client relay)");
  std::vector<double> quorum_ratio;
  for (std::uint32_t s : kShardCounts) {
    RunConfig q = perf_config(SystemKind::kCxFunc, s);
    q.contract_txs /= 2;  // traffic accounting needs volume, not duration
    q.max_inflight /= 2;
    q.cross_mode = baselines::CrossShardMode::kQuorumBroadcast;
    RunConfig relay = q;
    relay.cross_mode = baselines::CrossShardMode::kClientRelay;
    const auto rq = run_experiment(q);
    const auto rr = run_experiment(relay);
    quorum_ratio.push_back(rq.cross_ratio);
    std::printf("%-8u %-26.3f %-26.3f\n", s, rq.cross_ratio, rr.cross_ratio);
  }
  std::printf("\n");
  rep.check(quorum_ratio.back() > quorum_ratio.front(),
              "Fig.3e: cross-shard ratio rises with the number of shards");
  rep.check(quorum_ratio.back() > 0.5,
              "Fig.3e: cross-shard traffic dominates at 12 shards (paper: >90%)");
  return rep.finish("bench_fig3e_cross_shard_ratio");
}
