// Experiment runner: every system completes a small trace replay, metrics
// are sane, and the headline comparative shapes already show at small scale.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "harness/runner.hpp"

namespace jenga::harness {
namespace {

RunConfig small_run(SystemKind kind) {
  RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 120;
  cfg.inject_window = 30 * kSecond;
  cfg.max_sim_time = 900 * kSecond;
  cfg.trace.num_contracts = 1000;
  cfg.trace.num_accounts = 2000;
  cfg.trace.max_steps = 12;
  cfg.trace.max_contracts_per_tx = 6;
  return cfg;
}

class RunnerTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(RunnerTest, CompletesWorkload) {
  const RunResult r = run_experiment(small_run(GetParam()));
  EXPECT_EQ(r.stats.submitted, 120u);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, 120u)
      << "committed=" << r.stats.committed << " aborted=" << r.stats.aborted;
  EXPECT_GT(r.stats.committed, 90u);
  EXPECT_GT(r.tps, 0.0);
  EXPECT_GT(r.latency_s, 0.0);
  EXPECT_GT(r.storage.total(), 0u);
  EXPECT_GT(r.sim_events, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, RunnerTest,
    ::testing::Values(SystemKind::kJenga, SystemKind::kJengaNoLattice,
                      SystemKind::kJengaNoGlobalLogic, SystemKind::kCxFunc,
                      SystemKind::kSingleShard, SystemKind::kPyramid),
    [](const auto& info) {
      switch (info.param) {
        case SystemKind::kJenga: return "Jenga";
        case SystemKind::kJengaNoLattice: return "JengaNoOLS";
        case SystemKind::kJengaNoGlobalLogic: return "JengaNoNWLS";
        case SystemKind::kCxFunc: return "CxFunc";
        case SystemKind::kSingleShard: return "SingleShard";
        case SystemKind::kPyramid: return "Pyramid";
      }
      return "?";
    });

TEST(RunnerShapes, JengaBeatsCxFuncOnLatency) {
  auto jenga = run_experiment(small_run(SystemKind::kJenga));
  auto cxf = run_experiment(small_run(SystemKind::kCxFunc));
  EXPECT_LT(jenga.latency_s, cxf.latency_s);
}

TEST(RunnerShapes, JengaHasNoCrossShardContractTraffic) {
  auto jenga = run_experiment(small_run(SystemKind::kJenga));
  EXPECT_EQ(jenga.traffic.messages[1], 0u);
  auto cxf = run_experiment(small_run(SystemKind::kCxFunc));
  EXPECT_GT(cxf.traffic.messages[1], 0u);
}

TEST(RunnerShapes, PaperNodesPerShardTable) {
  EXPECT_EQ(paper_nodes_per_shard(4), 180u);
  EXPECT_EQ(paper_nodes_per_shard(6), 200u);
  EXPECT_EQ(paper_nodes_per_shard(8), 210u);
  EXPECT_EQ(paper_nodes_per_shard(10), 230u);
  EXPECT_EQ(paper_nodes_per_shard(12), 240u);
}

TEST(RunnerShapes, DeterministicResults) {
  auto a = run_experiment(small_run(SystemKind::kJenga));
  auto b = run_experiment(small_run(SystemKind::kJenga));
  EXPECT_EQ(a.stats.committed, b.stats.committed);
  EXPECT_EQ(a.stats.total_commit_latency, b.stats.total_commit_latency);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(RunnerShapes, TransfersFasterThanContracts) {
  RunConfig transfers = small_run(SystemKind::kCxFunc);
  transfers.contract_txs = 0;
  transfers.transfer_txs = 120;
  RunConfig contracts = small_run(SystemKind::kCxFunc);
  const auto rt = run_experiment(transfers);
  const auto rc = run_experiment(contracts);
  EXPECT_EQ(rt.stats.committed + rt.stats.aborted, 120u);
  EXPECT_LT(rt.latency_s, rc.latency_s);  // Fig. 3b's gap, latency view
}

// Golden digests: two small open-loop runs pinned to hex values, so a change
// that is meant to leave behaviour alone (memory layout, ownership, what gets
// attached to the network) can be checked against earlier revisions, not just
// against itself.  A deliberate behaviour change updates these values.
RunConfig golden_run(SystemKind kind) {
  RunConfig cfg = small_run(kind);
  cfg.contract_txs = 90;
  cfg.transfer_txs = 30;
  cfg.arrival.mode = workload::ArrivalMode::kPoisson;
  cfg.arrival.rate_tps = 30.0;
  cfg.mempool.capacity = 64;
  cfg.max_inflight = 128;
  return cfg;
}

struct GoldenDigests {
  const char* ledger;
  const char* state;
  const char* admission;
};

void expect_golden(SystemKind kind, const GoldenDigests& want) {
  const RunResult r = run_experiment(golden_run(kind));
  ASSERT_TRUE(r.ingress.enabled);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, r.stats.submitted);
  EXPECT_GT(r.stats.committed, 100u);
  EXPECT_EQ(to_hex(r.ledger_digest), want.ledger);
  EXPECT_EQ(to_hex(r.state_digest), want.state);
  EXPECT_EQ(to_hex(r.ingress.admission_digest), want.admission);
}

TEST(GoldenDigests, JengaOpenLoopContractsAndTransfers) {
  expect_golden(SystemKind::kJenga,
                {"40c11d9ff6bb4f4623503e274fc9239a20246a95794c482cfd1959b7354372d3",
                 "7c50c0bbac2ca8f9796af0e05d482b27af307ee47214ba9903bcf75ff5a5a5c1",
                 "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

TEST(GoldenDigests, CxFuncOpenLoop) {
  // Baselines leave the state digest at zero (RunResult::state_digest).
  expect_golden(SystemKind::kCxFunc,
                {"255c1464e8db49971c4cf676492eb3de5ef5630acde97b037a361a35881e1acb",
                 "0000000000000000000000000000000000000000000000000000000000000000",
                 "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

}  // namespace
}  // namespace jenga::harness
