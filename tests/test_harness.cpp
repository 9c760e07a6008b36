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
  cfg.arrival.rate_tps = 4;  // arrivals over about 30 s
  cfg.max_sim_time = 900 * kSecond;
  cfg.mempool.ttl = cfg.max_sim_time;
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

// Scaled-down committees keep integral subgroups: BFT's four-member floor is
// itself rounded up to a multiple of the shard count.
TEST(RunnerShapes, ScaledCommitteesStayMultiplesOfShardCount) {
  auto resolved = [](std::uint32_t shards, double scale) {
    RunConfig cfg;
    cfg.num_shards = shards;
    cfg.scale = scale;
    cfg.contract_txs = 0;
    cfg.trace.num_contracts = 10;
    cfg.trace.num_accounts = 100;
    cfg.max_sim_time = 0;
    return run_experiment(cfg).nodes_per_shard;
  };
  EXPECT_EQ(resolved(3, 0.01), 6u);
  EXPECT_EQ(resolved(3, 0.02), 6u);
  EXPECT_EQ(resolved(1, 0.01), 4u);
  EXPECT_EQ(resolved(2, 0.01), 4u);
  EXPECT_EQ(resolved(4, 0.01), 4u);
  EXPECT_EQ(resolved(6, 0.01), 6u);
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

// Golden digests: small open-loop runs pinned to hex values, so a change that
// is meant to leave behaviour alone (memory layout, ownership, what gets
// attached to the network, how the protocol code is factored) can be checked
// against earlier revisions, not just against itself.  Each run also checks
// that the path it guards ran.  A deliberate behaviour change updates these
// values.
RunConfig golden_run(SystemKind kind) {
  RunConfig cfg = small_run(kind);
  cfg.contract_txs = 90;
  cfg.transfer_txs = 30;
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

void expect_digests(const RunResult& r, const GoldenDigests& want) {
  EXPECT_EQ(to_hex(r.ledger_digest), want.ledger);
  EXPECT_EQ(to_hex(r.state_digest), want.state);
  EXPECT_EQ(to_hex(r.ingress.admission_digest), want.admission);
}

void expect_golden(SystemKind kind, const GoldenDigests& want) {
  const RunResult r = run_experiment(golden_run(kind));
  EXPECT_EQ(r.stats.committed + r.stats.aborted, r.stats.submitted);
  EXPECT_GT(r.stats.committed, 100u);
  expect_digests(r, want);
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

// Both baselines copy whole contract states into bundles: Single Shard into
// its state transfer, Pyramid into merged-shard and cross-shard slices.
// Single Shard writes back only the balances the VM changed, so this run ends
// at genesis minus fees (writing back every shipped balance left it 99 units
// above).
TEST(GoldenDigests, SingleShardOpenLoop) {
  expect_golden(SystemKind::kSingleShard,
                {"2ccf9a83a580f7d72dc15cf6ab1fdd1f52553d1e72d7a9ecdfadb971be2e1878",
                 "0000000000000000000000000000000000000000000000000000000000000000",
                 "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

TEST(GoldenDigests, PyramidOpenLoop) {
  expect_golden(SystemKind::kPyramid,
                {"29eba14d4e7f84091e5f2500562b125c8f8b84d253905dfa0dff3d6570e1a41b",
                 "0000000000000000000000000000000000000000000000000000000000000000",
                 "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

// Contract states of 64-256 entries, 150-400-instruction functions and four
// exec workers, as in the benchmark's fat-state workload: every state that is
// locked, shipped, executed and written back holds about nine times as many
// entries as in the runs above.
TEST(GoldenDigests, JengaFatStatesFourWorkers) {
  RunConfig cfg = golden_run(SystemKind::kJenga);
  cfg.contract_txs = 240;
  cfg.transfer_txs = 60;
  cfg.trace.initial_state_entries_min = 64;
  cfg.trace.initial_state_entries_max = 256;
  cfg.trace.function_length_min = 150;
  cfg.trace.function_length_max = 400;
  cfg.exec_workers = 4;
  const RunResult r = run_experiment(cfg);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, r.stats.submitted);
  EXPECT_GT(r.stats.committed, 250u);
  // At least 64 entries in every one of a shard's ~250 contracts.
  EXPECT_GT(r.storage.state_bytes_per_node, 200u * 64 * ledger::kStateEntryBytes);
  expect_digests(r, {"ef1e1598be663dbe5efff059e938839876b3374db7a9867dbf06d7c75e552329",
                     "919ecd4016b29c7a13730e68ff973b2c11427533ce8bd352450b9937cacacd81",
                     "65368bfdb2021391e0e9c2b8bf164e7106ee09fe861ce46476327efd7db919aa"});
}

// The Fig. 7 ablations execute elsewhere: on a hash-chosen shard (w/o OLS)
// and stepwise across contract home shards (w/o NWLS).
TEST(GoldenDigests, JengaNoLatticeOpenLoop) {
  expect_golden(SystemKind::kJengaNoLattice,
                {"b1db211e2640db19c6435cf418e802b5f7845228d16d4bd3ffe715b15fbf83ad",
                 "7c50c0bbac2ca8f9796af0e05d482b27af307ee47214ba9903bcf75ff5a5a5c1",
                 "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

TEST(GoldenDigests, JengaNoGlobalLogicOpenLoop) {
  expect_golden(SystemKind::kJengaNoGlobalLogic,
                {"860cbc7c5e7138bbedb32bab6b449aff3852de11c51246bc824b205452e60086",
                 "6ecc61ab7abe4810f316a1c0e62892f2c34ea90c4c3cb7ca2d40f9367394f897",
                 "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

// Rumor transport with relay frame batching: certs are verified in pooled
// aggregate passes instead of one at a time.
TEST(GoldenDigests, JengaRumorBatchedRelays) {
  RunConfig cfg = golden_run(SystemKind::kJenga);
  cfg.net.set_all_transports(sim::Transport::kRumor);
  const RunResult r = run_experiment(cfg);
  EXPECT_GT(r.cert_checks.batch_passes, 0u);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, r.stats.submitted);
  expect_digests(r, {"962b4f12a7f0c655139f4cb47160385615579d239a799112e27a981defad62e6",
                     "7c50c0bbac2ca8f9796af0e05d482b27af307ee47214ba9903bcf75ff5a5a5c1",
                     "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

// Six nodes (some of them client contacts) are down for the first two
// minutes: client copies are lost, gathers expire without their tx, and
// grants arriving after that expiry get unsigned late-abort answers.  Some
// transactions are still in flight when the run stops, so completion is not
// asserted; the digests pin the state they reach.
void expect_crashed_contacts_golden(SystemKind kind, const GoldenDigests& want) {
  RunConfig cfg = golden_run(kind);
  for (const std::uint32_t n : {1u, 6u, 11u, 17u, 22u, 28u})
    cfg.faults_plan.crashes.push_back({NodeId{n}, 1 * kSecond, 120 * kSecond});
  const RunResult r = run_experiment(cfg);
  EXPECT_GT(r.cert_checks.unsigned_batches, 0u);
  expect_digests(r, want);
}

TEST(GoldenDigests, JengaCrashedContacts) {
  expect_crashed_contacts_golden(
      SystemKind::kJenga,
      {"24931d793f941501f57210971ac3462ab1c39d4484f4e9829bfa3508153dcc6f",
       "32be32626fcee3370e7aada8d210e5056fd864c5b2e9e111fc2b02d9fe252bef",
       "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

TEST(GoldenDigests, JengaNoLatticeCrashedContacts) {
  expect_crashed_contacts_golden(
      SystemKind::kJengaNoLattice,
      {"52df34de4025b0c2261a5fee0d07eba402ae88ed196061296cc3076c2b3de514",
       "199faa1625db39a6e681848196b8fb76c384abcc7b9e3951c7ac7de6663e258d",
       "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

TEST(GoldenDigests, JengaNoGlobalLogicCrashedContacts) {
  expect_crashed_contacts_golden(
      SystemKind::kJengaNoGlobalLogic,
      {"770d74ea445c433cbb402b8e1ad5f1176cf25f9659caa92850a5f786debe82ae",
       "b9ffce85c7c002972e29bfa133cd79f1e95ada0d9e6b860908a2bf870d5b03fe",
       "c90ec037eee522504d1d369fe19c78b73236acbf0cefe8719b298eae28b171b7"});
}

// Live reshuffles every 12 s: in-flight transactions are force-aborted at
// each cutover and re-ingested into the new lattice.  Two shards (16 nodes,
// as in test_reconfig) because every beacon round verifies one VRF
// contribution per node, which dominates the run's wall time.
void expect_epoch_golden(SystemKind kind, const GoldenDigests& want) {
  RunConfig cfg = golden_run(kind);
  cfg.num_shards = 2;
  cfg.epoch_interval = 12 * kSecond;
  const RunResult r = run_experiment(cfg);
  const telemetry::Counter* transitions =
      r.telemetry->registry.find_counter("epoch.transitions");
  ASSERT_NE(transitions, nullptr);
  EXPECT_GE(transitions->value(), 1u);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, r.stats.submitted);
  expect_digests(r, want);
}

TEST(GoldenDigests, JengaEpochReshuffles) {
  expect_epoch_golden(SystemKind::kJenga,
                      {"cf036ea62f42731f6c42d8d98bf16b84ec27c7dd0664272cac8da74cfce05252",
                       "b318579339f6afcf4e6c688ce1e31a595773e55468e704d06bc2705aa13bbed8",
                       "5900dfdd6126e26eefbfa70531c2b4429af40d3d69548704834e9a7b5605badb"});
}

TEST(GoldenDigests, JengaNoLatticeEpochReshuffles) {
  expect_epoch_golden(SystemKind::kJengaNoLattice,
                      {"311871b7d0909bdab7e7b86a9c32b098539c8563fa273980c9fa4ec78fcaebf8",
                       "b318579339f6afcf4e6c688ce1e31a595773e55468e704d06bc2705aa13bbed8",
                       "5900dfdd6126e26eefbfa70531c2b4429af40d3d69548704834e9a7b5605badb"});
}

}  // namespace
}  // namespace jenga::harness
