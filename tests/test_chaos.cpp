// Chaos harness: scripted fault plans (FaultInjector) driving the full Jenga
// system through adversarial schedules, with the post-run invariant audit as
// the safety verdict.  The headline scenario is the acceptance bar from the
// fault-injection issue: 10% message drop, a 20-second partition window, and
// floor(k/3)-1 Byzantine nodes per shard, after which >= 90% of transactions
// must have committed and every invariant must hold.
#include <gtest/gtest.h>

#include <memory>

#include "core/jenga_system.hpp"
#include "harness/genesis.hpp"
#include "security/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace jenga::security {
namespace {

using core::JengaConfig;
using core::JengaSystem;

struct ChaosFixture {
  explicit ChaosFixture(JengaConfig cfg, std::uint64_t workload_seed = 7) {
    workload::TraceConfig tc;
    tc.num_contracts = 150;
    tc.num_accounts = 200;
    tc.max_contracts_per_tx = 4;
    tc.max_steps = 8;
    gen = std::make_unique<workload::TraceGenerator>(tc, Rng(workload_seed));
    net = std::make_unique<sim::Network>(sim, sim::NetConfig{}, Rng(cfg.seed));
    system = std::make_unique<JengaSystem>(sim, *net, telemetry, cfg, harness::make_genesis(*gen));
    injector = std::make_unique<FaultInjector>(sim, *net, *system);
    initial_balance = system->total_account_balance();
    system->start();
  }

  void submit_workload(int n, SimTime spacing) {
    for (int i = 0; i < n; ++i) {
      sim.run_until(sim.now() + spacing);
      auto tx = std::make_shared<ledger::Transaction>(gen->contract_tx(1'000'000, sim.now()));
      system->submit(tx);
    }
  }

  sim::Simulator sim;
  telemetry::Telemetry telemetry;
  std::unique_ptr<workload::TraceGenerator> gen;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<JengaSystem> system;
  std::unique_ptr<FaultInjector> injector;
  std::uint64_t initial_balance = 0;
};

JengaConfig chaos_config() {
  JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;  // 16 nodes, quorum 5 of 8 per group
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 300 * kSecond;
  return cfg;
}

TEST(InvariantReport, VerdictAndDescription) {
  InvariantReport ok_report;
  ok_report.expected_balance = 1000;
  ok_report.actual_balance = 1000;
  EXPECT_TRUE(ok_report.ok());
  EXPECT_NE(ok_report.describe().find("(ok)"), std::string::npos);
  EXPECT_EQ(ok_report.describe().find("VIOLATION"), std::string::npos);

  InvariantReport bad = ok_report;
  bad.leaked_locks = 3;
  bad.actual_balance = 999;
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.balance_conserved());
  EXPECT_NE(bad.describe().find("VIOLATION"), std::string::npos);
}

TEST(Chaos, CleanRunPassesInvariantAudit) {
  ChaosFixture f(chaos_config());
  EXPECT_EQ(f.injector->events_armed(), 0u);
  f.submit_workload(10, kSecond);
  f.sim.run_until(300 * kSecond);
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(f.system->stats().committed + f.system->stats().aborted, 10u);
}

TEST(Chaos, AcceptanceScenarioNinetyPercentCommitUnderFaults) {
  JengaConfig cfg = chaos_config();
  ChaosFixture f(cfg);
  const auto& lat = f.system->lattice();
  const auto shard0 = lat.shard_members(ShardId{0});
  const auto shard1 = lat.shard_members(ShardId{1});

  FaultPlan plan;
  // 10% drop on every node-to-node link from the start of the run.
  sim::LinkFaults lossy;
  lossy.drop_rate = 0.10;
  plan.ramps.push_back({0, lossy});
  // floor(k/3)-1 = 1 Byzantine node per shard: an equivocating proposer in
  // shard 0 and a silent node in shard 1.
  plan.byzantine.push_back({shard0[1], consensus::ByzantineMode::kEquivocator});
  plan.byzantine.push_back({shard1[1], consensus::ByzantineMode::kSilent});
  // One 20-second partition window isolating a node from each shard (they
  // can reach each other but not the remaining 14 nodes).
  plan.partitions.push_back({30 * kSecond, 50 * kSecond, {shard0[2], shard1[2]}, 1});
  f.injector->arm(plan);
  EXPECT_EQ(f.injector->events_armed(), plan.event_count());

  f.submit_workload(30, kSecond);
  f.sim.run_until(600 * kSecond);


  const auto& st = f.system->stats();
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(st.committed + st.aborted, 30u) << "limbo txs: " << f.system->in_flight();
  EXPECT_GE(st.committed, 27u) << "committed=" << st.committed << " aborted=" << st.aborted;
  // The faults actually fired: drops happened and both partitioned nodes
  // were cut off for the window.
  EXPECT_GT(f.net->fault_stats().dropped, 0u);
  EXPECT_GT(f.net->fault_stats().partition_blocked, 0u);
}

TEST(Chaos, CrashRecoverySyncsAndCommits) {
  JengaConfig cfg = chaos_config();
  ChaosFixture f(cfg);
  const NodeId victim = f.system->lattice().shard_members(ShardId{0})[3];

  FaultPlan plan;
  plan.crashes.push_back({victim, 5 * kSecond, 60 * kSecond});
  f.injector->arm(plan);

  f.submit_workload(10, kSecond);
  f.sim.run_until(300 * kSecond);
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(f.system->stats().committed + f.system->stats().aborted, 10u);
  // Recovery used the state-sync path, not a silent resume.
  EXPECT_GT(f.system->shard_replica(victim).stats().sync_heights_applied, 0u);
}

TEST(Chaos, LeaderAssassinationRecoversViaViewChange) {
  JengaConfig cfg = chaos_config();
  ChaosFixture f(cfg);

  FaultPlan plan;
  // Kill whichever node leads shard 0 two seconds in; it stays down.
  plan.assassinations.push_back({ShardId{0}, 2 * kSecond, 0});
  f.injector->arm(plan);

  f.submit_workload(10, kSecond);
  f.sim.run_until(300 * kSecond);
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(f.system->stats().committed + f.system->stats().aborted, 10u);
}

TEST(Chaos, StorageFaultsWithProofVerifiedRecovery) {
  // Durable per-shard state under a hostile disk AND hostile peers: fsyncs
  // silently dropped, a latent bit flip in the WAL, a torn write — then
  // crashed nodes come back, refuse their corrupt durable image, and re-sync
  // over Merkle proofs.  The first peer each recovering node asks is
  // Byzantine, so tampered snapshots must be rejected before an honest peer
  // completes the sync.
  JengaConfig cfg = chaos_config();
  cfg.storage_backend = core::StorageBackendKind::kDurable;
  cfg.storage_snapshot_interval = 8;
  cfg.model_state_sync = true;
  ChaosFixture f(cfg);
  const auto shard0 = f.system->lattice().shard_members(ShardId{0});
  const auto shard1 = f.system->lattice().shard_members(ShardId{1});

  FaultPlan plan;
  // Member [0] serves state sync first (member order), so a Byzantine [0]
  // guarantees the proof-rejection path is exercised.
  plan.byzantine.push_back({shard0[0], consensus::ByzantineMode::kSilent});
  plan.byzantine.push_back({shard1[0], consensus::ByzantineMode::kSilent});
  plan.crashes.push_back({shard0[3], 10 * kSecond, 60 * kSecond});
  plan.crashes.push_back({shard1[4], 15 * kSecond, 80 * kSecond});
  // Shard 0's drive: stops persisting at 25s (until 70s) and picks up a
  // latent flip at 40s — so the image read at the 60s recovery is both stale
  // and corrupt.  Shard 1's drive tears a WAL append mid-record at 20s.
  plan.storage.push_back(
      {ShardId{0}, 25 * kSecond, StorageFaultKind::kDroppedFsync, 0, 45 * kSecond});
  plan.storage.push_back({ShardId{0}, 40 * kSecond, StorageFaultKind::kBitFlip, 0xBADC0DE, 0});
  plan.storage.push_back({ShardId{1}, 20 * kSecond, StorageFaultKind::kTornWrite, 7, 0});
  f.injector->arm(plan);
  EXPECT_EQ(f.injector->events_armed(), plan.event_count());

  f.submit_workload(30, kSecond);
  f.sim.run_until(600 * kSecond);

  const auto& st = f.system->stats();
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(st.committed + st.aborted, 30u) << "limbo txs: " << f.system->in_flight();

  // The storage faults actually hit the disks...
  ASSERT_NE(f.system->storage_env(ShardId{0}), nullptr);
  EXPECT_GE(f.system->storage_env(ShardId{0})->fault_stats().dropped_fsyncs, 1u);
  EXPECT_EQ(f.system->storage_env(ShardId{0})->fault_stats().bit_flips, 1u);
  EXPECT_EQ(f.system->storage_env(ShardId{1})->fault_stats().torn_writes, 1u);
  // ...both recoveries ran the sync path, the Byzantine first responders'
  // tampered snapshots were rejected, and every node still landed on its
  // group's root (also part of report.ok()).
  const telemetry::MetricsRegistry& reg = f.telemetry.registry;
  EXPECT_GE(reg.counter_value("state_sync.syncs"), 2u);
  EXPECT_GE(reg.counter_value("state_sync.proof_rejections"), 1u);
  EXPECT_GT(reg.counter_value("state_sync.keys_verified"), 0u);
  EXPECT_GT(reg.counter_value("state_sync.bytes_synced"), 0u);
  EXPECT_EQ(f.system->state_sync_root_mismatches(), 0u);
}

TEST(Chaos, SameFaultPlanAndSeedIsDeterministic) {
  TxStats runs[2];
  sim::TrafficStats traffic[2];
  sim::FaultStats faults[2];
  for (int round = 0; round < 2; ++round) {
    JengaConfig cfg = chaos_config();
    ChaosFixture f(cfg);
    const auto shard0 = f.system->lattice().shard_members(ShardId{0});
    const auto shard1 = f.system->lattice().shard_members(ShardId{1});

    FaultPlan plan;
    sim::LinkFaults lossy;
    lossy.drop_rate = 0.15;
    lossy.duplicate_rate = 0.05;
    lossy.extra_delay_max = 40 * kMillisecond;
    plan.ramps.push_back({0, lossy});
    plan.byzantine.push_back({shard1[1], consensus::ByzantineMode::kSilent});
    plan.partitions.push_back({20 * kSecond, 35 * kSecond, {shard0[2]}, 1});
    plan.crashes.push_back({shard0[3], 10 * kSecond, 40 * kSecond});
    f.injector->arm(plan);

    f.submit_workload(12, kSecond);
    f.sim.run_until(400 * kSecond);
    runs[round] = f.system->stats();
    traffic[round] = f.net->stats();
    faults[round] = f.net->fault_stats();
  }
  EXPECT_EQ(runs[0].committed, runs[1].committed);
  EXPECT_EQ(runs[0].aborted, runs[1].aborted);
  EXPECT_EQ(runs[0].fees_charged, runs[1].fees_charged);
  EXPECT_EQ(runs[0].total_commit_latency, runs[1].total_commit_latency);
  EXPECT_EQ(runs[0].last_commit_time, runs[1].last_commit_time);
  EXPECT_EQ(runs[0].commit_latencies, runs[1].commit_latencies);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(traffic[0].messages[c], traffic[1].messages[c]);
    EXPECT_EQ(traffic[0].bytes[c], traffic[1].bytes[c]);
  }
  EXPECT_EQ(faults[0].dropped, faults[1].dropped);
  EXPECT_EQ(faults[0].duplicated, faults[1].duplicated);
  EXPECT_EQ(faults[0].partition_blocked, faults[1].partition_blocked);
  EXPECT_EQ(faults[0].down_blocked, faults[1].down_blocked);
}

}  // namespace
}  // namespace jenga::security
