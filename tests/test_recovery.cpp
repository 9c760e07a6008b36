// Stuck-2PC recovery ladder (core/recovery.hpp, DESIGN.md §14): policy unit
// tests, an end-to-end scenario where a partition wedges cross-shard transfer
// rounds and the ladder heals every one of them, the observe-only contrast
// (recovery disabled => the wedge is permanent), gray fault plans, and the
// bit-identity contract: self-healing on vs off changes nothing in a clean
// run, on Jenga and the baselines, across exec worker counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/jenga_system.hpp"
#include "core/recovery.hpp"
#include "harness/genesis.hpp"
#include "harness/runner.hpp"
#include "security/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace jenga {
namespace {

using core::JengaConfig;
using core::JengaSystem;
using core::LadderAction;
using core::LadderState;
using core::RecoveryConfig;
using security::check_invariants;
using security::FaultInjector;
using security::FaultPlan;
using security::GrayFault;
using security::GrayFaultKind;
using security::InvariantReport;

TEST(RecoveryLadder, ProbesThenEscalatesWithBackoff) {
  RecoveryConfig cfg;
  cfg.max_rerequests = 2;
  cfg.backoff = 10 * kSecond;
  LadderState st;

  // First action fires the moment the entry is flagged.
  EXPECT_EQ(ladder_next(cfg, st, 100 * kSecond), LadderAction::kProbe);
  // Backoff gates the next rung.
  EXPECT_EQ(ladder_next(cfg, st, 105 * kSecond), LadderAction::kWait);
  EXPECT_EQ(ladder_next(cfg, st, 110 * kSecond), LadderAction::kProbe);
  // Re-requests exhausted: escalate to the coordinated force-abort, and keep
  // re-asking every backoff until a reply settles the round.
  EXPECT_EQ(ladder_next(cfg, st, 120 * kSecond), LadderAction::kAbortQuery);
  EXPECT_EQ(ladder_next(cfg, st, 125 * kSecond), LadderAction::kWait);
  EXPECT_EQ(ladder_next(cfg, st, 130 * kSecond), LadderAction::kAbortQuery);
}

TEST(RecoveryLadder, DisabledNeverActs) {
  RecoveryConfig cfg;
  cfg.enabled = false;
  LadderState st;
  EXPECT_EQ(ladder_next(cfg, st, 100 * kSecond), LadderAction::kWait);
  EXPECT_EQ(ladder_next(cfg, st, 1000 * kSecond), LadderAction::kWait);
  EXPECT_EQ(st.rung, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end fixture (mirrors test_chaos's ChaosFixture, transfer workload)
// ---------------------------------------------------------------------------

struct RecoveryFixture {
  explicit RecoveryFixture(JengaConfig cfg, std::uint64_t workload_seed = 7) {
    workload::TraceConfig tc;
    tc.num_contracts = 150;
    tc.num_accounts = 200;
    gen = std::make_unique<workload::TraceGenerator>(tc, Rng(workload_seed));
    net = std::make_unique<sim::Network>(sim, sim::NetConfig{}, Rng(cfg.seed));
    system = std::make_unique<JengaSystem>(sim, *net, telemetry, cfg, harness::make_genesis(*gen));
    injector = std::make_unique<FaultInjector>(sim, *net, *system);
    initial_balance = system->total_account_balance();
    system->start();
  }

  void submit_transfers(int n, SimTime spacing) {
    for (int i = 0; i < n; ++i) {
      sim.run_until(sim.now() + spacing);
      auto tx = std::make_shared<ledger::Transaction>(gen->transfer_tx(sim.now()));
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

JengaConfig recovery_config() {
  JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 600 * kSecond;
  cfg.twopc_stuck_timeout = 10 * kSecond;
  cfg.recovery.backoff = 8 * kSecond;
  return cfg;
}

/// A partition swallows the one-shot 2PC legs of every transfer in flight
/// across it.  After it heals, the watchdog's ladder must settle every
/// flagged round — nothing stays wedged, and no money leaks either way.
TEST(Recovery, PartitionWedgedRoundsHealViaLadder) {
  RecoveryFixture f(recovery_config());
  const auto members = f.system->lattice().shard_members(ShardId{1});
  const std::vector<NodeId> shard1(members.begin(), members.end());

  FaultPlan plan;
  plan.partitions.push_back({2 * kSecond, 45 * kSecond, shard1, 1});
  f.injector->arm(plan);

  f.submit_transfers(16, 500 * kMillisecond);
  f.sim.run_until(200 * kSecond);

  const auto& st = f.system->stats();
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(st.committed + st.aborted, 16u) << "limbo txs: " << f.system->in_flight();
  // Rounds really were wedged (prepares/acks died in the partition window)...
  EXPECT_GT(f.system->twopc_stuck_total(), 0u);
  EXPECT_GT(f.net->fault_stats().partition_blocked, 0u);
  // ...and every one of them was settled by the ladder, not by luck.
  EXPECT_EQ(f.system->twopc_stuck_now(), 0u);
  const telemetry::MetricsRegistry& reg = f.telemetry.registry;
  EXPECT_GT(reg.counter_value("recovery.probes") + reg.counter_value("recovery.abort_queries"), 0u);
  EXPECT_GT(reg.counter_value("recovery.resolved") + reg.counter_value("recovery.refunds"), 0u);
}

/// The same schedule with the ladder disabled: the wedge is permanent.  This
/// is the liveness hole the recovery subsystem exists to close.
TEST(Recovery, ObserveOnlyLeavesWedgedRoundsStuck) {
  JengaConfig cfg = recovery_config();
  cfg.recovery.enabled = false;
  RecoveryFixture f(cfg);
  const auto members = f.system->lattice().shard_members(ShardId{1});
  const std::vector<NodeId> shard1(members.begin(), members.end());

  FaultPlan plan;
  plan.partitions.push_back({2 * kSecond, 45 * kSecond, shard1, 1});
  f.injector->arm(plan);

  f.submit_transfers(16, 500 * kMillisecond);
  f.sim.run_until(200 * kSecond);

  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(f.system->twopc_stuck_now(), 0u);
  EXPECT_GT(f.system->in_flight(), 0u);
  EXPECT_EQ(f.telemetry.registry.counter_value("recovery.probes"), 0u);
  EXPECT_EQ(f.telemetry.registry.counter_value("recovery.abort_queries"), 0u);
}

/// Gray degradations (lossy NIC, slow node, degraded link) never break
/// safety: the run completes, balances conserve, and the scripted windows
/// actually fired (inbound losses were charged to the gray counter).
TEST(Recovery, GrayFaultWindowsCompleteAndConserve) {
  RecoveryFixture f(recovery_config());
  const auto s0 = f.system->lattice().shard_members(ShardId{0});
  const auto s1 = f.system->lattice().shard_members(ShardId{1});

  FaultPlan plan;
  GrayFault lossy;
  lossy.kind = GrayFaultKind::kLossyNic;
  lossy.at = 2 * kSecond;
  lossy.duration = 23 * kSecond;
  lossy.node = s0[1];
  lossy.drop_rate = 0.4;
  plan.gray.push_back(lossy);
  GrayFault slow;
  slow.kind = GrayFaultKind::kSlowNode;
  slow.at = 2 * kSecond;
  slow.duration = 23 * kSecond;
  slow.node = s1[1];
  slow.serialize_factor = 8.0;
  slow.proc_delay = 2 * kMillisecond;
  plan.gray.push_back(slow);
  GrayFault link;
  link.kind = GrayFaultKind::kLinkDegrade;
  link.at = 2 * kSecond;
  link.duration = 23 * kSecond;
  link.node = s0[2];
  link.peer = s1[2];
  link.extra_delay = 50 * kMillisecond;
  plan.gray.push_back(link);
  f.injector->arm(plan);
  EXPECT_EQ(f.injector->events_armed(), plan.event_count());

  f.submit_transfers(16, 500 * kMillisecond);
  f.sim.run_until(300 * kSecond);

  const auto& st = f.system->stats();
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(st.committed + st.aborted, 16u) << "limbo txs: " << f.system->in_flight();
  EXPECT_GT(f.net->fault_stats().gray_dropped, 0u);
  // The lossy NIC wedged rounds that the ladder then saw finalize; the gauge
  // holds the time of the last one, after the windows opened.
  const telemetry::MetricsRegistry& reg = f.telemetry.registry;
  EXPECT_GT(reg.counter_value("recovery.resolved"), 0u);
  const std::int64_t last_resolved = reg.gauge_value("recovery.last_resolved_us");
  EXPECT_GT(last_resolved, 2 * kSecond);
  EXPECT_LE(last_resolved, f.sim.now());
}

// ---------------------------------------------------------------------------
// Runner-level wiring
// ---------------------------------------------------------------------------

harness::RunConfig runner_config(harness::SystemKind kind, std::uint32_t workers,
                                 bool self_healing) {
  harness::RunConfig rc;
  rc.kind = kind;
  rc.num_shards = 2;
  rc.nodes_per_shard = 8;
  rc.seed = 5;
  rc.contract_txs = 30;
  rc.transfer_txs = 15;
  rc.arrival.rate_tps = 4.5;  // arrivals over about 10 s
  rc.max_sim_time = 900 * kSecond;
  rc.mempool.ttl = rc.max_sim_time;
  rc.exec_workers = workers;
  rc.self_healing = self_healing;
  return rc;
}

/// With self_healing on and no faults, every digest and the full metric
/// registry are bit-identical to a self_healing-off run — on Jenga and the
/// baselines, serial and parallel exec.  A clean run builds no detector.
TEST(Recovery, SelfHealingToggleIsBitIdenticalOnCleanRuns) {
  const harness::SystemKind kinds[] = {
      harness::SystemKind::kJenga,
      harness::SystemKind::kCxFunc,
      harness::SystemKind::kSingleShard,
      harness::SystemKind::kPyramid,
  };
  for (const auto kind : kinds) {
    for (const std::uint32_t workers : {1u, 4u}) {
      const auto off = harness::run_experiment(runner_config(kind, workers, false));
      const auto on = harness::run_experiment(runner_config(kind, workers, true));
      const std::string label = std::string(harness::system_name(kind)) +
                                " workers=" + std::to_string(workers);
      EXPECT_EQ(off.ledger_digest, on.ledger_digest) << label;
      EXPECT_EQ(off.state_digest, on.state_digest) << label;
      EXPECT_EQ(off.telemetry->registry.to_json(), on.telemetry->registry.to_json())
          << label;
      EXPECT_EQ(on.detector.samples, 0u) << label;
      EXPECT_EQ(on.detector.suspicions, 0u) << label;
    }
  }
}

/// A scripted gray plan arms the detector through the runner: sampling is
/// live, the windows fire, and the run still completes and conserves.
TEST(Recovery, RunnerArmsDetectorUnderGrayPlan) {
  harness::RunConfig rc = runner_config(harness::SystemKind::kJenga, 1, true);
  GrayFault lossy;
  lossy.kind = GrayFaultKind::kLossyNic;
  lossy.at = 2 * kSecond;
  lossy.duration = 18 * kSecond;
  lossy.node = NodeId{1};
  lossy.drop_rate = 0.3;
  rc.faults_plan.gray.push_back(lossy);
  GrayFault slow;
  slow.kind = GrayFaultKind::kSlowNode;
  slow.at = 2 * kSecond;
  slow.duration = 18 * kSecond;
  slow.node = NodeId{9};
  slow.serialize_factor = 6.0;
  slow.proc_delay = kMillisecond;
  rc.faults_plan.gray.push_back(slow);

  const auto result = harness::run_experiment(rc);
  EXPECT_EQ(result.stats.committed + result.stats.aborted, 45u);
  EXPECT_GT(result.detector.samples, 0u);
  EXPECT_GT(result.faults.gray_dropped, 0u);
}

}  // namespace
}  // namespace jenga
