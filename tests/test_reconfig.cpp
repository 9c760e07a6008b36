// Live epoch reconfiguration: beacon-driven lattice reshuffles under traffic.
//
// The acceptance scenario drives >= 3 epoch transitions under message drops,
// a Byzantine node, and boundary churn, and requires the run to end with zero
// invariant violations: no leaked locks, balance conserved, no divergent
// decides, and every submitted transaction terminal (committed or aborted).
// Determinism must survive reconfiguration too: the same seed produces a
// bit-identical ledger digest for any exec worker count, transitions and all.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>

#include "core/jenga_system.hpp"
#include "harness/genesis.hpp"
#include "harness/runner.hpp"
#include "ledger/placement.hpp"
#include "security/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace jenga::security {
namespace {

using core::JengaConfig;
using core::JengaSystem;

struct ReconfigFixture {
  explicit ReconfigFixture(JengaConfig cfg, std::uint64_t workload_seed = 7) {
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

/// Sanitizer CI sets JENGA_RECONFIG_QUICK=1: the non-acceptance tests run a
/// shorter horizon (the chaos acceptance and determinism tests always run in
/// full — they are the bar this subsystem is held to).
bool quick_mode() {
  const char* env = std::getenv("JENGA_RECONFIG_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

JengaConfig reconfig_config() {
  JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;  // 16 nodes; beacon quorum 2N/3+1 = 11
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 60 * kSecond;
  cfg.epoch_interval = 60 * kSecond;
  cfg.epoch_drain_window = 10 * kSecond;
  cfg.epoch_beacon_lead = 20 * kSecond;
  return cfg;
}

void expect_clean_transitions(core::Pipeline pipeline) {
  JengaConfig cfg = reconfig_config();
  cfg.pipeline = pipeline;
  ReconfigFixture f(cfg);
  f.submit_workload(40, 3 * kSecond);  // spans the first two cutovers
  f.sim.run_until((quick_mode() ? 280 : 400) * kSecond);

  EXPECT_GE(f.system->current_epoch(), 3u);
  const telemetry::MetricsRegistry& reg = f.telemetry.registry;
  EXPECT_EQ(reg.counter_value("epoch.transitions"), f.system->current_epoch());
  EXPECT_FALSE(f.system->draining());
  EXPECT_GT(reg.counter_value("epoch.contributions_accepted"), 0u);

  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.epoch_transitions, f.system->current_epoch());
  EXPECT_EQ(f.system->stats().committed + f.system->stats().aborted, 40u)
      << "limbo txs: " << f.system->in_flight();
}

TEST(Reconfig, CleanTransitionsPreserveInvariants) {
  expect_clean_transitions(core::Pipeline::kFull);
}

// The Fig. 7 ablations relay grants, results and (w/o NWLS) step
// continuations across the boundary too; each is dropped as stale only when
// it was decided in an earlier epoch.
TEST(Reconfig, CleanTransitionsWithoutLattice) {
  expect_clean_transitions(core::Pipeline::kNoLattice);
}

TEST(Reconfig, CleanTransitionsWithoutGlobalLogic) {
  expect_clean_transitions(core::Pipeline::kNoGlobalLogic);
}

// The issue's acceptance bar: >= 3 transitions under message drops, a
// Byzantine node, and node churn at epoch boundaries, with a clean audit.
TEST(Reconfig, ChaosAcceptanceSurvivesDropsByzantineAndChurn) {
  JengaConfig cfg = reconfig_config();
  ReconfigFixture f(cfg);
  const auto shard0 = f.system->lattice().shard_members(ShardId{0});
  const auto shard1 = f.system->lattice().shard_members(ShardId{1});

  FaultPlan plan;
  sim::LinkFaults lossy;
  lossy.drop_rate = 0.05;
  plan.ramps.push_back({0, lossy});
  plan.byzantine.push_back({shard1[1], consensus::ByzantineMode::kSilent});
  // One node departs exactly at the first cutover and rejoins at the second.
  plan.epoch_churn.push_back({1, {shard0[4]}, {}});
  plan.epoch_churn.push_back({2, {}, {shard0[4]}});
  f.injector->arm(plan);
  EXPECT_EQ(f.injector->events_armed(), plan.event_count());

  f.submit_workload(50, 3 * kSecond);
  f.sim.run_until(500 * kSecond);

  EXPECT_GE(f.system->current_epoch(), 3u);
  EXPECT_EQ(f.telemetry.registry.counter_value("epoch.transitions"),
            f.system->current_epoch());
  EXPECT_EQ(f.system->boundary_lock_leaks(), 0u);
  EXPECT_EQ(f.system->boundary_balance_mismatches(), 0u);

  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.epoch_transitions, f.system->current_epoch());
  const auto& st = f.system->stats();
  EXPECT_EQ(st.committed + st.aborted, 50u) << "limbo txs: " << f.system->in_flight();
  EXPECT_GT(f.net->fault_stats().dropped, 0u);
  EXPECT_GT(f.net->fault_stats().down_blocked, 0u);  // the churned node was really gone
}

// Satellite: requeued transactions must not double-count submissions or lose
// their submit timestamps (which would inflate latency percentiles).
TEST(Reconfig, RequeueAccountingStaysConsistent) {
  JengaConfig cfg = reconfig_config();
  cfg.epoch_interval = 40 * kSecond;  // drain window 30s..40s
  ReconfigFixture f(cfg);
  f.submit_workload(50, kSecond);  // injection continues through the drain
  f.sim.run_until((quick_mode() ? 250 : 400) * kSecond);

  EXPECT_GE(f.system->current_epoch(), 1u);
  const telemetry::MetricsRegistry& reg = f.telemetry.registry;
  EXPECT_EQ(reg.counter_value("epoch.transitions"), f.system->current_epoch());
  // Drain-window submissions crossed the boundary.
  EXPECT_GT(reg.counter_value("epoch.txs_requeued"), 0u);

  const auto& st = f.system->stats();
  EXPECT_EQ(st.submitted, 50u);  // requeues are not re-submissions
  EXPECT_EQ(st.committed + st.aborted, 50u) << "limbo txs: " << f.system->in_flight();
  EXPECT_EQ(st.commit_latencies.size(), st.committed);
  for (const SimTime lat : st.commit_latencies) {
    EXPECT_GE(lat, 0);                // submit timestamps survived the requeue
    EXPECT_LE(lat, f.sim.now());      // no bogus epoch-sized latencies
  }
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.epoch_transitions, f.system->current_epoch());
}

// Satellite: a channel-side gather that times out must fan aborts back to the
// granting shards so their Phase-1 locks release.  The transaction's copy to
// the execution channel is swallowed (its contact node is down), so the
// channel only ever sees grants — the entry can never become runnable.
TEST(Reconfig, GatherExpiryReleasesShardLocks) {
  JengaConfig cfg = reconfig_config();
  cfg.epoch_interval = 0;  // isolate the expiry path from reconfiguration
  cfg.pending_timeout = 30 * kSecond;
  ReconfigFixture f(cfg);

  auto tx = std::make_shared<ledger::Transaction>(f.gen->contract_tx(1'000'000, f.sim.now()));
  const ChannelId ch = ledger::channel_of_tx(tx->hash, cfg.num_shards);
  const auto& members = f.system->lattice().channel_members(ch);
  // submit() pre-increments the round-robin contact counter, so the first
  // submission addresses members[1].
  f.net->set_node_down(members[1 % members.size()], true);
  f.system->submit(tx);

  // Before the timeout: Phase 1 granted, so the shards really hold locks.
  f.sim.run_until(15 * kSecond);
  EXPECT_GT(f.system->held_locks(), 0u);
  EXPECT_EQ(f.system->in_flight(), 1u);

  f.sim.run_until(200 * kSecond);
  EXPECT_EQ(f.system->held_locks(), 0u);   // the regression: grants were locked forever
  EXPECT_EQ(f.system->in_flight(), 0u);
  EXPECT_GE(f.system->stats().aborted, 1u);
  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.epoch_transitions, f.system->current_epoch());
}

// Satellite: a node that crashes in one epoch and recovers after a reshuffle
// must state-sync into its *new* group's chain, not resume the old one.
TEST(Reconfig, RecoveredNodeSyncsIntoNewGroup) {
  JengaConfig cfg = reconfig_config();
  ReconfigFixture f(cfg);
  const NodeId victim = f.system->lattice().shard_members(ShardId{0})[3];

  FaultPlan plan;
  // Crash before the first cutover (~60s), recover mid-epoch-1 while the
  // requeued boundary traffic is still deciding heights in the new groups.
  plan.crashes.push_back({victim, 5 * kSecond, 100 * kSecond});
  f.injector->arm(plan);

  f.submit_workload(80, kSecond);
  // Each reshuffle replaces the victim's replica (and its stats), so sample
  // the post-recovery replica as the run progresses and keep the maxima.
  std::uint64_t sync_requests = 0, sync_applied = 0;
  const SimTime end = (quick_mode() ? 300 : 450) * kSecond;
  for (SimTime t = 105 * kSecond; t <= end; t += 5 * kSecond) {
    f.sim.run_until(t);
    const auto& rs = f.system->shard_replica(victim).stats();
    sync_requests = std::max(sync_requests, rs.sync_requests_sent);
    sync_applied = std::max(sync_applied, rs.sync_heights_applied);
  }

  EXPECT_GE(f.system->current_epoch(), 1u);
  // Recovery hit the victim's *post-reshuffle* replica and used the
  // state-sync path to catch up on the new group's chain.
  EXPECT_GT(sync_requests, 0u);
  EXPECT_GT(sync_applied, 0u);

  const InvariantReport report = check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.epoch_transitions, f.system->current_epoch());
  EXPECT_EQ(f.system->stats().committed + f.system->stats().aborted, 80u)
      << "limbo txs: " << f.system->in_flight();
}

// Seeded determinism across transitions: same seed, different exec worker
// counts -> bit-identical ledger digest (and identical transition counts).
TEST(Reconfig, DeterministicLedgerAcrossExecWorkers) {
  harness::RunResult runs[2];
  const std::uint32_t workers[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    harness::RunConfig rc;
    rc.kind = harness::SystemKind::kJenga;
    rc.num_shards = 2;
    rc.nodes_per_shard = 8;
    rc.seed = 11;
    rc.contract_txs = 120;
    rc.arrival.rate_tps = 1;  // arrivals over about 120 s
    rc.max_sim_time = 500 * kSecond;
    rc.exec_workers = workers[i];
    rc.epoch_interval = 50 * kSecond;
    rc.epoch_beacon_lead = 20 * kSecond;
    rc.epoch_drain_window = 10 * kSecond;
    runs[i] = harness::run_experiment(rc);
  }
  auto counter = [&runs](int i, const char* name) {
    return runs[i].telemetry->registry.counter_value(name);
  };
  EXPECT_GE(counter(0, "epoch.transitions"), 1u);
  EXPECT_EQ(counter(0, "epoch.transitions"), counter(1, "epoch.transitions"));
  EXPECT_EQ(counter(0, "epoch.txs_requeued"), counter(1, "epoch.txs_requeued"));
  EXPECT_EQ(runs[0].stats.committed, runs[1].stats.committed);
  EXPECT_EQ(runs[0].stats.aborted, runs[1].stats.aborted);
  EXPECT_EQ(runs[0].ledger_digest, runs[1].ledger_digest);
}

}  // namespace
}  // namespace jenga::security
