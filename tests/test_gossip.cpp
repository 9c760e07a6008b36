// Dissemination subsystem (src/gossip/, DESIGN.md §12): push-pull rumor
// mongering with dup-drop, per-(sender,group) relay batching, and the
// system-level properties the subsystem promises — certified outcomes reach
// every honest member under loss without sender re-gossip, and determinism
// witnesses hold across transports and exec worker counts.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/jenga_system.hpp"
#include "gossip/batch.hpp"
#include "gossip/rumor.hpp"
#include "harness/genesis.hpp"
#include "harness/runner.hpp"
#include "security/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace jenga {
namespace {

struct TagPayload : sim::Payload {
  explicit TagPayload(int v) : value(v) {}
  int value;
};

// ---------------------------------------------------------------------------
// RumorMesh unit tests: one mesh over one simulated network, handlers count
// the inner deliveries (transport messages are consumed by the mesh itself).

struct MeshHarness {
  explicit MeshHarness(std::uint32_t n, sim::NetConfig cfg = {}, std::uint64_t seed = 7)
      : net(sim, cfg, Rng(seed)),
        mesh(net, gossip::RumorConfig{}, Rng(seed ^ 0x52554D52ULL)) {
    net.set_rumor_mesh(&mesh);
    counts.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      group.push_back(NodeId{i});
      net.register_node(NodeId{i}, [this, i](const sim::Message&) { ++counts[i]; });
    }
  }

  static sim::Message inner(int tag) {
    return sim::make_message<TagPayload>(sim::MsgType::kClientTx, NodeId{0}, 600, tag);
  }

  sim::Simulator sim;
  sim::Network net;
  gossip::RumorMesh mesh;
  std::vector<NodeId> group;
  std::vector<int> counts;
};

TEST(RumorMesh, DupDropIdempotentAcrossRelays) {
  MeshHarness h(16);
  const std::uint64_t id = sim::rumor_id_mix(0xA1, 1, 2, 3);
  // Three subgroup relays start the same certified batch; a fourth call from
  // an already-spreading relay is a no-op.
  h.mesh.broadcast(NodeId{0}, h.group, id, MeshHarness::inner(1), sim::TrafficClass::kIntraShard);
  h.mesh.broadcast(NodeId{1}, h.group, id, MeshHarness::inner(1), sim::TrafficClass::kIntraShard);
  h.mesh.broadcast(NodeId{2}, h.group, id, MeshHarness::inner(1), sim::TrafficClass::kIntraShard);
  h.mesh.broadcast(NodeId{0}, h.group, id, MeshHarness::inner(1), sim::TrafficClass::kIntraShard);
  h.sim.run_until_idle();

  const auto& st = h.mesh.stats();
  EXPECT_EQ(st.rumors_started, 3u);  // the repeat from node 0 merged
  // Relays hold their own copy without self-delivery; everyone else gets the
  // inner message exactly once no matter how many spreads merged.
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(h.counts[i], i < 3 ? 0 : 1) << "node " << i;
  }
  EXPECT_EQ(st.delivered, 13u);
  EXPECT_GT(st.dups_dropped, 0u);  // merged spreads collided somewhere
  EXPECT_EQ(st.covered_rumors, 1u);
}

TEST(RumorMesh, LosslessCoverageWithinPushBudget) {
  MeshHarness h(32);
  h.mesh.broadcast(NodeId{0}, h.group, 0xBEEF, MeshHarness::inner(1),
                   sim::TrafficClass::kIntraShard);
  h.sim.run_until_idle();

  const auto& st = h.mesh.stats();
  EXPECT_EQ(st.covered_rumors, 1u);
  EXPECT_EQ(st.delivered, 31u);
  ASSERT_EQ(st.coverage_rounds.size(), 1u);
  // Push budget B = ceil(log2 31) + 2 = 7 rounds; lossless coverage must land
  // inside the push phase (plus slack for per-hop latency), far below O(n).
  EXPECT_GE(st.coverage_rounds[0], 1u);
  EXPECT_LE(st.coverage_rounds[0], 14u);
  // Constant-fanout budget: every holder pushes at most fanout per round for
  // B rounds, plus low-rate anti-entropy pings over the retention window.
  const gossip::RumorConfig& cfg = h.mesh.config();
  const std::uint64_t push_phase = 32 * 7 * cfg.fanout;
  const std::uint64_t ping_phase =
      32 * (static_cast<std::uint64_t>(cfg.retention / cfg.round_interval) /
            cfg.anti_entropy_every + 2);
  EXPECT_LE(st.pushes_sent, push_phase + ping_phase);
}

TEST(RumorMesh, PullRepairConvergesUnderLossAndDuplication) {
  MeshHarness h(24);
  sim::LinkFaults faults;
  faults.drop_rate = 0.15;
  faults.duplicate_rate = 0.05;
  faults.extra_delay_max = 40 * kMillisecond;
  h.net.set_fault_profile(faults);

  for (int r = 0; r < 6; ++r) {
    h.sim.schedule_at(r * 200 * kMillisecond, [&h, r] {
      h.mesh.broadcast(NodeId{static_cast<std::uint32_t>(r * 4)}, h.group,
                       0xC0FFEE00u + static_cast<std::uint64_t>(r), MeshHarness::inner(r),
                       sim::TrafficClass::kIntraShard);
    });
  }
  h.sim.run_until_idle();

  const auto& st = h.mesh.stats();
  EXPECT_GT(h.net.fault_stats().dropped, 0u) << "profile never fired";
  // Every rumor reaches every member exactly once despite the losses: pushes
  // that died are repaired by digest pings + pulls, and duplicated transport
  // copies are absorbed by dup-drop.
  EXPECT_EQ(st.covered_rumors, 6u);
  EXPECT_EQ(st.delivered, 6u * 23u);
  for (std::uint32_t i = 0; i < 24; ++i) {
    EXPECT_EQ(h.counts[i], i % 4 == 0 && i / 4 < 6 ? 5 : 6) << "node " << i;
  }
}

TEST(RumorMesh, PartitionHealedWithinRetentionIsRepaired) {
  MeshHarness h(16);
  const NodeId island[] = {NodeId{12}, NodeId{13}, NodeId{14}, NodeId{15}};
  h.net.partition(island, 1);
  h.mesh.broadcast(NodeId{0}, h.group, 0xD00D, MeshHarness::inner(1),
                   sim::TrafficClass::kIntraShard);
  h.sim.run_until(3 * kSecond);
  for (std::uint32_t i = 12; i < 16; ++i) EXPECT_EQ(h.counts[i], 0) << "leaked into island";
  EXPECT_EQ(h.mesh.stats().covered_rumors, 0u);

  // Heal well inside the 30 s retention window: majority-side holders keep
  // advertising the id in anti-entropy pings, the island pulls the payload.
  h.net.heal_partitions();
  h.sim.run_until_idle();
  const auto& st = h.mesh.stats();
  EXPECT_EQ(st.covered_rumors, 1u);
  EXPECT_EQ(st.delivered, 15u);
  EXPECT_GT(st.pull_requests, 0u);
  EXPECT_GT(st.pull_responses, 0u);
  for (std::uint32_t i = 1; i < 16; ++i) EXPECT_EQ(h.counts[i], 1) << "node " << i;
}

TEST(RumorMesh, SameSeedSameSpreadUnderFaults) {
  gossip::RumorStats first;
  sim::FaultStats first_faults;
  for (int round = 0; round < 2; ++round) {
    MeshHarness h(20, sim::NetConfig{}, /*seed=*/99);
    sim::LinkFaults faults;
    faults.drop_rate = 0.2;
    faults.duplicate_rate = 0.1;
    faults.extra_delay_max = 30 * kMillisecond;
    h.net.set_fault_profile(faults);
    for (int r = 0; r < 4; ++r) {
      h.mesh.broadcast(NodeId{static_cast<std::uint32_t>(r)}, h.group,
                       0xFEED0000u + static_cast<std::uint64_t>(r), MeshHarness::inner(r),
                       sim::TrafficClass::kIntraShard);
    }
    h.sim.run_until_idle();
    if (round == 0) {
      first = h.mesh.stats();
      first_faults = h.net.fault_stats();
    } else {
      const auto& st = h.mesh.stats();
      EXPECT_EQ(st.pushes_sent, first.pushes_sent);
      EXPECT_EQ(st.pull_requests, first.pull_requests);
      EXPECT_EQ(st.pull_responses, first.pull_responses);
      EXPECT_EQ(st.dups_dropped, first.dups_dropped);
      EXPECT_EQ(st.delivered, first.delivered);
      EXPECT_EQ(st.coverage_rounds, first.coverage_rounds);
      EXPECT_EQ(h.net.fault_stats().dropped, first_faults.dropped);
    }
  }
}

// ---------------------------------------------------------------------------
// Batcher: window coalescing and co-relay frame dedup.

TEST(Batcher, CoalescesAWindowAndCoRelayFramesDedupToOneSpread) {
  sim::NetConfig cfg;
  cfg.transports[static_cast<std::size_t>(sim::BroadcastKind::kRelay)] =
      sim::Transport::kRumor;
  MeshHarness h(12, cfg);
  gossip::Batcher batcher(h.net, 100 * kMillisecond);

  // Two co-deciding relays enqueue the same four certified items inside the
  // same window; the aligned flush makes the frames byte-identical.
  for (int relay = 0; relay < 2; ++relay) {
    for (int i = 0; i < 4; ++i) {
      batcher.enqueue(NodeId{static_cast<std::uint32_t>(relay)}, h.group,
                      0xAB000000u + static_cast<std::uint64_t>(i), MeshHarness::inner(i),
                      sim::TrafficClass::kIntraShard);
    }
  }
  h.sim.run_until_idle();

  const auto& bs = batcher.stats();
  EXPECT_EQ(bs.items_enqueued, 8u);
  EXPECT_EQ(bs.frames_sent, 2u);  // one frame per relay...
  EXPECT_EQ(bs.max_frame_items, 4u);
  // ...but both frames carry the same item set, so they fold to the same
  // rumor id and the mesh merges them into ONE spread: every non-relay node
  // receives exactly one kBatchFrame. Relays hold their mesh copy without
  // self-delivery, but the batcher hands each relay its own frame locally so
  // its certs enter the pooled-verification window like everyone else's —
  // so every node, relay or not, sees the frame exactly once.
  EXPECT_EQ(h.mesh.stats().rumors_started, 2u);
  for (std::uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(h.counts[i], 1) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Full system on the rumor transport: certified outcomes reach every honest
// member under a drop profile with NO sender re-gossip (the regression test
// for retiring the loss-compensating triple re-gossip), and frame-pooled
// aggregate verification actually runs.

struct SystemFixture {
  explicit SystemFixture(const sim::NetConfig& ncfg, core::JengaConfig cfg,
                         std::uint64_t workload_seed = 7) {
    workload::TraceConfig tc;
    tc.num_contracts = 150;
    tc.num_accounts = 200;
    tc.max_contracts_per_tx = 4;
    tc.max_steps = 8;
    gen = std::make_unique<workload::TraceGenerator>(tc, Rng(workload_seed));
    net = std::make_unique<sim::Network>(sim, ncfg, Rng(cfg.seed));
    system = std::make_unique<core::JengaSystem>(sim, *net, telemetry, cfg,
                                                 harness::make_genesis(*gen));
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
  std::unique_ptr<core::JengaSystem> system;
  std::uint64_t initial_balance = 0;
};

TEST(RumorSystem, CertifiedOutcomesReachAllMembersUnderDrops) {
  core::JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 300 * kSecond;
  sim::NetConfig ncfg;
  ncfg.set_all_transports(sim::Transport::kRumor);

  SystemFixture f(ncfg, cfg);
  sim::LinkFaults lossy;
  lossy.drop_rate = 0.10;
  f.net->set_fault_profile(lossy);

  f.submit_workload(20, kSecond);
  f.sim.run_until(600 * kSecond);

  const auto& st = f.system->stats();
  EXPECT_EQ(st.committed + st.aborted, 20u) << "limbo txs: " << f.system->in_flight();
  EXPECT_GE(st.committed, 18u) << "committed=" << st.committed << " aborted=" << st.aborted;
  const security::InvariantReport report =
      security::check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_GT(f.net->fault_stats().dropped, 0u);

  // The pull-based repair did the work the retired re-gossip used to do.
  ASSERT_NE(f.system->rumor_mesh(), nullptr);
  const auto& rs = f.system->rumor_mesh()->stats();
  EXPECT_GT(rs.rumors_started, 0u);
  EXPECT_GT(rs.dups_dropped, 0u);
  // Relay certificates were verified (pooled per frame where batched) and
  // none were forged.  The system counts them live, with no runner involved.
  const telemetry::MetricsRegistry& reg = f.telemetry.registry;
  EXPECT_GT(reg.counter_value("relay.batch_passes"), 0u);
  // Per-frame pooling: one aggregated pass covers every signed cert in the
  // frame (amortization across many certs per frame is a load/scale property
  // measured by bench_ablation_dissemination, not asserted here).
  EXPECT_GE(reg.counter_value("relay.batch_certs"), reg.counter_value("relay.batch_passes"));
  EXPECT_EQ(reg.counter_value("relay.invalid_certs"), 0u);
  EXPECT_EQ(reg.counter_value("relay.batch_fallbacks"), 0u);
}

// ---------------------------------------------------------------------------
// Determinism witnesses across transports and exec worker counts.

harness::RunConfig digest_run(sim::Transport t, std::uint32_t workers) {
  harness::RunConfig cfg;
  cfg.kind = harness::SystemKind::kJenga;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 60;
  cfg.arrival.rate_tps = 2;  // arrivals over about 30 s
  cfg.max_sim_time = 900 * kSecond;
  cfg.mempool.ttl = cfg.max_sim_time;
  cfg.exec_workers = workers;
  // Conflict-light workload: contention would make the commit/abort split
  // timing-dependent, which is exactly what the cross-transport witness must
  // exclude (the per-transport schedules differ by design).
  cfg.trace.num_contracts = 4000;
  cfg.trace.num_accounts = 4000;
  cfg.trace.max_contracts_per_tx = 2;
  cfg.trace.max_steps = 6;
  cfg.net.set_all_transports(t);
  return cfg;
}

TEST(DisseminationWitness, StateDigestBitIdenticalAcrossTransportsAndWorkers) {
  constexpr sim::Transport kModes[] = {sim::Transport::kNaive, sim::Transport::kTree,
                                       sim::Transport::kRumor};
  Hash256 state_ref{};
  bool have_ref = false;
  for (const sim::Transport t : kModes) {
    const harness::RunResult r1 = harness::run_experiment(digest_run(t, 1));
    const harness::RunResult r4 = harness::run_experiment(digest_run(t, 4));
    ASSERT_EQ(r1.stats.committed + r1.stats.aborted, 60u) << sim::transport_name(t);
    EXPECT_EQ(r1.stats.aborted, 0u) << sim::transport_name(t);
    // Within a transport, worker count changes nothing at all.
    EXPECT_EQ(r1.ledger_digest, r4.ledger_digest) << sim::transport_name(t);
    EXPECT_EQ(r1.state_digest, r4.state_digest) << sim::transport_name(t);
    // Across transports, schedules (and thus chain tips) differ, but the
    // final authenticated state + outcome counts must be bit-identical.
    if (!have_ref) {
      state_ref = r1.state_digest;
      have_ref = true;
    } else {
      EXPECT_EQ(r1.state_digest, state_ref) << sim::transport_name(t);
    }
  }
}

TEST(DisseminationWitness, RumorTelemetryFoldedAndTraceLintClean) {
  harness::RunConfig cfg = digest_run(sim::Transport::kRumor, 1);
  cfg.causal_trace = true;
  const harness::RunResult r = harness::run_experiment(cfg);
  ASSERT_EQ(r.stats.committed + r.stats.aborted, 60u);

  // The dissemination counters made it into the run result and the registry
  // snapshot.
  EXPECT_GT(r.rumor.rumors_started, 0u);
  EXPECT_GT(r.rumor.pushes_sent, 0u);
  EXPECT_GT(r.rumor.delivered, 0u);
  EXPECT_GT(r.rumor.covered_rumors, 0u);
  EXPECT_GT(r.relay_batches.frames_sent, 0u);
  const std::string snapshot = r.telemetry->registry.to_json();
  EXPECT_NE(snapshot.find("net.rumor.pushes"), std::string::npos);
  EXPECT_NE(snapshot.find("net.rumor.rounds_to_coverage"), std::string::npos);
  EXPECT_NE(snapshot.find("net.batch.frames"), std::string::npos);
  EXPECT_NE(snapshot.find("relay.batch_passes"), std::string::npos);
  EXPECT_NE(snapshot.find("net.node_msgs_mean"), std::string::npos);

  // Rumor hops parent on the inbound carrying copy: the exported causal trace
  // still satisfies the shared schema/lint checker.
  std::ostringstream out;
  r.telemetry->export_jsonl(out);
  std::istringstream in(out.str());
  std::string err;
  telemetry::TraceLintSummary sum;
  ASSERT_TRUE(telemetry::validate_trace_stream(in, &err, &sum)) << err;
  EXPECT_GT(sum.cspan_lines, 0u);
}

// ---------------------------------------------------------------------------
// Byzantine gossip (DESIGN.md §14 guards): tampered pull responses and forged
// batch frames are rejected, pull-request floods are throttled, and the
// guards cost nothing in clean runs — digests stay bit-identical.

TEST(ByzantineGossip, TamperedPullResponseEntriesRejected) {
  MeshHarness h(16);
  h.mesh.broadcast(NodeId{0}, h.group, 0xFACE, MeshHarness::inner(1),
                   sim::TrafficClass::kIntraShard);
  h.sim.run_until(3 * kSecond);
  ASSERT_EQ(h.mesh.stats().covered_rumors, 1u);

  // Node 5 forges a pull response to node 3: one entry nobody requested (an
  // injected payload under a fresh id) and one rewrite of the known rumor.
  auto payload = std::make_shared<gossip::RumorPushPayload>();
  payload->group_key = gossip::group_key_of(h.group);
  gossip::RumorPushPayload::Entry forged;
  forged.id = 0xBAD0BAD0;
  forged.inner = MeshHarness::inner(66);
  payload->entries.push_back(std::move(forged));
  gossip::RumorPushPayload::Entry rewrite;
  rewrite.id = 0xFACE;
  rewrite.inner = MeshHarness::inner(67);
  payload->entries.push_back(std::move(rewrite));
  sim::Message m;
  m.type = sim::MsgType::kRumorPullResp;
  m.from = NodeId{5};
  m.size_bytes = payload->wire_size();
  m.payload = std::move(payload);
  h.net.send(NodeId{5}, NodeId{3}, m, sim::TrafficClass::kIntraShard);
  h.sim.run_until_idle();

  const auto& st = h.mesh.stats();
  // The unsolicited id was rejected, the rewrite of a held rumor dup-dropped;
  // neither smuggled a delivery, and coverage is unchanged.
  EXPECT_EQ(st.resp_rejected, 1u);
  EXPECT_EQ(st.covered_rumors, 1u);
  for (std::uint32_t i = 1; i < 16; ++i) EXPECT_EQ(h.counts[i], 1) << "node " << i;
}

TEST(ByzantineGossip, PullRequestFloodThrottledWithoutHarmingRepair) {
  MeshHarness h(16);
  h.mesh.broadcast(NodeId{0}, h.group, 0xFEED, MeshHarness::inner(1),
                   sim::TrafficClass::kIntraShard);
  h.sim.run_until(3 * kSecond);
  ASSERT_EQ(h.mesh.stats().covered_rumors, 1u);
  const std::uint64_t responses_before = h.mesh.stats().pull_responses;

  // Node 5 hammers node 0 with 200 pull requests for an id it already holds —
  // the amplification attack the per-(server,requester) window exists for.
  for (int i = 0; i < 200; ++i) {
    auto req = std::make_shared<gossip::RumorPullPayload>();
    req->group_key = gossip::group_key_of(h.group);
    req->ids.push_back(0xFEED);
    sim::Message m;
    m.type = sim::MsgType::kRumorPullReq;
    m.from = NodeId{5};
    m.size_bytes = req->wire_size();
    m.payload = std::move(req);
    h.net.send(NodeId{5}, NodeId{0}, m, sim::TrafficClass::kIntraShard);
  }
  h.sim.run_until_idle();

  const auto& st = h.mesh.stats();
  EXPECT_GT(st.pulls_throttled, 0u);
  // Served responses stay bounded by the per-window ceiling, not the flood.
  EXPECT_LT(st.pull_responses - responses_before, 200u);
  EXPECT_EQ(st.covered_rumors, 1u);
}

TEST(ByzantineGossip, ForgedBatchFrameRejectedWholeAndRunUnharmed) {
  core::JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 300 * kSecond;
  sim::NetConfig ncfg;
  ncfg.set_all_transports(sim::Transport::kRumor);

  SystemFixture f(ncfg, cfg);
  f.submit_workload(10, kSecond);

  // A forged frame: sorted items folded under a stolen identity.  The fold
  // check at the receiver rejects it whole before any item is unpacked.
  auto frame = std::make_shared<gossip::BatchFramePayload>();
  gossip::BatchFramePayload::Item item;
  item.rumor_id = 0x1111;
  item.inner = sim::make_message<TagPayload>(sim::MsgType::kClientTx, NodeId{1}, 600, 5);
  frame->items.push_back(std::move(item));
  frame->frame_id = 0xDEADBEEF;  // != fold_frame_id(items)
  ASSERT_FALSE(gossip::frame_id_matches(*frame));
  sim::Message m;
  m.type = sim::MsgType::kBatchFrame;
  m.from = NodeId{1};
  m.size_bytes = frame->wire_size();
  m.payload = std::move(frame);
  f.net->send(NodeId{1}, NodeId{2}, m, sim::TrafficClass::kIntraShard);

  f.sim.run_until(300 * kSecond);

  ASSERT_NE(f.system->batcher(), nullptr);
  EXPECT_EQ(f.system->batcher()->stats().frames_rejected, 1u);
  // The rejection cost nothing: the workload still completes and conserves.
  const auto& st = f.system->stats();
  EXPECT_EQ(st.committed + st.aborted, 10u) << "limbo txs: " << f.system->in_flight();
  const security::InvariantReport report =
      security::check_invariants(*f.system, f.initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(ByzantineGossip, GuardsAreFreeInCleanRuns) {
  // With every guard compiled in and no adversary, nothing trips and repeated
  // runs are bit-identical — the guards never perturb honest schedules.
  const harness::RunResult r1 = harness::run_experiment(digest_run(sim::Transport::kRumor, 1));
  const harness::RunResult r2 = harness::run_experiment(digest_run(sim::Transport::kRumor, 1));
  EXPECT_EQ(r1.rumor.pulls_throttled, 0u);
  EXPECT_EQ(r1.rumor.resp_rejected, 0u);
  EXPECT_EQ(r1.relay_batches.frames_rejected, 0u);
  EXPECT_EQ(r1.ledger_digest, r2.ledger_digest);
  EXPECT_EQ(r1.state_digest, r2.state_digest);
  EXPECT_EQ(r1.telemetry->registry.to_json(), r2.telemetry->registry.to_json());
}

}  // namespace
}  // namespace jenga
