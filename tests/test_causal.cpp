// Causal trace DAG + flight recorder tests (DESIGN.md §11).
//
// Pins the acceptance criteria of the observability layer:
//   - passivity: ledger digest, admission digest and metrics snapshot are
//     bit-identical with tracing on vs off, at exec workers {1,4}, on Jenga
//     and all three baselines;
//   - exactness: every finished transaction's critical path partitions
//     [submit, finish] into queue + link + service with zero residue, and
//     reconciles exactly with the four PR 3 phase intervals;
//   - DAG shape: lineages are acyclic (ids strictly ascending, parent < id);
//   - export: cspan lines and per-tx dag_* fields pass the shared validator,
//     and the chrome://tracing view is well-formed;
//   - flight recorder: a scripted per-shard partition that wedges 2PC and a
//     forced invariant violation each produce a causally-ordered dump with
//     the offending transaction's lineage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/genesis.hpp"
#include "harness/runner.hpp"
#include "ledger/transaction.hpp"
#include "security/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace jenga {
namespace {

using harness::RunConfig;
using harness::RunResult;
using harness::SystemKind;
using telemetry::CausalTracer;
using telemetry::FlightEvent;
using telemetry::FlightRecorder;

Hash256 test_hash(std::uint8_t tag) {
  Hash256 h{};
  h.bytes[0] = tag;
  return h;
}

// ---------------------------------------------------------------------------
// CausalTracer unit tests

TEST(CausalTracer, SpanIdsAscendAndParentIsCurrentContext) {
  CausalTracer tracer;
  tracer.enable(true);
  std::uint64_t ctx = 0;
  tracer.bind_context(&ctx);

  const std::uint64_t s1 = tracer.begin_span(1, telemetry::kClientNode, 0, 100, 150);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(tracer.span(s1)->parent, 0u);
  tracer.note_arrival(s1, 250);

  ctx = s1;  // as if inside s1's delivery handler
  const std::uint64_t s2 = tracer.begin_span(2, 0, 1, 300, 300);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(tracer.span(s2)->parent, s1);
  EXPECT_LT(tracer.span(s2)->parent, s2);  // acyclic by construction
  tracer.note_arrival(s2, 400);

  // Duplicate deliveries keep the earliest arrival.
  tracer.note_arrival(s2, 380);
  EXPECT_EQ(tracer.span(s2)->arrive, 380);
  tracer.note_arrival(s2, 420);
  EXPECT_EQ(tracer.span(s2)->arrive, 380);
}

TEST(CausalTracer, DisabledAndAtCapacityReturnNoSpan) {
  CausalTracer tracer;
  EXPECT_EQ(tracer.begin_span(1, 0, 1, 0, 0), 0u);  // disabled
  tracer.enable(true);
  tracer.set_capacity(2);
  EXPECT_NE(tracer.begin_span(1, 0, 1, 0, 0), 0u);
  EXPECT_NE(tracer.begin_span(1, 0, 1, 0, 0), 0u);
  EXPECT_EQ(tracer.begin_span(1, 0, 1, 0, 0), 0u);  // over capacity: truncate
  EXPECT_EQ(tracer.spans_dropped(), 1u);
  EXPECT_EQ(tracer.span_count(), 2u);
}

TEST(CausalTracer, CriticalPathDecomposesExactly) {
  CausalTracer tracer;
  tracer.enable(true);
  std::uint64_t ctx = 0;
  tracer.bind_context(&ctx);
  const Hash256 tx = test_hash(7);

  // submit(100) → hop1 [send 100, depart 150, arrive 250]
  //             → hop2 [send 300, depart 300, arrive 400] → finish(450)
  const std::uint64_t s1 = tracer.begin_span(1, telemetry::kClientNode, 0, 100, 150);
  tracer.note_arrival(s1, 250);
  ctx = s1;
  tracer.tx_anchor(tx, telemetry::AnchorKind::kSubmit, 0, 100);
  const std::uint64_t s2 = tracer.begin_span(2, 0, 1, 300, 300);
  tracer.note_arrival(s2, 400);
  ctx = s2;
  tracer.tx_anchor(tx, telemetry::AnchorKind::kFinish, 1, 450);

  const auto cp = tracer.critical_path(tx, 100, 450);
  ASSERT_TRUE(cp.valid);
  ASSERT_EQ(cp.hops.size(), 2u);
  EXPECT_EQ(cp.hops[0].span->id, s1);
  EXPECT_EQ(cp.hops[1].span->id, s2);
  EXPECT_EQ(cp.total, 350);
  EXPECT_EQ(cp.queue, 50);    // 50 + 0
  EXPECT_EQ(cp.link, 200);    // 100 + 100
  EXPECT_EQ(cp.service, 100); // 0 pre-gap + 50 inter-hop + 50 tail
  EXPECT_EQ(cp.ingress_wait, 0);
  EXPECT_EQ(cp.tail, 50);
  EXPECT_EQ(cp.queue + cp.link + cp.service, cp.total);

  // Lineage covers both hops, ascending.
  const auto ids = tracer.lineage(tx, 100);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], s1);
  EXPECT_EQ(ids[1], s2);
}

TEST(CausalTracer, UnfinishedTxHasNoCriticalPath) {
  CausalTracer tracer;
  tracer.enable(true);
  const Hash256 tx = test_hash(9);
  tracer.tx_anchor(tx, telemetry::AnchorKind::kSubmit, 0, 10);
  EXPECT_FALSE(tracer.critical_path(tx, 10, 500).valid);
}

// ---------------------------------------------------------------------------
// FlightRecorder unit tests

FlightEvent make_event(SimTime at, std::uint32_t node, FlightEvent::Kind kind) {
  FlightEvent e;
  e.at = at;
  e.node = node;
  e.kind = kind;
  return e;
}

TEST(FlightRecorderUnit, RingKeepsLastNAndDumpIsTimeOrdered) {
  FlightRecorder rec;
  rec.configure(2, 3);
  ASSERT_TRUE(rec.enabled());
  // Five events on node 0: the ring keeps the newest three.
  for (SimTime t = 1; t <= 5; ++t)
    rec.record(0, make_event(t * 100, 0, FlightEvent::Kind::kSend));
  // Interleave node 1 and the client ring.
  rec.record(1, make_event(250, 1, FlightEvent::Kind::kDeliver));
  rec.record(telemetry::kClientNode, make_event(50, telemetry::kClientNode,
                                                FlightEvent::Kind::kAdmission));
  EXPECT_EQ(rec.events_recorded(), 7u);

  ASSERT_TRUE(rec.trigger("unit.test"));
  ASSERT_EQ(rec.dumps().size(), 1u);
  const auto& dump = rec.dumps().front();
  EXPECT_EQ(dump.reason, "unit.test");

  // Window = 3 (node 0, newest) + 1 (node 1) + 1 (client), merged by time.
  std::istringstream in(dump.contents);
  std::string err;
  telemetry::TraceLintSummary sum;
  ASSERT_TRUE(telemetry::validate_trace_stream(in, &err, &sum)) << err;
  EXPECT_EQ(sum.flight_lines, 5u);
  EXPECT_NE(dump.contents.find("\"at_us\":50"), std::string::npos);   // client kept
  EXPECT_EQ(dump.contents.find("\"at_us\":100"), std::string::npos);  // overwritten
  EXPECT_NE(dump.contents.find("\"at_us\":500"), std::string::npos);  // newest kept
}

TEST(FlightRecorderUnit, OneDumpPerReasonBoundedOverall) {
  FlightRecorder rec;
  rec.configure(1, 4);
  rec.set_max_dumps(2);
  rec.record(0, make_event(10, 0, FlightEvent::Kind::kSend));
  EXPECT_TRUE(rec.trigger("a"));
  EXPECT_FALSE(rec.trigger("a"));  // repeat reason: counted, not dumped
  EXPECT_TRUE(rec.trigger("b"));
  EXPECT_FALSE(rec.trigger("c"));  // over max_dumps
  EXPECT_EQ(rec.triggers(), 4u);
  EXPECT_EQ(rec.dumps().size(), 2u);
}

TEST(FlightRecorderUnit, DisabledRecorderIgnoresEverything) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.record(0, make_event(10, 0, FlightEvent::Kind::kSend));
  EXPECT_FALSE(rec.trigger("x"));
  EXPECT_TRUE(rec.dumps().empty());
  EXPECT_EQ(rec.events_recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Full-run passivity: tracing must not perturb any determinism witness.

RunConfig traced_run(SystemKind kind, std::uint32_t workers, bool traced) {
  RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 100;
  cfg.transfer_txs = 30;
  cfg.max_sim_time = 900 * kSecond;
  cfg.exec_workers = workers;
  cfg.trace.num_contracts = 1000;
  cfg.trace.num_accounts = 2000;
  cfg.trace.max_steps = 12;
  cfg.trace.max_contracts_per_tx = 6;
  cfg.arrival.rate_tps = 40.0;
  cfg.mempool.capacity = 64;
  cfg.mempool.ttl = 120 * kSecond;
  cfg.max_inflight = 128;
  if (traced) {
    cfg.causal_trace = true;
    cfg.flight_events_per_node = 32;
  }
  return cfg;
}

class CausalPassivity : public ::testing::TestWithParam<SystemKind> {};

TEST_P(CausalPassivity, WitnessesIdenticalTracedVsUntraced) {
  const RunResult plain = run_experiment(traced_run(GetParam(), 1, false));
  const RunResult traced1 = run_experiment(traced_run(GetParam(), 1, true));
  const RunResult traced4 = run_experiment(traced_run(GetParam(), 4, true));

  EXPECT_EQ(traced1.ledger_digest, plain.ledger_digest);
  EXPECT_EQ(traced4.ledger_digest, plain.ledger_digest);
  EXPECT_EQ(traced1.ingress.admission_digest, plain.ingress.admission_digest);
  EXPECT_EQ(traced4.ingress.admission_digest, plain.ingress.admission_digest);
  EXPECT_EQ(traced1.telemetry->registry.to_json(), plain.telemetry->registry.to_json());
  EXPECT_EQ(traced4.telemetry->registry.to_json(), plain.telemetry->registry.to_json());

  // The traced runs actually traced something.
  EXPECT_EQ(plain.telemetry->causal.span_count(), 0u);
  EXPECT_GT(traced1.telemetry->causal.span_count(), 0u);
  EXPECT_GT(traced1.telemetry->flight.events_recorded(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, CausalPassivity,
                         ::testing::Values(SystemKind::kJenga, SystemKind::kCxFunc,
                                           SystemKind::kSingleShard, SystemKind::kPyramid),
                         [](const auto& info) {
                           std::string name = harness::system_name(info.param);
                           std::erase_if(name, [](unsigned char c) {
                             return std::isalnum(c) == 0;
                           });
                           return name;
                         });

// ---------------------------------------------------------------------------
// Critical-path exactness, DAG shape and export schema on a real run.

TEST(CausalRun, CriticalPathExactAndLineageAcyclic) {
  const RunResult r = run_experiment(traced_run(SystemKind::kJenga, 1, true));
  const auto& causal = r.telemetry->causal;
  std::size_t checked = 0;
  for (const auto& [hash, trace] : r.telemetry->tracer.traces()) {
    if (!trace.done) continue;
    const auto cp = causal.critical_path(hash, trace.submit, trace.finish);
    ASSERT_TRUE(cp.valid);

    // Exact partition of the end-to-end latency…
    EXPECT_EQ(cp.total, trace.finish - trace.submit);
    EXPECT_EQ(cp.queue + cp.link + cp.service, cp.total);
    EXPECT_LE(cp.ingress_wait, cp.service);
    EXPECT_LE(cp.tail, cp.service);
    // …that reconciles with the four PR 3 phase intervals (same span).
    const auto iv = trace.intervals();
    SimTime interval_sum = 0;
    for (const SimTime v : iv) interval_sum += v;
    EXPECT_EQ(interval_sum, cp.total);

    // Hops are chronological and internally ordered.
    SimTime prev = trace.submit;
    for (const auto& hop : cp.hops) {
      ASSERT_NE(hop.span, nullptr);
      EXPECT_TRUE(hop.span->delivered);
      EXPECT_GE(hop.span->send, prev);
      EXPECT_LE(hop.span->send, hop.span->depart);
      EXPECT_LE(hop.span->depart, hop.span->arrive);
      EXPECT_GE(hop.service_before, 0);
      prev = hop.span->arrive;
    }

    // The full DAG is acyclic: ids strictly ascend, every parent precedes
    // its child, and every critical-path hop is in the lineage.
    const auto ids = causal.lineage(hash, trace.submit);
    std::uint64_t last = 0;
    for (const std::uint64_t id : ids) {
      EXPECT_GT(id, last);
      const auto* s = causal.span(id);
      ASSERT_NE(s, nullptr);
      EXPECT_LT(s->parent, id);
      last = id;
    }
    for (const auto& hop : cp.hops)
      EXPECT_TRUE(std::find(ids.begin(), ids.end(), hop.span->id) != ids.end());
    ++checked;
  }
  EXPECT_GT(checked, 20u) << "too few finished transactions to be meaningful";
}

TEST(CausalRun, ExportCarriesSpansAndValidates) {
  const RunResult a = run_experiment(traced_run(SystemKind::kJenga, 1, true));
  const RunResult b = run_experiment(traced_run(SystemKind::kJenga, 1, true));

  std::ostringstream ja, jb;
  a.telemetry->export_jsonl(ja);
  b.telemetry->export_jsonl(jb);
  EXPECT_EQ(ja.str(), jb.str());  // traced export is itself deterministic

  std::istringstream in(ja.str());
  std::string err;
  telemetry::TraceLintSummary sum;
  ASSERT_TRUE(telemetry::validate_trace_stream(in, &err, &sum)) << err;
  EXPECT_GT(sum.cspan_lines, 0u);
  EXPECT_GT(sum.dag_tx_lines, 0u);
  EXPECT_GT(sum.tx_lines, 0u);

  // chrome://tracing view: complete events plus flow binding edges.
  std::ostringstream chrome;
  a.telemetry->export_chrome(chrome);
  const std::string view = chrome.str();
  EXPECT_NE(view.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(view.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(view.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(view.find("\"ph\":\"f\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder on real failures.

TEST(FlightRecorderRun, TwoPcStuckUnderPartitionDumpsLineage) {
  // Same wedge recipe as TwoPcWatchdog.PartitionedTransferIsFlaggedStuck:
  // split the two shards for the rest of the run so every cross-shard 2PC
  // prepare is partition-blocked after its debit committed — but with the
  // causal tracer and flight recorder attached, so the watchdog's trigger
  // captures a post-mortem window.
  core::JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;
  cfg.seed = 11;
  cfg.twopc_stuck_timeout = 10 * kSecond;
  cfg.pending_timeout = 600 * kSecond;

  workload::TraceConfig tc;
  tc.num_accounts = 400;
  workload::TraceGenerator gen(tc, Rng(3));
  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(cfg.seed));
  telemetry::Telemetry telem;
  telem.causal.enable(true);
  telem.flight.configure(16, 64);
  net.set_telemetry(&telem);
  core::JengaSystem system(sim, net, telem, cfg, harness::make_genesis(gen));
  security::FaultInjector injector(sim, net, system);
  system.start();

  security::PartitionWindow window;
  window.start = 2 * kSecond;
  window.end = 600 * kSecond;
  window.isolated = system.lattice().shard_members(ShardId{1});
  security::FaultPlan plan;
  plan.partitions.push_back(window);
  injector.arm(plan);

  for (int i = 0; i < 80; ++i) {
    sim.run_until(sim.now() + 500 * kMillisecond);
    system.submit(std::make_shared<ledger::Transaction>(gen.transfer_tx(sim.now())));
  }
  sim.run_until(120 * kSecond);

  ASSERT_GT(system.twopc_stuck_now(), 0u) << "no transfer got wedged";
  EXPECT_GT(telem.flight.triggers(), 0u);
  ASSERT_FALSE(telem.flight.dumps().empty());
  const telemetry::FlightDump& dump = telem.flight.dumps().front();
  EXPECT_EQ(dump.reason, "twopc.stuck");

  // The dump validates under the shared schema checker: flight events in
  // causal (time) order, and the offending tx's lineage attached.
  std::istringstream in(dump.contents);
  std::string err;
  telemetry::TraceLintSummary sum;
  EXPECT_TRUE(telemetry::validate_trace_stream(in, &err, &sum)) << err;
  EXPECT_GT(sum.flight_lines, 0u);
  EXPECT_GT(sum.lineage_lines, 0u) << "stuck tx lineage missing from the dump";

  net.set_telemetry(nullptr);
}

TEST(FlightRecorderRun, InvariantViolationDumpIsWrittenToDisk) {
  // Isolate half the nodes for the whole run: at least one shard loses
  // quorum, submitted transactions end in limbo, and the post-run audit
  // fails — which must fire the recorder and write the dump file.
  RunConfig cfg = traced_run(SystemKind::kJenga, 1, true);
  cfg.num_shards = 2;
  cfg.contract_txs = 60;
  cfg.transfer_txs = 60;
  cfg.max_sim_time = 120 * kSecond;
  cfg.flight_dump_path = ::testing::TempDir() + "causal_flight";
  security::PartitionWindow window;
  window.start = 2 * kSecond;
  window.end = 1000 * kSecond;
  for (std::uint32_t n = 8; n < 16; ++n) window.isolated.push_back(NodeId{n});
  cfg.faults_plan.partitions.push_back(window);

  const RunResult r = run_experiment(cfg);
  ASSERT_TRUE(r.ingress.invariants_audited);
  ASSERT_FALSE(r.ingress.invariants.ok()) << "partition failed to break the run";

  const auto& dumps = r.telemetry->flight.dumps();
  ASSERT_FALSE(dumps.empty());
  bool found = false;
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    if (dumps[i].reason == "invariant.violation") found = true;
    std::istringstream in(dumps[i].contents);
    std::string err;
    telemetry::TraceLintSummary sum;
    EXPECT_TRUE(telemetry::validate_trace_stream(in, &err, &sum)) << err;
    EXPECT_GT(sum.flight_lines, 0u);
    // The on-disk artifact mirrors the in-memory dump.
    std::ifstream file(cfg.flight_dump_path + "-" + std::to_string(i) + ".jsonl");
    ASSERT_TRUE(file.good()) << "dump file " << i << " missing";
    std::stringstream disk;
    disk << file.rdbuf();
    EXPECT_EQ(disk.str(), dumps[i].contents);
  }
  EXPECT_TRUE(found) << "no invariant.violation dump captured";
}

}  // namespace
}  // namespace jenga
