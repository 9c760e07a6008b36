// Telemetry subsystem: registry semantics, histogram accuracy bounds, phase
// tracer completeness on a real workload (the intervals must partition the
// end-to-end latency exactly), same-seed determinism of the snapshots, and
// the JSONL exporter/validator pair.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/runner.hpp"
#include "telemetry/telemetry.hpp"

namespace jenga::telemetry {
namespace {

TEST(MetricsRegistry, CreatesOnFirstUseAndFinds) {
  MetricsRegistry reg;
  reg.counter("a").inc(3);
  reg.counter("a").inc(2);  // same metric, not a second one
  reg.gauge("g").set(-7);
  reg.histogram("h").record(10);

  ASSERT_NE(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_counter("a")->value(), 5u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("g")->value(), -7);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(MetricsRegistry, JsonIsNameOrderedAndDeterministic) {
  MetricsRegistry a, b;
  a.counter("z").inc(1);
  a.counter("a").inc(2);
  // Opposite creation order, same content.
  b.counter("a").inc(2);
  b.counter("z").inc(1);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_TRUE(a == b);
  EXPECT_LT(a.to_json().find("\"a\""), a.to_json().find("\"z\""));
}

TEST(Histogram, SmallValuesExactLargeValuesBounded) {
  Histogram h;
  for (int v = 0; v < 16; ++v) h.record(v);
  // Below 2^kSubBucketBits every value has its own bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);

  Histogram big;
  for (std::int64_t v = 1; v <= 1'000'000; v += 997) big.record(v);
  const double p50 = big.quantile(0.5);
  EXPECT_NEAR(p50, 500'000.0, 500'000.0 * 0.07);  // ~6% bucket error bound
  EXPECT_EQ(big.min(), 1);
  EXPECT_GE(big.max(), 999'000);
}

TEST(Histogram, BucketEdgeQuantileConsistentWithRawMax) {
  // Regression: a rank landing exactly on a log-linear bucket boundary used
  // to interpolate past the bucket's top value (est = lower + 1.0 * width),
  // and when a larger outlier existed elsewhere the global min/max clamp
  // could not catch the overshoot: 100 samples of 16 plus one of 1000
  // reported p99 = 17 even though no sample lies in (16, 1000).
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(16);
  h.record(1000);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  EXPECT_EQ(h.max(), 1000);

  // Any single-valued distribution must report that value at every quantile,
  // including values sitting exactly on bucket boundaries (powers of two).
  for (const std::int64_t v : {15ll, 16ll, 32ll, 1024ll, 4096ll}) {
    Histogram one;
    for (int i = 0; i < 1000; ++i) one.record(v);
    EXPECT_DOUBLE_EQ(one.quantile(0.5), static_cast<double>(v)) << v;
    EXPECT_DOUBLE_EQ(one.quantile(0.99), static_cast<double>(v)) << v;
    EXPECT_DOUBLE_EQ(one.quantile(1.0), static_cast<double>(v)) << v;
  }

  // Quantiles never exceed the recorded raw max, boundary or not.
  Histogram mix;
  for (int i = 0; i < 90; ++i) mix.record(100);
  for (int i = 0; i < 10; ++i) mix.record(1017);
  EXPECT_LE(mix.quantile(0.99), static_cast<double>(mix.max()));
  EXPECT_DOUBLE_EQ(mix.quantile(1.0), 1017.0);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a, b, both;
  for (int i = 0; i < 100; ++i) {
    a.record(i * 31);
    both.record(i * 31);
  }
  for (int i = 0; i < 50; ++i) {
    b.record(i * 1009);
    both.record(i * 1009);
  }
  a.merge(b);
  EXPECT_TRUE(a == both);
}

TEST(PhaseTracer, IntervalsPartitionLatencyExactly) {
  PhaseTracer t;
  Hash256 h;
  h.bytes[0] = 1;
  t.on_submit(h, 100);
  t.phase_event(h, Phase::kStateLock, 0, 250);
  t.phase_event(h, Phase::kStateLock, 1, 300);  // later shard wins (critical path)
  t.phase_event(h, Phase::kGather, 2, 400);
  t.phase_event(h, Phase::kExecute, 2, 900);
  t.phase_event(h, Phase::kCommitApply, 0, 950);
  t.on_finish(h, true, 1000);

  const TxTrace* tr = t.find(h);
  ASSERT_NE(tr, nullptr);
  EXPECT_TRUE(tr->done);
  EXPECT_TRUE(tr->committed);
  const auto iv = tr->intervals();
  EXPECT_EQ(iv[0], 200);  // state_lock: 100 -> 300
  EXPECT_EQ(iv[1], 100);  // grant_relay: 300 -> 400
  EXPECT_EQ(iv[2], 500);  // execute: 400 -> 900
  EXPECT_EQ(iv[3], 100);  // commit: 900 -> 1000 (finish closes the interval)
  EXPECT_EQ(iv[0] + iv[1] + iv[2] + iv[3], tr->finish - tr->submit);
  EXPECT_EQ(tr->critical_interval(), 2u);

  // Late events after the finish must not smear the settled trace.
  t.phase_event(h, Phase::kExecute, 3, 5000);
  EXPECT_EQ(t.find(h)->checkpoint[static_cast<std::size_t>(Phase::kExecute)], 900);
}

TEST(PhaseTracer, SkippedPhasesContributeZeroLengthIntervals) {
  PhaseTracer t;
  Hash256 h;
  h.bytes[0] = 2;
  t.on_submit(h, 0);
  t.phase_event(h, Phase::kExecute, 0, 70);
  t.on_finish(h, false, 100);  // aborted, never locked or gathered
  const auto iv = t.find(h)->intervals();
  EXPECT_EQ(iv[0] + iv[1] + iv[2] + iv[3], 100);
  EXPECT_EQ(iv[2], 70);

  const PhaseBreakdown b = t.breakdown();
  EXPECT_EQ(b.aborted, 1u);
  EXPECT_EQ(b.committed, 0u);
}

harness::RunConfig small_run(harness::SystemKind kind) {
  harness::RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 120;
  cfg.arrival.rate_tps = 4;  // arrivals over about 30 s
  cfg.max_sim_time = 900 * kSecond;
  cfg.trace.num_contracts = 1000;
  cfg.trace.num_accounts = 2000;
  cfg.trace.max_steps = 12;
  cfg.trace.max_contracts_per_tx = 6;
  return cfg;
}

class TracedRunTest : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(TracedRunTest, EveryTransactionLeavesACompleteTrace) {
  const auto r = run_experiment(small_run(GetParam()));
  ASSERT_NE(r.telemetry, nullptr);
  const PhaseTracer& tracer = r.telemetry->tracer;
  EXPECT_EQ(tracer.traced(), r.stats.submitted);

  std::uint64_t done = 0;
  for (const auto& [hash, tr] : tracer.traces()) {
    if (!tr.done) continue;
    ++done;
    ASSERT_GE(tr.submit, 0);
    ASSERT_GE(tr.finish, tr.submit);
    const auto iv = tr.intervals();
    // The partition is exact by construction — not within 1%, equal.
    EXPECT_EQ(iv[0] + iv[1] + iv[2] + iv[3], tr.finish - tr.submit);
  }
  EXPECT_EQ(done, r.stats.committed + r.stats.aborted);

  const PhaseBreakdown& b = r.breakdown;
  EXPECT_EQ(b.committed, r.stats.committed);
  EXPECT_EQ(b.aborted, r.stats.aborted);
  EXPECT_EQ(b.incomplete, 0u);
  std::int64_t phase_sum = 0;
  for (std::size_t p = 0; p < kIntervalCount; ++p) phase_sum += b.interval_sum[p];
  EXPECT_EQ(phase_sum, b.total_sum);
  // And the tracer's total agrees with the system's own latency accounting.
  EXPECT_EQ(b.total_sum, static_cast<std::int64_t>(r.stats.total_commit_latency));
}

INSTANTIATE_TEST_SUITE_P(Systems, TracedRunTest,
                         ::testing::Values(harness::SystemKind::kJenga,
                                           harness::SystemKind::kJengaNoLattice,
                                           harness::SystemKind::kJengaNoGlobalLogic,
                                           harness::SystemKind::kCxFunc,
                                           harness::SystemKind::kPyramid),
                         [](const auto& info) {
                           switch (info.param) {
                             case harness::SystemKind::kJenga: return "Jenga";
                             case harness::SystemKind::kJengaNoLattice: return "JengaNoOLS";
                             case harness::SystemKind::kJengaNoGlobalLogic: return "JengaNoNWLS";
                             case harness::SystemKind::kCxFunc: return "CxFunc";
                             case harness::SystemKind::kPyramid: return "Pyramid";
                             default: return "?";
                           }
                         });

TEST(TelemetryDeterminism, SameSeedSameSnapshot) {
  const auto a = run_experiment(small_run(harness::SystemKind::kJenga));
  const auto b = run_experiment(small_run(harness::SystemKind::kJenga));
  ASSERT_NE(a.telemetry, nullptr);
  ASSERT_NE(b.telemetry, nullptr);
  EXPECT_EQ(a.telemetry->registry.to_json(), b.telemetry->registry.to_json());

  std::ostringstream ja, jb;
  a.telemetry->export_jsonl(ja);
  b.telemetry->export_jsonl(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(TelemetryExport, JsonlValidatesAndCountsLines) {
  const auto r = run_experiment(small_run(harness::SystemKind::kJenga));
  std::ostringstream out;
  r.telemetry->export_jsonl(out);

  std::istringstream in(out.str());
  std::string error;
  TraceLintSummary summary;
  EXPECT_TRUE(validate_trace_stream(in, &error, &summary)) << error;
  EXPECT_EQ(summary.tx_lines, r.stats.submitted);
  EXPECT_GT(summary.metric_lines, 0u);
  EXPECT_EQ(summary.phase_hist_lines, kIntervalCount);
  // BFT rounds are recorded once, in the registry, not as span lines.
  EXPECT_EQ(out.str().find("\"kind\":\"span\""), std::string::npos);
  const Histogram* rounds = r.telemetry->registry.find_histogram("bft.round_us");
  ASSERT_NE(rounds, nullptr);
  EXPECT_GT(rounds->count(), 0u);
  EXPECT_EQ(rounds->count(), r.telemetry->registry.counter_value("bft.rounds"));
}

TEST(TraceValidator, RejectsMalformedLines) {
  std::string err;
  EXPECT_FALSE(validate_trace_line("not json", &err));
  EXPECT_FALSE(validate_trace_line("{\"no_kind\":1}", &err));
  EXPECT_FALSE(validate_trace_line("{\"kind\":\"mystery\"}", &err));
  // "span" is not a line kind: BFT round times are the registry's bft.*
  // metric lines.
  EXPECT_FALSE(validate_trace_line(
      "{\"kind\":\"span\",\"name\":\"bft.round\",\"group\":1,\"seq\":1,"
      "\"begin_us\":0,\"end_us\":10}",
      &err));
  // tx line whose phases do not sum to finish - submit.
  const std::string bad_tx =
      "{\"kind\":\"tx\",\"hash\":\"" + std::string(64, 'a') +
      "\",\"outcome\":\"commit\",\"submit_us\":0,\"finish_us\":1000,"
      "\"state_lock_us\":1,\"grant_relay_us\":1,\"execute_us\":1,\"commit_us\":1,"
      "\"critical\":\"state_lock\"}";
  EXPECT_FALSE(validate_trace_line(bad_tx, &err));
  EXPECT_NE(err.find("do not sum"), std::string::npos) << err;
  // Same line with a consistent partition passes.
  const std::string good_tx =
      "{\"kind\":\"tx\",\"hash\":\"" + std::string(64, 'a') +
      "\",\"outcome\":\"commit\",\"submit_us\":0,\"finish_us\":1000,"
      "\"state_lock_us\":400,\"grant_relay_us\":100,\"execute_us\":300,"
      "\"commit_us\":200,\"critical\":\"state_lock\"}";
  EXPECT_TRUE(validate_trace_line(good_tx, &err)) << err;

  // A stream without a meta line is invalid even if every line passes.
  std::istringstream in(good_tx + "\n");
  EXPECT_FALSE(validate_trace_stream(in, &err));
}

}  // namespace
}  // namespace jenga::telemetry
