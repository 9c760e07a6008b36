// Tracing-overhead smoke: the causal tracer + flight recorder must be cheap
// enough to leave on for any diagnostic run.  Runs the quick Fig. 5a
// configuration traced and untraced (interleaved, min-of-3 wall clock each,
// one warm-up discarded), gates the overhead at 5% (plus a small absolute
// slack — quick runs are short enough for scheduler noise to matter), and
// re-asserts passivity on the way: ledger digest and metrics snapshot must
// be bit-identical between the two modes.  Emits BENCH_trace_overhead.json
// so CI keeps a perf trajectory data point per commit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_config.hpp"
#include "report.hpp"

int main() {
  using namespace jenga;
  using namespace jenga::bench;
  using namespace jenga::harness;
  using Clock = std::chrono::steady_clock;

  header("Tracing overhead — quick Fig. 5a traced vs untraced", "DESIGN.md §11 passivity");
  ShapeReporter rep;

  const auto make_config = [](bool traced) {
    RunConfig cfg = perf_config(SystemKind::kJenga, 4);
    cfg.contract_txs /= 4;  // quick: overhead ratio needs no volume
    cfg.max_inflight /= 4;
    if (traced) {
      cfg.causal_trace = true;
      cfg.flight_events_per_node = 64;
    }
    return cfg;
  };

  const auto timed_run = [&](bool traced, RunResult* out) {
    const auto t0 = Clock::now();
    RunResult r = run_experiment(make_config(traced));
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (out != nullptr) *out = std::move(r);
    return ms;
  };

  timed_run(false, nullptr);  // warm-up (allocator, page cache) — discarded

  RunResult plain, traced;
  double plain_ms = 1e300, traced_ms = 1e300;
  for (int i = 0; i < 3; ++i) {
    plain_ms = std::min(plain_ms, timed_run(false, &plain));
    traced_ms = std::min(traced_ms, timed_run(true, &traced));
  }

  const double overhead_pct = 100.0 * (traced_ms - plain_ms) / plain_ms;
  std::printf("\nuntraced: %.0f ms   traced: %.0f ms   overhead: %+.1f%%   "
              "spans: %zu   flight events: %llu\n",
              plain_ms, traced_ms, overhead_pct, traced.telemetry->causal.span_count(),
              static_cast<unsigned long long>(traced.telemetry->flight.events_recorded()));

  // Passivity first — a fast tracer that perturbs the run is worthless.
  rep.check(traced.ledger_digest == plain.ledger_digest,
            "trace_overhead: ledger digest identical traced vs untraced");
  rep.check(traced.telemetry->registry.to_json() == plain.telemetry->registry.to_json(),
            "trace_overhead: metrics snapshot identical traced vs untraced");
  rep.check(traced.telemetry->causal.span_count() > 0,
            "trace_overhead: traced run recorded causal spans");
  // 5% relative, with 50 ms absolute slack for sub-second quick runs.
  rep.check(traced_ms <= plain_ms * 1.05 + 50.0,
            "trace_overhead: traced wall clock within 5% of untraced");

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"trace_overhead\",\"untraced_ms\":%.1f,\"traced_ms\":%.1f,"
                "\"overhead_pct\":%.2f,\"spans\":%zu,\"flight_events\":%llu,"
                "\"committed\":%llu}",
                plain_ms, traced_ms, overhead_pct, traced.telemetry->causal.span_count(),
                static_cast<unsigned long long>(traced.telemetry->flight.events_recorded()),
                static_cast<unsigned long long>(traced.stats.committed));
  std::ofstream("BENCH_trace_overhead.json") << json << "\n";
  std::printf("wrote BENCH_trace_overhead.json\n");

  return rep.finish("bench_trace_overhead");
}
