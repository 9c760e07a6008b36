// Trace linter: validates a `--trace-out` JSONL file (or a flight-recorder
// dump) against the telemetry schema (see telemetry/telemetry.hpp).  A trace
// holds meta, metric, msgtype, phase_hist, tx and cspan lines, a dump
// flight_meta, flight and lineage lines; a line of any other kind fails.
// Beyond each line's fields it checks:
//   - the per-tx invariant that the four phase intervals sum to the
//     end-to-end latency;
//   - causal span ordering (ids strictly ascending, parent before child —
//     the DAG acyclicity witness) and per-span send ≤ depart ≤ arrive;
//   - per-tx DAG/interval reconciliation: dag_queue + dag_link + dag_service
//     matches dag_total, and dag_total matches finish - submit within 1%;
//   - flight-dump lines in causal (time) order.
// CI runs it on two fresh bench traces, the causally traced chaos export of
// bench_resilience and the untraced S=12 export of
// bench_fig5b_throughput_breakdown, so a schema drift fails the build
// instead of silently breaking downstream analysis.
//
// Usage: trace_lint <trace.jsonl>   (exit 0 = valid, 1 = invalid / unreadable)
#include <cstdio>
#include <fstream>
#include <string>

#include "telemetry/telemetry.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <trace.jsonl>\n", argv[0]);
    return 1;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "trace_lint: cannot open %s\n", argv[1]);
    return 1;
  }
  std::string error;
  jenga::telemetry::TraceLintSummary summary;
  if (!jenga::telemetry::validate_trace_stream(in, &error, &summary)) {
    std::fprintf(stderr, "trace_lint: %s: INVALID: %s\n", argv[1], error.c_str());
    return 1;
  }
  std::printf(
      "trace_lint: %s: OK (%zu lines: %zu tx (%zu with DAG), %zu metric, "
      "%zu phase_hist, %zu cspan, %zu flight, %zu lineage)\n",
      argv[1], summary.lines, summary.tx_lines, summary.dag_tx_lines,
      summary.metric_lines, summary.phase_hist_lines, summary.cspan_lines,
      summary.flight_lines, summary.lineage_lines);
  return 0;
}
