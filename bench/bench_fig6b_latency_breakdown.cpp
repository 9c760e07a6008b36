// Fig. 6b: latency breakdown of Jenga's design points.  Paper at 12 shards:
// Network-Wide Logic Storage cuts confirmation latency by ~51.5% (no more
// multi-round cross-shard execution); the Orthogonal Lattice Structure cuts
// another ~15.8% (no cross-shard state fetch/return).
//
// The per-phase table comes from the phase tracer: every committed tx's
// latency is partitioned exactly into state_lock / grant_relay / execute /
// commit intervals, so the per-phase sums reconcile with the end-to-end
// commit latency by construction (checked below to within 1%).
//
// The S=12 points are rerun with the causal tracer on (DESIGN.md §11), so
// the coarse four-interval blame is refined into exact hop-level blame: for
// each committed tx the critical path through the message DAG decomposes its
// latency into per-hop queue-wait / link-latency / service time, aggregated
// per message type below.  The DAG totals must reconcile with the phase
// intervals within 1% (they partition the same [submit, finish] span).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "bench_config.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  using namespace jenga;
  using namespace jenga::bench;
  using namespace jenga::harness;

  header("Fig. 6b — latency breakdown (ablations of the two designs)", "paper Fig. 6b");
  const std::string trace_out = trace_out_from_args(argc, argv);
  ShapeReporter rep;

  const SystemKind systems[] = {SystemKind::kJengaNoGlobalLogic, SystemKind::kJengaNoLattice,
                                SystemKind::kJenga};
  std::map<std::pair<int, std::uint32_t>, double> lat;
  std::map<int, telemetry::PhaseBreakdown> bd12;  // per-system breakdown at S=12
  std::map<int, double> e2e12;                    // tracker-side mean latency at S=12
  std::map<int, std::shared_ptr<telemetry::Telemetry>> tel12;  // causal DAG at S=12
  std::printf("%-16s", "latency (s)");
  for (std::uint32_t s : kShardCounts) std::printf("  S=%-8u", s);
  std::printf("\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-16s", system_name(systems[i]));
    for (std::uint32_t s : kShardCounts) {
      RunConfig cfg = perf_config(systems[i], s);
      cfg.contract_txs /= 4;  // ratios need less volume than absolutes
      cfg.max_inflight /= 4;
      RunResult r = run_experiment(cfg);
      if (s == 12) {
        // Hop-level blame at the headline point: rerun causally traced
        // (passive, so bit-identical) with the span table sized from the
        // untraced run's message count, so that no span is dropped.
        const std::uint64_t messages = r.traffic.total_messages();
        cfg.causal_trace = true;
        cfg.causal_span_capacity = messages + messages / 4 + 4096;
        if (systems[i] == SystemKind::kJenga) cfg.trace_out = trace_out;
        r = run_experiment(cfg);
      }
      lat[{i, s}] = r.latency_s;
      if (s == 12) {
        bd12[i] = r.breakdown;
        e2e12[i] = r.latency_s;
        tel12[i] = r.telemetry;
      }
      std::printf("  %-10.2f", r.latency_s);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // Tracer-derived breakdown at 12 shards: where each design point spends
  // its time, and which phase dominates the critical path.
  std::printf("\nper-phase mean latency at S=12 (s, from the phase tracer)\n");
  std::printf("%-16s", "system");
  for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p)
    std::printf("  %-11s", telemetry::interval_name(p));
  std::printf("  %-9s  %-9s  %-9s  %s\n", "total", "p50", "p99", "dominant");
  for (int i = 0; i < 3; ++i) {
    const auto& b = bd12[i];
    std::printf("%-16s", system_name(systems[i]));
    for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p)
      std::printf("  %-11.3f", b.mean_interval_seconds(p));
    std::printf("  %-9.3f  %-9.3f  %-9.3f  %s\n", b.mean_total_seconds(),
                b.total_hist.quantile(0.5) / static_cast<double>(kSecond),
                b.total_hist.quantile(0.99) / static_cast<double>(kSecond),
                telemetry::interval_name(b.dominant_interval()));
  }
  std::printf("\ncritical-path attribution at S=12 (share of txs whose longest phase is ...)\n");
  std::printf("%-16s", "system");
  for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p)
    std::printf("  %-11s", telemetry::interval_name(p));
  std::printf("\n");
  for (int i = 0; i < 3; ++i) {
    const auto& b = bd12[i];
    const double n = b.committed > 0 ? static_cast<double>(b.committed) : 1.0;
    std::printf("%-16s", system_name(systems[i]));
    for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p)
      std::printf("  %-11.1f", 100.0 * static_cast<double>(b.critical[p]) / n);
    std::printf("\n");
  }

  // Exact hop-level blame at S=12 from the causal DAG: per message type on
  // the critical path, how much commit latency each hop class contributes,
  // split into egress queue-wait vs link latency vs the service gap that
  // preceded the hop.  This replaces interval-level guessing with per-hop
  // attribution ("which message class should we optimize").
  struct DagAgg {
    std::uint64_t txs = 0;
    std::uint64_t reconciled = 0;  // DAG total vs phase intervals within 1%
    double total = 0, queue = 0, link = 0, service = 0, ingress = 0, tail = 0;
    struct PerType {
      std::uint64_t hops = 0;
      double queue = 0, link = 0, service = 0;
    };
    std::map<std::uint16_t, PerType> by_type;
  };
  std::map<int, DagAgg> dag12;
  for (int i = 0; i < 3; ++i) {
    const auto& tel = *tel12[i];
    DagAgg& agg = dag12[i];
    for (const auto& [hash, trace] : tel.tracer.traces()) {
      if (!trace.done || !trace.committed) continue;
      const auto cp = tel.causal.critical_path(hash, trace.submit, trace.finish);
      if (!cp.valid) continue;
      agg.txs += 1;
      SimTime interval_sum = 0;
      for (const SimTime v : trace.intervals()) interval_sum += v;
      const SimTime slop = std::max<SimTime>(2, interval_sum / 100);
      if (std::llabs(cp.total - interval_sum) <= slop) agg.reconciled += 1;
      agg.total += static_cast<double>(cp.total);
      agg.queue += static_cast<double>(cp.queue);
      agg.link += static_cast<double>(cp.link);
      agg.service += static_cast<double>(cp.service);
      agg.ingress += static_cast<double>(cp.ingress_wait);
      agg.tail += static_cast<double>(cp.tail);
      for (const auto& hop : cp.hops) {
        auto& t = agg.by_type[hop.span->msg_type];
        t.hops += 1;
        t.queue += static_cast<double>(hop.span->queue_us());
        t.link += static_cast<double>(hop.span->link_us());
        t.service += static_cast<double>(hop.service_before);
      }
    }
  }

  std::printf("\nDAG hop-level blame at S=12 (critical-path aggregate, causal tracer)\n");
  for (int i = 0; i < 3; ++i) {
    const DagAgg& agg = dag12[i];
    const double n = agg.txs > 0 ? static_cast<double>(agg.txs) : 1.0;
    const telemetry::CausalTracer& causal = tel12[i]->causal;
    std::printf("%s: %" PRIu64 " committed txs, mean critical path %.3f s "
                "(queue %.1f%%, link %.1f%%, service %.1f%%; ingress-wait %.3f s, tail %.3f s; "
                "%zu spans, %" PRIu64 " dropped)\n",
                system_name(systems[i]), agg.txs, agg.total / n / kSecond,
                agg.total > 0 ? 100.0 * agg.queue / agg.total : 0.0,
                agg.total > 0 ? 100.0 * agg.link / agg.total : 0.0,
                agg.total > 0 ? 100.0 * agg.service / agg.total : 0.0,
                agg.ingress / n / kSecond, agg.tail / n / kSecond, causal.span_count(),
                causal.spans_dropped());
    std::printf("  %-18s  %-10s  %-12s  %-12s  %-12s  %s\n", "hop (msg type)",
                "hops/tx", "queue ms/tx", "link ms/tx", "service ms/tx", "share%");
    for (const auto& [type, t] : agg.by_type) {
      const char* name = type < telemetry::MessageTelemetry::kMaxTypes
                             ? tel12[i]->net.type_name[type]
                             : nullptr;
      const double contrib = t.queue + t.link + t.service;
      std::printf("  %-18s  %-10.2f  %-12.3f  %-12.3f  %-12.3f  %.1f\n",
                  name != nullptr ? name : "?", static_cast<double>(t.hops) / n,
                  t.queue / n / kMillisecond, t.link / n / kMillisecond,
                  t.service / n / kMillisecond,
                  agg.total > 0 ? 100.0 * contrib / agg.total : 0.0);
    }
  }

  const double no_nwls12 = lat[{0, 12}], no_ols12 = lat[{1, 12}], full12 = lat[{2, 12}];
  std::printf("\nat 12 shards: NWLS saves %.1f%% (paper: 51.5%%), OLS saves %.1f%% (paper: 15.8%%)\n\n",
              100 * (1 - full12 / no_nwls12), 100 * (1 - full12 / no_ols12));

  rep.check(full12 < no_nwls12, "Fig.6b: NWLS reduces confirmation latency");
  rep.check(full12 < no_ols12, "Fig.6b: OLS reduces confirmation latency");
  rep.check((1 - full12 / no_nwls12) > (1 - full12 / no_ols12),
            "Fig.6b: NWLS saves more latency than OLS (paper: 51.5% vs 15.8%)");

  // Reconciliation: Σ per-phase sums vs (a) the tracer's total and (b) the
  // independent end-to-end latency tracked by the system's stats.
  for (int i = 0; i < 3; ++i) {
    const auto& b = bd12[i];
    std::int64_t phase_sum = 0;
    for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p) phase_sum += b.interval_sum[p];
    const double tracer_total = static_cast<double>(b.total_sum);
    const bool traced_ok =
        b.committed > 0 &&
        std::abs(static_cast<double>(phase_sum) - tracer_total) <= 0.01 * tracer_total;
    rep.check(traced_ok, std::string("Fig.6b: phase sums reconcile with traced total (") +
                             system_name(systems[i]) + ")");
    const double mean_gap = std::abs(b.mean_total_seconds() - e2e12[i]);
    rep.check(b.committed > 0 && mean_gap <= 0.01 * e2e12[i],
              std::string("Fig.6b: traced total matches end-to-end latency within 1% (") +
                  system_name(systems[i]) + ")");
    // DAG-level reconciliation: every committed tx's critical path must
    // partition the same latency the four intervals partition, within 1%.
    const DagAgg& agg = dag12[i];
    rep.check(agg.txs > 0 && agg.reconciled == agg.txs,
              std::string("Fig.6b: DAG critical path reconciles with phase intervals (") +
                  system_name(systems[i]) + ")");
    rep.check(agg.txs > 0 && !agg.by_type.empty() && tel12[i]->causal.spans_dropped() == 0,
              std::string("Fig.6b: hop-level blame table is populated (") +
                  system_name(systems[i]) + ")");
  }
  return rep.finish("bench_fig6b_latency_breakdown");
}
