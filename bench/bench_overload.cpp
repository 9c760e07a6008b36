// Overload sweep: open-loop arrivals at 0.5x-5x the measured saturation
// throughput, Poisson and bursty, through the bounded fee-priority admission
// layer (DESIGN.md §10).  The claim under test is graceful degradation: as
// offered load passes saturation, goodput holds near the service rate while
// the admission layer sheds the excess with reason codes — bounded pool
// depth, bounded p99 for what it admits, no invariant violations, and
// nothing dropped silently (generated = submitted + rejected + expired,
// exactly).
//
// Saturation is self-calibrated per build/scale: a closed-loop run (a credit
// window of 64 over pools that never fill or expire, so admission never
// refuses) measures the pipeline's service rate, and the sweep multiplies
// that.  Emits BENCH_overload.json.  JENGA_OVERLOAD_QUICK=1
// shrinks the sweep to bursty {1x, 3x} for CI smoke runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_config.hpp"
#include "report.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace jenga;
using harness::RunConfig;
using harness::RunResult;
using harness::SystemKind;

bool quick_mode() {
  const char* env = std::getenv("JENGA_OVERLOAD_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

struct CellResult {
  const char* mode = "";
  double mult = 0.0;
  double rate_tps = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  /// Generation skips under kShed backpressure and full-pool retry attempts:
  /// load the admission layer deferred rather than terminally refused (a
  /// finite open-loop workload with working backpressure eventually admits).
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;
  std::uint64_t evicted = 0;
  double goodput_tps = 0.0;
  double p99_commit_s = 0.0;
  double p99_wait_s = 0.0;
  /// p99 commit + p99 pool wait: an upper-bound proxy for the end-to-end p99
  /// of admitted transactions (the two distributions are not joined per tx).
  double p99_admitted_s = 0.0;
  double rejection_rate = 0.0;
  /// Mean pool wait of the lowest fee tier over the highest — aging keeps
  /// this bounded instead of letting low-fee traffic starve.
  double fairness_ratio = 0.0;
  std::size_t peak_resident = 0;
  std::size_t capacity = 0;
  bool invariants_ok = false;
};

RunConfig base_config(std::size_t total_txs) {
  RunConfig cfg;
  cfg.kind = SystemKind::kJenga;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = total_txs * 3 / 4;
  cfg.transfer_txs = total_txs - cfg.contract_txs;
  cfg.max_sim_time = 3600 * kSecond;
  cfg.trace.num_contracts = 600;
  cfg.trace.num_accounts = 2000;
  cfg.trace.max_steps = 10;
  cfg.trace.max_contracts_per_tx = 5;
  return cfg;
}

CellResult run_cell(workload::ArrivalMode mode, double mult, double sat_tps,
                    std::size_t total_txs) {
  RunConfig cfg = base_config(total_txs);
  cfg.arrival.mode = mode;
  cfg.arrival.rate_tps = mult * sat_tps;
  if (mode == workload::ArrivalMode::kBursty) {
    cfg.arrival.burst_period = 20 * kSecond;
    cfg.arrival.burst_duration = 4 * kSecond;
    cfg.arrival.burst_multiplier = 3.0;
  }
  cfg.mempool.capacity = 8;  // per ingress shard; small enough to bite at 2x+
  cfg.mempool.ttl = 30 * kSecond;
  cfg.max_inflight = 64;
  const RunResult r = harness::run_experiment(cfg);

  CellResult c;
  c.mode = workload::arrival_mode_name(mode);
  c.mult = mult;
  c.rate_tps = cfg.arrival.rate_tps;
  c.generated = r.ingress.client.generated;
  c.submitted = r.stats.submitted;
  c.committed = r.stats.committed;
  c.rejected = r.stats.rejected;
  c.expired = r.stats.expired;
  c.shed = r.ingress.client.shed;
  c.retries = r.ingress.client.retries;
  c.evicted = r.ingress.pools.totals.evicted;
  c.goodput_tps = r.tps;
  c.p99_commit_s = r.stats.latency_quantiles_seconds({0.99})[0];
  // Pool wait, merged across fee tiers (recorded in microseconds).
  telemetry::Histogram waits;
  telemetry::Histogram tier_means[mempool::kFeeTiers];
  if (r.telemetry) {
    for (std::uint8_t t = 0; t < mempool::kFeeTiers; ++t) {
      const auto* h = r.telemetry->registry.find_histogram("mempool.wait_us.tier" +
                                                           std::to_string(t));
      if (h == nullptr) continue;
      waits.merge(*h);
      tier_means[t] = *h;
    }
  }
  c.p99_wait_s = waits.quantile(0.99) / static_cast<double>(kSecond);
  c.p99_admitted_s = c.p99_commit_s + c.p99_wait_s;
  c.rejection_rate = c.generated == 0 ? 0.0
                                      : static_cast<double>(c.rejected + c.expired) /
                                            static_cast<double>(c.generated);
  const double low = tier_means[0].mean();
  const double high = tier_means[mempool::kFeeTiers - 1].mean();
  c.fairness_ratio = high > 0.0 ? low / high : (low > 0.0 ? 1e9 : 1.0);
  c.peak_resident = r.ingress.pools.peak_resident;
  c.capacity = cfg.mempool.capacity * cfg.num_shards;
  c.invariants_ok = r.ingress.invariants_audited && r.ingress.invariants.ok();
  if (!c.invariants_ok && r.ingress.invariants_audited)
    std::printf("%s\n", r.ingress.invariants.describe().c_str());
  return c;
}

std::string to_json(double sat_tps, const std::vector<CellResult>& cells) {
  std::ostringstream out;
  out << "{\"bench\":\"overload\",\"saturation_tps\":" << sat_tps << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"mode\":\"%s\",\"mult\":%.1f,\"rate_tps\":%.2f,"
                  "\"generated\":%llu,\"submitted\":%llu,\"committed\":%llu,"
                  "\"rejected\":%llu,\"expired\":%llu,\"shed\":%llu,\"retries\":%llu,"
                  "\"evicted\":%llu,\"goodput_tps\":%.3f,"
                  "\"p99_commit_s\":%.3f,\"p99_wait_s\":%.3f,\"p99_admitted_s\":%.3f,"
                  "\"rejection_rate\":%.4f,\"fairness_ratio\":%.3f,"
                  "\"peak_resident\":%zu,\"capacity\":%zu,\"invariants_ok\":%s}",
                  c.mode, c.mult, c.rate_tps, static_cast<unsigned long long>(c.generated),
                  static_cast<unsigned long long>(c.submitted),
                  static_cast<unsigned long long>(c.committed),
                  static_cast<unsigned long long>(c.rejected),
                  static_cast<unsigned long long>(c.expired),
                  static_cast<unsigned long long>(c.shed),
                  static_cast<unsigned long long>(c.retries),
                  static_cast<unsigned long long>(c.evicted), c.goodput_tps, c.p99_commit_s,
                  c.p99_wait_s, c.p99_admitted_s, c.rejection_rate, c.fairness_ratio,
                  c.peak_resident, c.capacity, c.invariants_ok ? "true" : "false");
    out << (i ? "," : "") << buf;
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main() {
  using namespace jenga::bench;

  header("Overload — goodput and tail latency at 0.5x-5x saturation",
         "graceful degradation under open-loop load, DESIGN.md SS10");
  ShapeReporter rep;

  const std::size_t total_txs = jenga::harness::bench_txs_from_env(quick_mode() ? 120 : 240);

  // Saturation reference: closed-loop (a bounded backlog keeps the pipeline
  // busy without an unbounded queue).
  RunConfig closed = base_config(total_txs);
  credit_window(closed, 64);
  const RunResult sat = jenga::harness::run_experiment(closed);
  const double sat_tps = sat.tps;
  std::printf("saturation (closed-loop, window 64): %.2f tps, p99 %.2fs\n\n", sat_tps,
              sat.stats.latency_quantiles_seconds({0.99})[0]);
  rep.check(sat_tps > 0, "closed-loop saturation measurement produced a positive rate");

  std::vector<double> mults = {0.5, 1.0, 2.0, 3.0, 5.0};
  std::vector<jenga::workload::ArrivalMode> modes = {jenga::workload::ArrivalMode::kPoisson,
                                                     jenga::workload::ArrivalMode::kBursty};
  if (quick_mode()) {
    std::printf("(JENGA_OVERLOAD_QUICK=1: bursty {1x, 3x} only)\n");
    mults = {1.0, 3.0};
    modes = {jenga::workload::ArrivalMode::kBursty};
  }

  std::vector<CellResult> cells;
  std::printf("%-9s %-5s %-9s %-9s %-9s %-8s %-9s %-9s %-8s %-7s %-10s\n", "mode", "mult",
              "rate", "committed", "rejected", "expired", "goodput", "p99adm(s)", "rej%",
              "peak", "invariants");
  for (const auto mode : modes) {
    for (const double mult : mults) {
      const CellResult c = run_cell(mode, mult, sat_tps, total_txs);
      std::printf("%-9s %-5.1f %-9.2f %-9llu %-9llu %-8llu %-9.2f %-9.2f %-8.2f %-7zu %-10s\n",
                  c.mode, c.mult, c.rate_tps, static_cast<unsigned long long>(c.committed),
                  static_cast<unsigned long long>(c.rejected),
                  static_cast<unsigned long long>(c.expired), c.goodput_tps, c.p99_admitted_s,
                  100.0 * c.rejection_rate, c.peak_resident,
                  c.invariants_ok ? "ok" : "VIOLATION");
      std::fflush(stdout);
      cells.push_back(c);
    }
  }
  std::printf("\n");

  bool all_invariants = true;
  bool all_accounted = true;
  bool all_bounded = true;
  const CellResult* ref_1x = nullptr;   // unit-load reference for the p99 bound
  const CellResult* peak_cell = nullptr;  // most-overloaded bursty cell
  for (const CellResult& c : cells) {
    all_invariants = all_invariants && c.invariants_ok;
    // Nothing silent: every generated tx is submitted or reason-coded.
    all_accounted = all_accounted && (c.generated == c.submitted + c.rejected + c.expired);
    all_bounded = all_bounded && (c.peak_resident <= c.capacity);
    if (c.mult == 1.0 && (ref_1x == nullptr || std::strcmp(c.mode, "poisson") == 0))
      ref_1x = &c;
    if (std::strcmp(c.mode, "bursty") == 0 && (peak_cell == nullptr || c.mult > peak_cell->mult))
      peak_cell = &c;
  }

  rep.check(all_invariants, "safety + admission invariants hold in every cell");
  rep.check(all_accounted,
            "every generated tx is accounted: submitted, rejected, or expired (no silent drops)");
  rep.check(all_bounded, "pool residency never exceeds configured capacity in any cell");

  bool overload_bites = false;
  for (const CellResult& c : cells)
    if (c.mult >= 3.0)
      overload_bites =
          overload_bites || (c.rejected + c.expired + c.shed + c.retries + c.evicted > 0);
  if (quick_mode() || ref_1x == nullptr || peak_cell == nullptr) {
    rep.check(peak_cell != nullptr, "sweep produced an overloaded bursty cell");
  }
  if (ref_1x != nullptr && peak_cell != nullptr) {
    rep.check(overload_bites,
              ">=3x cells push back (reject/expire/shed/retry/evict) through admission control");
    rep.check(peak_cell->goodput_tps >= 0.8 * sat_tps,
              "goodput at peak bursty overload stays >= 80% of saturation");
    rep.check(peak_cell->p99_admitted_s <= 3.0 * ref_1x->p99_admitted_s,
              "p99 of admitted txs at peak overload within 3x of the 1x-load p99");
  }

  const std::string json = to_json(sat_tps, cells);
  std::printf("\nJSON: %s\n", json.c_str());
  std::ofstream("BENCH_overload.json") << json << "\n";
  std::printf("wrote BENCH_overload.json\n");
  return rep.finish("bench_overload");
}
