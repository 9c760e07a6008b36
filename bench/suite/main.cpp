// bench_suite: the repository benchmark.  README.md has the metric glossary,
// the reasons for each workload and how to run and compare.
//
//   bench_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   bench_suite --list
//
// --trace 0 measures the end-to-end metrics.  Reps of the workload run one
// after another, cycling through its input sets, until every input set ran
// and S seconds passed.  Each rep is paired with a set-up rep (the same config
// with max_sim_time = 0: build, genesis and teardown, no events).  Every rep
// runs in a forked child, so the parent reads that child's peak RSS with
// wait4 and no rep inherits another's heap.  wall_s, the host time spent on
// events, goes on the meta line.
//
// --trace 1 measures the per-layer metrics on the first input set: one set-up
// rep, one untraced rep for the counts, one rep with causal tracing for the
// critical-path split, and the layer microbenchmarks (layers.cpp).
//
// Every layer is measured from outside: by timing calls into its public
// functions and by reading what RunResult, MetricsRegistry, PhaseTracer and
// CausalTracer already export.  The last line of stdout is one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
// and the exit code is 1 when a correctness check failed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "simnet/message.hpp"
#include "suite.hpp"

namespace jenga::suite {
namespace {

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- build identity ----------------------------------------------------------

#ifndef JENGA_BUILD_TYPE
#define JENGA_BUILD_TYPE "unknown"
#endif
#ifndef JENGA_CXX_FLAGS
#define JENGA_CXX_FLAGS ""
#endif

constexpr bool kAssertsOn =
#ifdef NDEBUG
    false;
#else
    true;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

/// Timings from a Debug or sanitizer build say nothing about the product.
bool build_is_measurable() {
  const std::string type = JENGA_BUILD_TYPE;
  return !kAssertsOn && !kSanitized && type != "Debug" &&
         std::string(JENGA_CXX_FLAGS).find("-fsanitize") == std::string::npos;
}

// --- one rep in a forked child ------------------------------------------------

/// What one child reports back over its pipe, one item per line.
struct RepRecord {
  std::vector<Metric> metrics;
  std::map<std::string, std::string> digests;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;  // printed verbatim by the parent
  double peak_rss_mb = 0;          // filled by the parent from wait4
  bool exited_ok = false;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] double value(const std::string& name) const {
    for (const Metric& m : metrics)
      if (m.name == name) return m.value;
    return 0;
  }
};

std::string serialize(const RepRecord& r) {
  std::ostringstream out;
  char buf[64];
  for (const Metric& m : r.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out << "m " << m.name << ' ' << m.unit << ' ' << buf << '\n';
  }
  for (const auto& [name, hex] : r.digests) out << "d " << name << ' ' << hex << '\n';
  for (const auto& [name, ok] : r.checks) out << "c " << (ok ? 1 : 0) << ' ' << name << '\n';
  for (const std::string& note : r.notes) {
    std::istringstream lines(note);
    for (std::string line; std::getline(lines, line);) out << "n " << line << '\n';
  }
  return out.str();
}

RepRecord parse(const std::string& text) {
  RepRecord r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    std::istringstream fields(line.substr(2));
    switch (line[0]) {
      case 'm': {
        Metric m;
        std::string value;
        fields >> m.name >> m.unit >> value;
        m.value = std::strtod(value.c_str(), nullptr);
        r.metrics.push_back(std::move(m));
        break;
      }
      case 'd': {
        std::string name, hex;
        fields >> name >> hex;
        r.digests[name] = hex;
        break;
      }
      case 'c': {
        int ok = 0;
        fields >> ok;
        std::string name;
        std::getline(fields >> std::ws, name);
        r.checks.emplace_back(name, ok == 1);
        break;
      }
      case 'n': r.notes.push_back(line.substr(2)); break;
      default: break;
    }
  }
  return r;
}

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Runs `body` in a forked child and returns what it recorded, plus the
/// child's peak RSS.  The parent waits for the child in every case.
RepRecord run_in_child(const std::function<void(RepRecord&)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    return {};
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      RepRecord rec;
      body(rec);
      if (!write_all(fds[1], serialize(rec))) code = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: rep failed: %s\n", e.what());
      code = 1;
    }
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  RepRecord rec = parse(text);
  rec.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  rec.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return rec;
}

// --- what a rep measures -------------------------------------------------------

constexpr double kSimSecond = static_cast<double>(kSecond);  // SimTime is in µs

double quantile(const telemetry::MetricsRegistry& reg, const char* name, double q) {
  const telemetry::Histogram* h = reg.find_histogram(name);
  return h == nullptr ? 0 : h->quantile(q);
}

double counter(const telemetry::MetricsRegistry& reg, const char* name) {
  const telemetry::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0 : static_cast<double>(c->value());
}

/// Longest stretch of simulated time with no commit anywhere, from the first
/// submission to the last commit.
double commit_gap_max_s(const harness::RunResult& r) {
  std::vector<SimTime> finishes;
  for (const auto& [hash, trace] : r.telemetry->tracer.traces())
    if (trace.done && trace.committed) finishes.push_back(trace.finish);
  if (finishes.empty()) return 0;
  std::sort(finishes.begin(), finishes.end());
  SimTime gap = finishes.front() - r.stats.first_submit_time;
  for (std::size_t i = 1; i < finishes.size(); ++i)
    gap = std::max(gap, finishes[i] - finishes[i - 1]);
  return static_cast<double>(gap) / kSimSecond;
}

/// Safety from the post-drain audit.  Limbo, stuck 2PC rounds and leaked
/// locks are outcomes (they count toward fail_ratio), not gate failures.
bool safety_holds(const harness::RunResult& r) {
  const security::InvariantReport& inv = r.ingress.invariants;
  return r.ingress.invariants_audited && inv.balance_conserved() &&
         inv.divergent_decides == 0 && inv.state_sync_root_mismatches == 0 &&
         inv.boundary_lock_leaks == 0 && inv.boundary_balance_mismatches == 0 &&
         inv.mempool_bounded() && inv.mempool_unaccounted == 0;
}

/// Committed-tx floor checked on every rep: p99 needs >= 10 samples beyond it.
constexpr std::uint64_t kMinCommits = 1000;

void record_run(const harness::RunResult& r, RepRecord& rec) {
  const telemetry::MetricsRegistry& reg = r.telemetry->registry;
  const double committed = static_cast<double>(r.stats.committed);
  const double generated = static_cast<double>(r.ingress.client.generated);

  // Simulated end-to-end metrics.  Latency runs from dispatch into the system
  // to commit; queue wait from mempool admission to dispatch.
  const std::vector<double> lat = r.stats.latency_quantiles_seconds({0.5, 0.99});
  telemetry::Histogram waits;
  for (std::uint8_t t = 0; t < mempool::kFeeTiers; ++t)
    if (const auto* h = reg.find_histogram("mempool.wait_us.tier" + std::to_string(t)))
      waits.merge(*h);
  rec.add("tps", r.tps, "tx/s");
  rec.add("latency_p50_s", lat[0], "s");
  rec.add("latency_p99_s", lat[1], "s");
  rec.add("latency_samples", committed, "count");
  rec.add("queue_wait_p99_s", waits.quantile(0.99) / kSimSecond, "s");
  rec.add("commit_gap_max_s", commit_gap_max_s(r), "s");
  rec.add("generated", generated, "count");
  rec.add("committed", committed, "count");
  rec.add("fail_ratio", ratio(generated - committed, generated), "ratio");

  // simnet
  const double events = static_cast<double>(r.sim_events);
  rec.add("simnet.events", events, "count");
  rec.add("simnet.events_per_tx", ratio(events, committed), "events/tx");
  rec.add("simnet.msgs_per_tx",
          ratio(static_cast<double>(r.traffic.total_messages()), committed), "msgs/tx");
  rec.add("simnet.bytes_per_tx", ratio(static_cast<double>(r.traffic.total_bytes()), committed),
          "B/tx");
  const telemetry::Gauge* node_bytes = reg.find_gauge("net.node_bytes_max");
  rec.add("simnet.node_bytes_max", node_bytes ? static_cast<double>(node_bytes->value()) : 0,
          "B");
  rec.add("simnet.hop_delay_p99_s",
          r.telemetry->net.hop_delay_us.quantile(0.99) / kSimSecond, "s");
  rec.add("simnet.messages", static_cast<double>(r.traffic.total_messages()), "count");

  // consensus: counters count one decide per deciding replica.
  rec.add("consensus.rounds", counter(reg, "bft.rounds"), "count");
  rec.add("consensus.view_changes", counter(reg, "bft.view_changes"), "count");
  rec.add("consensus.round_p50_s", quantile(reg, "bft.round_us", 0.5) / kSimSecond, "s");
  rec.add("consensus.round_p99_s", quantile(reg, "bft.round_us", 0.99) / kSimSecond, "s");

  // core: share of committed latency per pipeline phase.
  const telemetry::PhaseBreakdown& b = r.breakdown;
  const char* phase_metric[telemetry::kIntervalCount] = {
      "core.state_lock_share", "core.grant_relay_share", "core.execute_share",
      "core.commit_share"};
  for (std::size_t i = 0; i < telemetry::kIntervalCount; ++i)
    rec.add(phase_metric[i],
            ratio(static_cast<double>(b.interval_sum[i]), static_cast<double>(b.total_sum)),
            "ratio");
  rec.add("core.twopc_stuck_flags", counter(reg, "twopc.stuck"), "count");
  rec.add("core.recovery_resolved", static_cast<double>(r.recovery.resolved), "count");
  rec.add("core.limbo_txs", static_cast<double>(r.ingress.invariants.limbo_txs), "count");

  // crypto: every deciding replica verifies a prepared and a commit
  // certificate; relays verify the certificates of what they forward.
  const core::CertVerifyStats& cc = r.cert_checks;
  rec.add("crypto.cert_checks",
          2 * counter(reg, "bft.rounds") +
              static_cast<double>(cc.individual_checks + cc.batch_certs),
          "count");

  // exec
  rec.add("exec.batches", counter(reg, "exec.batches"), "count");
  rec.add("exec.tasks_per_batch_p50", quantile(reg, "exec.batch.tasks", 0.5), "count");
  rec.add("exec.util_bound_pct_p50", quantile(reg, "exec.batch.util_bound_pct", 0.5), "%");

  // mempool
  rec.add("mempool.dispatched", counter(reg, "mempool.dispatched"), "count");
  rec.add("mempool.peak_resident", static_cast<double>(r.ingress.pools.peak_resident), "count");

  // security
  rec.add("security.detector_samples", static_cast<double>(r.detector.samples), "count");
  rec.add("security.suspicions", static_cast<double>(r.detector.suspicions), "count");
  rec.add("security.pairs_est",
          static_cast<double>(r.total_nodes) * static_cast<double>(r.nodes_per_shard), "count");
  rec.add("nodes_per_shard", static_cast<double>(r.nodes_per_shard), "count");

  rec.digests["ledger"] = to_hex(r.ledger_digest);
  rec.digests["state"] = to_hex(r.state_digest);
  rec.digests["admission"] = to_hex(r.ingress.admission_digest);
  const bool safe = safety_holds(r);
  rec.checks.emplace_back("safety invariants hold", safe);
  if (!safe) rec.notes.push_back(r.ingress.invariants.describe());
  rec.checks.emplace_back("commits >= " + std::to_string(kMinCommits),
                          r.stats.committed >= kMinCommits);
}

/// Critical-path split of every committed tx (causally traced rep only).
void record_trace(const harness::RunResult& r, RepRecord& rec) {
  const telemetry::CausalTracer& causal = r.telemetry->causal;
  double queue = 0, link = 0, service = 0, total = 0;
  for (const auto& [hash, trace] : r.telemetry->tracer.traces()) {
    if (!trace.done || !trace.committed) continue;
    const auto cp = causal.critical_path(hash, trace.submit, trace.finish);
    if (!cp.valid) continue;
    queue += static_cast<double>(cp.queue);
    link += static_cast<double>(cp.link);
    service += static_cast<double>(cp.service);
    total += static_cast<double>(cp.total);
  }
  rec.add("core.dag_queue_share", ratio(queue, total), "ratio");
  rec.add("core.dag_link_share", ratio(link, total), "ratio");
  rec.add("core.dag_service_share", ratio(service, total), "ratio");
  rec.add("telemetry.spans", static_cast<double>(causal.span_count()), "count");
  rec.add("telemetry.spans_dropped", static_cast<double>(causal.spans_dropped()), "count");
  rec.checks.emplace_back("traced rep drops no spans", causal.spans_dropped() == 0);
  const auto& per_type = r.telemetry->net.per_type;
  for (std::size_t t = 0; t < per_type.size(); ++t) {
    if (per_type[t].count == 0) continue;
    const char* name = sim::msg_type_name(static_cast<sim::MsgType>(t));
    rec.notes.push_back("msgtype " + std::string(name ? name : "?") + " count=" +
                        std::to_string(per_type[t].count) +
                        " bytes=" + std::to_string(per_type[t].bytes));
  }
}

RepRecord setup_rep(const Workload& w, std::uint64_t seed) {
  return run_in_child([&](RepRecord& rec) {
    harness::RunConfig cfg = w.config(seed);
    cfg.max_sim_time = 0;
    const auto t0 = Clock::now();
    const harness::RunResult r = harness::run_experiment(cfg);
    rec.add("setup_s", seconds_since(t0), "s");
    rec.checks.emplace_back("set-up rep processes no events", r.sim_events == 0);
  });
}

/// One full run of the workload; `span_capacity` > 0 turns causal tracing on.
RepRecord full_rep(const Workload& w, std::uint64_t seed, std::size_t span_capacity) {
  return run_in_child([&](RepRecord& rec) {
    harness::RunConfig cfg = w.config(seed);
    if (span_capacity > 0) {
      cfg.causal_trace = true;
      cfg.causal_span_capacity = span_capacity;
    }
    const auto t0 = Clock::now();
    const harness::RunResult r = harness::run_experiment(cfg);
    rec.add("run_s", seconds_since(t0), "s");
    record_run(r, rec);
    if (span_capacity > 0) record_trace(r, rec);
  });
}

RepRecord micro_rep(std::uint64_t seed) {
  return run_in_child([&](RepRecord& rec) { rec.metrics = run_layer_micros(seed); });
}

// --- the parent's view -------------------------------------------------------

/// Everything one invocation measured and checked.
struct Measurement {
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<RepRecord> reps;  // full reps, in run order
  std::vector<double> setups;   // setup_s of each set-up rep
  std::vector<Metric> metrics;  // what the result line reports
  double wall_s = 0;            // host time processing events (meta line)
  std::uint64_t attempted = 0;  // txs generated over all full reps
  std::uint64_t failed = 0;     // of those, not committed

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  [[nodiscard]] bool ok() const {
    return std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
  }
  void absorb_checks(const RepRecord& rec, const std::string& label) {
    check(label + " exited cleanly", rec.exited_ok);
    for (const auto& [name, ok] : rec.checks) check(label + ": " + name, ok);
  }
  void add_setup(const RepRecord& rec) {
    absorb_checks(rec, "set-up rep " + std::to_string(setups.size() + 1));
    setups.push_back(rec.value("setup_s"));
  }
  void add_full(RepRecord rec, const std::string& label) {
    absorb_checks(rec, label);
    const auto generated = static_cast<std::uint64_t>(rec.value("generated"));
    attempted += generated;
    failed += generated - std::min(generated, static_cast<std::uint64_t>(rec.value("committed")));
    std::printf("%s: run %.3f s, peak RSS %.1f MB\n", label.c_str(), rec.value("run_s"),
                rec.peak_rss_mb);
    reps.push_back(std::move(rec));
  }

  /// Simulated outputs are deterministic: every full rep of one input set,
  /// traced or not, must agree bit for bit on digests and simulated metrics.
  /// Reps cycle through `inputs` input sets, so rep i repeats rep i - inputs.
  void check_repeatable(std::size_t inputs) {
    static const char* kSimulated[] = {"tps", "latency_p50_s", "latency_p99_s",
                                       "queue_wait_p99_s", "commit_gap_max_s", "committed",
                                       "simnet.events"};
    bool same = !reps.empty();
    std::size_t repeats = 0;
    for (std::size_t i = 0; same && i < reps.size(); ++i) {
      same = reps[i].digests.size() == 3;
      if (i < inputs) continue;
      const RepRecord& first = reps[i - inputs];
      same = same && reps[i].digests == first.digests;
      for (const char* name : kSimulated) same = same && reps[i].value(name) == first.value(name);
      ++repeats;
    }
    check("digests and simulated metrics repeat (" + std::to_string(repeats) +
              " repeated reps)",
          same);
  }
};

Metric find_metric(const RepRecord& rec, const std::string& name) {
  for (const Metric& m : rec.metrics)
    if (m.name == name) return m;
  return {name, 0, "missing"};
}

/// Least number of set-up reps per --trace 0 run; setup_s is their median.
constexpr std::size_t kMinSetupReps = 3;

/// --trace 0: set-up and full reps in pairs, cycling through the input sets,
/// until every input set ran and `seconds` passed.  Simulated metrics are the
/// median over the input sets; host metrics the median over all reps.
void measure_end_to_end(const Workload& w, std::uint64_t seed, double seconds, Measurement& m) {
  const auto t0 = Clock::now();
  while (m.reps.size() < w.inputs || seconds_since(t0) < seconds) {
    const std::uint64_t input_seed =
        w.input_seed(seed, static_cast<std::uint32_t>(m.reps.size() % w.inputs));
    m.add_setup(setup_rep(w, input_seed));
    m.add_full(full_rep(w, input_seed, 0),
               "rep " + std::to_string(m.reps.size() + 1) + " (seed " +
                   std::to_string(input_seed) + ")");
    if (!m.ok()) return;
  }
  while (m.setups.size() < kMinSetupReps) m.add_setup(setup_rep(w, w.input_seed(seed, 0)));
  m.check_repeatable(w.inputs);

  std::vector<double> runs, rss;
  for (const RepRecord& r : m.reps) {
    runs.push_back(r.value("run_s"));
    rss.push_back(r.peak_rss_mb);
  }
  const auto over_inputs = [&](const char* name) {
    std::vector<double> v;
    for (std::size_t i = 0; i < w.inputs; ++i) v.push_back(m.reps[i].value(name));
    return v;
  };
  for (const char* name : {"tps", "latency_p50_s", "latency_p99_s", "queue_wait_p99_s"})
    m.metrics.push_back({name, median(over_inputs(name)), find_metric(m.reps[0], name).unit});
  const double setup_s = median(m.setups);
  m.wall_s = median(runs) - setup_s;
  m.metrics.push_back({"setup_s", setup_s, "s"});
  m.metrics.push_back({"peak_rss_mb", median(rss), "MB"});
  const std::vector<double> committed = over_inputs("committed");
  std::printf("latency samples: %.0f to %.0f committed per input set, %u input sets\n",
              *std::min_element(committed.begin(), committed.end()),
              *std::max_element(committed.begin(), committed.end()), w.inputs);
  std::printf("wall_s (median full rep - setup_s, not gated): %.4f s\n", m.wall_s);
}

/// --trace 1: one set-up rep, one untraced rep and one causally traced rep of
/// the first input set, and the layer microbenchmarks.
void measure_layers(const Workload& w, std::uint64_t seed, Measurement& m) {
  const std::uint64_t input_seed = w.input_seed(seed, 0);
  m.add_setup(setup_rep(w, input_seed));
  m.add_full(full_rep(w, input_seed, 0), "untraced rep");
  // Room for every message of the untraced rep, so no span is dropped.
  const auto messages = static_cast<std::size_t>(m.reps[0].value("simnet.messages"));
  m.add_full(full_rep(w, input_seed, messages + messages / 4 + 4096), "traced rep");
  const RepRecord micro = micro_rep(seed);
  m.absorb_checks(micro, "microbenchmarks");
  if (!m.ok()) return;
  m.check_repeatable(1);

  const RepRecord& plain = m.reps[0];
  const RepRecord& traced = m.reps[1];
  const double wall = plain.value("run_s") - m.setups[0];
  m.wall_s = wall;
  const double traced_wall = traced.value("run_s") - m.setups[0];
  const double events = plain.value("simnet.events");
  const double cert_checks = plain.value("crypto.cert_checks");
  // Multisig verification is linear in the signer count.
  const double verify_us = micro.value("crypto.multisig_verify_us_k240") / 240 *
                           plain.value("nodes_per_shard");
  // Detector cost grows with its pair table: interpolate the two measured
  // sizes on a log scale at this workload's estimated table size.
  const double pairs = std::clamp(plain.value("security.pairs_est"), 30e3, 700e3);
  const double pos = std::log(pairs / 30e3) / std::log(700e3 / 30e3);
  const double arrival_ns = micro.value("security.detector_arrival_ns_30k") * (1 - pos) +
                            micro.value("security.detector_arrival_ns_700k") * pos;

  struct Source {
    const RepRecord* rec;
    std::vector<const char*> names;
  };
  const Source sources[] = {
      {&plain,
       {"commit_gap_max_s", "fail_ratio", "latency_samples", "simnet.events",
        "simnet.events_per_tx", "simnet.msgs_per_tx", "simnet.bytes_per_tx",
        "simnet.node_bytes_max", "simnet.hop_delay_p99_s", "consensus.rounds",
        "consensus.view_changes", "consensus.round_p50_s", "consensus.round_p99_s",
        "core.state_lock_share", "core.grant_relay_share", "core.execute_share",
        "core.commit_share", "core.twopc_stuck_flags", "core.recovery_resolved",
        "core.limbo_txs", "exec.batches", "exec.tasks_per_batch_p50",
        "exec.util_bound_pct_p50", "mempool.dispatched", "mempool.peak_resident",
        "security.detector_samples", "security.suspicions"}},
      {&traced,
       {"core.dag_queue_share", "core.dag_link_share", "core.dag_service_share",
        "telemetry.spans", "telemetry.spans_dropped"}},
  };
  for (const Source& src : sources)
    for (const char* name : src.names) m.metrics.push_back(find_metric(*src.rec, name));
  m.metrics.insert(m.metrics.end(), micro.metrics.begin(), micro.metrics.end());
  m.metrics.push_back({"wall_s", wall, "s"});
  m.metrics.push_back({"simnet.events_per_wall_s", ratio(events, wall), "events/s"});
  m.metrics.push_back({"simnet.busy_s_est", events * micro.value("simnet.step_ns") / 1e9, "s"});
  m.metrics.push_back(
      {"crypto.cert_checks_per_tx", ratio(cert_checks, plain.value("committed")), "checks/tx"});
  m.metrics.push_back({"crypto.busy_s_est", cert_checks * verify_us / 1e6, "s"});
  m.metrics.push_back(
      {"security.busy_s_est", plain.value("security.detector_samples") * arrival_ns / 1e9, "s"});
  m.metrics.push_back(
      {"telemetry.trace_overhead_pct", ratio(traced_wall - wall, wall) * 100, "%"});
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Prints the human-readable report, the meta line and, last, the result
/// line.  Returns the process exit code.
int report(const Workload& w, std::uint64_t seed, int trace, const Measurement& m) {
  std::size_t failed_checks = 0;
  for (const auto& [name, ok] : m.checks) {
    if (ok) continue;
    ++failed_checks;
    std::printf("check FAILED: %s\n", name.c_str());
  }
  for (const RepRecord& rec : m.reps)
    for (const std::string& n : rec.notes) std::printf("%s\n", n.c_str());
  std::printf("checks: %zu passed, %zu failed\n", m.checks.size() - failed_checks,
              failed_checks);
  for (const Metric& metric : m.metrics)
    std::printf("  %-36s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());

  const auto digest = [&](const char* name) -> std::string {
    if (m.reps.empty()) return "";
    const auto it = m.reps.front().digests.find(name);
    return it == m.reps.front().digests.end() ? "" : it->second;
  };
  std::printf(
      "meta {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"inputs\":%u,\"reps\":%zu,"
      "\"setup_reps\":%zu,\"build_type\":\"%s\",\"compiler\":\"%s\",\"nproc\":%ld,"
      "\"ledger_digest\":\"%s\",\"admission_digest\":\"%s\",\"wall_s\":%.6f}\n",
      w.name, static_cast<unsigned long long>(seed), trace, trace == 0 ? w.inputs : 1,
      m.reps.size(), m.setups.size(), JENGA_BUILD_TYPE, compiler(),
      ::sysconf(_SC_NPROCESSORS_ONLN), digest("ledger").c_str(), digest("admission").c_str(),
      m.wall_s);

  std::string json = std::string("{\"correct\":") + (m.ok() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(m.attempted) +
                     ",\"failed\":" + std::to_string(m.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < m.metrics.size(); ++i) {
    const Metric& metric = m.metrics[i];
    json += (i ? ",\"" : "\"") + metric.name + "\":{\"value\":" + json_number(metric.value) +
            ",\"unit\":\"" + metric.unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  return m.ok() ? 0 : 1;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  bool list = false;
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      o.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      o.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v)) return false;
  }
  return o.list || (!o.workload.empty() && o.seconds >= 0 && (o.trace == 0 || o.trace == 1));
}

}  // namespace
}  // namespace jenga::suite

int main(int argc, char** argv) {
  using namespace jenga::suite;
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       bench_suite --list\n");
    return 2;
  }
  if (opt.list) {
    for (const Workload& w : workloads()) std::printf("%s\t%s\n", w.name, w.shape);
    return 0;
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "bench_suite: unknown workload '%s' (see --list)\n",
                 opt.workload.c_str());
    return 2;
  }
  Measurement m;
  m.check("build is optimized and not sanitized (" + std::string(JENGA_BUILD_TYPE) + ")",
          build_is_measurable());
  if (opt.trace == 0) {
    measure_end_to_end(*w, opt.seed, opt.seconds, m);
  } else {
    measure_layers(*w, opt.seed, m);
  }
  return report(*w, opt.seed, opt.trace, m);
}
