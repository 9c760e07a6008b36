// Telemetry context: one per run, wired (by pointer) into the network, the
// consensus replicas and the system under test.  Everything here is passive —
// recording never draws randomness, never schedules events, and therefore
// never perturbs a simulation: a run with telemetry attached is bit-identical
// to one without.
//
// Export format (`--trace-out <file>.jsonl`): one flat JSON object per line,
// discriminated by "kind":
//   meta       {"kind":"meta","version":1,"traced_txs":N,"committed":N,...}
//   metric     {"kind":"metric","type":"counter|gauge","name":..,"value":..}
//              {"kind":"metric","type":"histogram","name":..,"count":..,
//               "sum":..,"min":..,"max":..,"mean":..,"p50":..,"p99":..}
//   msgtype    {"kind":"msgtype","id":..,"name":..,"count":..,"bytes":..}
//   phase_hist {"kind":"phase_hist","phase":..,"count":..,"sum_us":..,
//               "mean_s":..,"p50_s":..,"p99_s":..,"critical":..}
//   tx         {"kind":"tx","hash":..,"outcome":"commit|abort|incomplete",
//               "submit_us":..,"finish_us":..,"state_lock_us":..,
//               "grant_relay_us":..,"execute_us":..,"commit_us":..,
//               "critical":..}
//   cspan      {"kind":"cspan","id":..,"parent":..,"type":..,"from":..,
//               "to":..,"send_us":..,"depart_us":..,"arrive_us":..}
//               (causal tracing only; ids strictly ascending, parent < id)
// Tx lines additionally carry "dag_hops"/"dag_total_us"/"dag_queue_us"/
// "dag_link_us"/"dag_service_us" when causal tracing was enabled.
// validate_trace_stream() is the schema checker shared by the CI lint tool
// and the telemetry tests; it re-checks the per-tx invariant that the four
// phase intervals sum to finish_us - submit_us, the per-tx DAG/interval
// reconciliation, and the cspan ordering invariants.  It also accepts
// flight-recorder dumps (flight_meta/flight/lineage lines, see flight.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "telemetry/causal.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace jenga::telemetry {

/// Per-message-type accounting plus hop-delay distribution, recorded by the
/// simulated network.  Indexed by the raw MsgType value; names are filled in
/// by the network layer (this module must not depend on simnet).
struct MessageTelemetry {
  static constexpr std::size_t kMaxTypes = 64;

  struct PerType {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };

  std::array<PerType, kMaxTypes> per_type{};
  std::array<const char*, kMaxTypes> type_name{};
  /// Send-to-delivery delay of every scheduled hop, in microseconds.
  Histogram hop_delay_us;

  void record(std::uint16_t type, std::uint32_t bytes) {
    if (type >= kMaxTypes) return;
    per_type[type].count += 1;
    per_type[type].bytes += bytes;
  }
};

struct Telemetry {
  MetricsRegistry registry;
  PhaseTracer tracer;
  MessageTelemetry net;
  CausalTracer causal;
  FlightRecorder flight;

  Telemetry() {
    tracer.set_causal(&causal);
    tracer.set_flight(&flight);
    flight.set_lineage_source(&causal, &tracer);
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Writes the full JSONL trace (metrics snapshot, message telemetry,
  /// per-phase histograms, one line per traced tx; with causal tracing on,
  /// also one cspan line per DAG span and dag_* fields on tx lines).  BFT
  /// round and view-change times appear only as the bft.* metric lines.  Tx
  /// lines are sorted by (submit time, hash) so output is deterministic.
  void export_jsonl(std::ostream& out) const;

  /// chrome://tracing / Perfetto-compatible JSON: one "X" complete event per
  /// causal DAG hop (pid = destination node, tid = message type) plus "s"/"f"
  /// flow events binding each hop to its parent.  Empty array when causal
  /// tracing was off.
  void export_chrome(std::ostream& out) const;
};

/// Schema sanity for one exported line.  Returns false and fills `error`
/// (when non-null) on malformed JSON, unknown "kind", missing required
/// fields, or a tx line whose phase intervals do not reconcile with its
/// end-to-end latency.
[[nodiscard]] bool validate_trace_line(const std::string& line, std::string* error);

struct TraceLintSummary {
  std::size_t lines = 0;
  std::size_t tx_lines = 0;
  std::size_t metric_lines = 0;
  std::size_t phase_hist_lines = 0;
  std::size_t cspan_lines = 0;
  std::size_t dag_tx_lines = 0;  ///< tx lines carrying dag_* fields
  std::size_t flight_lines = 0;
  std::size_t lineage_lines = 0;
};

/// Validates a whole JSONL stream; requires at least a meta line.
[[nodiscard]] bool validate_trace_stream(std::istream& in, std::string* error,
                                         TraceLintSummary* summary = nullptr);

}  // namespace jenga::telemetry
