#include "telemetry/trace.hpp"

#include <algorithm>

#include "telemetry/causal.hpp"
#include "telemetry/flight.hpp"

namespace jenga::telemetry {

const char* interval_name(std::size_t i) {
  switch (i) {
    case 0: return "state_lock";
    case 1: return "grant_relay";
    case 2: return "execute";
    case 3: return "commit";
    default: return "?";
  }
}

std::array<SimTime, 4> TxTrace::intervals() const {
  std::array<SimTime, 4> out{};
  if (submit < 0 || finish < 0) return out;
  // Boundary i is checkpoint i clamped into [previous boundary, finish];
  // the last boundary is the finish time itself, so the intervals always
  // partition [submit, finish] exactly.
  SimTime prev = submit;
  const Phase boundary_phase[3] = {Phase::kStateLock, Phase::kGather, Phase::kExecute};
  for (std::size_t i = 0; i < 3; ++i) {
    const SimTime cp = checkpoint[static_cast<std::size_t>(boundary_phase[i])];
    const SimTime t = cp < 0 ? prev : std::clamp(cp, prev, finish);
    out[i] = t - prev;
    prev = t;
  }
  out[3] = finish - prev;
  return out;
}

std::size_t TxTrace::critical_interval() const {
  const auto iv = intervals();
  std::size_t best = 0;
  for (std::size_t i = 1; i < iv.size(); ++i)
    if (iv[i] > iv[best]) best = i;
  return best;
}

double PhaseBreakdown::mean_interval_seconds(std::size_t i) const {
  if (committed == 0) return 0.0;
  return static_cast<double>(interval_sum[i]) /
         (static_cast<double>(committed) * static_cast<double>(kSecond));
}

double PhaseBreakdown::mean_total_seconds() const {
  if (committed == 0) return 0.0;
  return static_cast<double>(total_sum) /
         (static_cast<double>(committed) * static_cast<double>(kSecond));
}

double PhaseBreakdown::quantile_interval_seconds(std::size_t i, double q) const {
  return interval_hist[i].quantile(q) / static_cast<double>(kSecond);
}

std::size_t PhaseBreakdown::dominant_interval() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kIntervalCount; ++i)
    if (interval_sum[i] > interval_sum[best]) best = i;
  return best;
}

void PhaseTracer::on_submit(const Hash256& tx, SimTime now) {
  TxTrace& t = traces_[tx];
  if (t.submit < 0) {
    t.submit = now;
    if (causal_ != nullptr) causal_->tx_anchor(tx, AnchorKind::kSubmit, 0, now);
  }
}

void PhaseTracer::phase_event(const Hash256& tx, Phase phase, std::uint32_t key,
                              SimTime now) {
  const auto it = traces_.find(tx);
  if (it == traces_.end()) return;  // never submitted through this tracer
  TxTrace& t = it->second;
  if (t.done) return;
  SimTime& cp = t.checkpoint[static_cast<std::size_t>(phase)];
  cp = std::max(cp, now);
  if (causal_ != nullptr)
    causal_->tx_anchor(tx, AnchorKind::kPhase, static_cast<std::uint32_t>(phase), now);
  if (flight_ != nullptr && flight_->enabled()) {
    FlightEvent e;
    e.at = now;
    e.node = key;
    e.kind = FlightEvent::Kind::kPhase;
    e.a = static_cast<std::uint64_t>(phase);
    e.span = causal_ != nullptr ? causal_->current_context() : 0;
    e.tx = tx;
    flight_->record(key, e);
  }
}

void PhaseTracer::on_finish(const Hash256& tx, bool committed, SimTime now) {
  const auto it = traces_.find(tx);
  if (it == traces_.end()) return;
  TxTrace& t = it->second;
  if (t.done) return;
  t.done = true;
  t.committed = committed;
  t.finish = now;
  if (causal_ != nullptr)
    causal_->tx_anchor(tx, AnchorKind::kFinish, committed ? 1u : 0u, now);
}

const TxTrace* PhaseTracer::find(const Hash256& tx) const {
  const auto it = traces_.find(tx);
  return it == traces_.end() ? nullptr : &it->second;
}

PhaseBreakdown PhaseTracer::breakdown() const {
  PhaseBreakdown b;
  for (const auto& [hash, t] : traces_) {
    if (!t.done) {
      ++b.incomplete;
      continue;
    }
    if (!t.committed) {
      ++b.aborted;
      continue;
    }
    ++b.committed;
    const auto iv = t.intervals();
    SimTime total = 0;
    for (std::size_t i = 0; i < iv.size(); ++i) {
      b.interval_hist[i].record(iv[i]);
      b.interval_sum[i] += iv[i];
      total += iv[i];
    }
    b.total_hist.record(total);
    b.total_sum += total;
    ++b.critical[t.critical_interval()];
  }
  return b;
}

}  // namespace jenga::telemetry
