// Open-loop arrival processes (DESIGN.md §10).
//
// Real clients do not wait for completion: arrivals follow an external
// clock, so offered load above the service rate is possible.  This module
// models that clock as a non-homogeneous Poisson process whose instantaneous
// rate λ(t) is shaped by the chosen mode:
//
//   kPoisson — constant λ = rate_tps.
//   kBursty  — λ is rate_tps except inside periodic burst windows, where it
//              is multiplied by burst_multiplier (flash crowds / NFT mints).
//
// On top of the mode shape sits an external multiplier (the FaultInjector's
// scripted overload bursts and the client's backpressure throttle both feed
// it).  Inter-arrival draws use the exponential inverse-CDF against the rate
// at the draw instant — deterministic given the Rng stream.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace jenga::workload {

enum class ArrivalMode : std::uint8_t {
  kPoisson,
  kBursty,
};

[[nodiscard]] const char* arrival_mode_name(ArrivalMode m);

struct ArrivalConfig {
  ArrivalMode mode = ArrivalMode::kPoisson;
  /// Base offered rate in transactions per second of simulated time.
  double rate_tps = 100.0;

  // kBursty: every `burst_period`, a window of `burst_duration` runs at
  // rate_tps × burst_multiplier.
  SimTime burst_period = 20 * kSecond;
  SimTime burst_duration = 4 * kSecond;
  double burst_multiplier = 5.0;
};

/// Client-side retry schedule: exponential backoff with multiplicative
/// jitter.  Attempt k (0-based) waits base × 2^k, capped at `max_backoff`,
/// then scaled by a uniform factor in [1-jitter, 1+jitter] so synchronized
/// rejections do not re-arrive as a synchronized thundering herd.
struct RetryPolicy {
  std::uint32_t max_attempts = 5;  // offers per tx; beyond this → terminal reject
  SimTime base_backoff = 200 * kMillisecond;
  SimTime max_backoff = 5 * kSecond;
  double jitter = 0.5;

  [[nodiscard]] SimTime backoff(std::uint32_t attempt, Rng& rng) const;
};

class ArrivalProcess {
 public:
  explicit ArrivalProcess(ArrivalConfig config, Rng rng)
      : config_(config), rng_(rng) {}

  /// Instantaneous offered rate at `t` (before the external multiplier).
  [[nodiscard]] double rate_at(SimTime t) const;

  /// Draws the delay until the next arrival given the rate at `now` scaled by
  /// `multiplier`.  Always returns ≥ 1 µs (the simulator's tick).
  [[nodiscard]] SimTime next_delay(SimTime now, double multiplier);

  [[nodiscard]] const ArrivalConfig& config() const { return config_; }

 private:
  ArrivalConfig config_;
  Rng rng_;
};

}  // namespace jenga::workload
