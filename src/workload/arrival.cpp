#include "workload/arrival.hpp"

#include <algorithm>
#include <cmath>

namespace jenga::workload {

const char* arrival_mode_name(ArrivalMode m) {
  switch (m) {
    case ArrivalMode::kPoisson: return "poisson";
    case ArrivalMode::kBursty: return "bursty";
  }
  return "?";
}

SimTime RetryPolicy::backoff(std::uint32_t attempt, Rng& rng) const {
  // Saturating shift: attempts beyond ~30 would overflow, clamp first.
  const std::uint32_t shift = std::min<std::uint32_t>(attempt, 30);
  SimTime wait = base_backoff << shift;
  if (wait > max_backoff || wait <= 0) wait = max_backoff;
  const double factor = 1.0 + jitter * (2.0 * rng.uniform01() - 1.0);
  wait = static_cast<SimTime>(static_cast<double>(wait) * factor);
  return std::max<SimTime>(wait, kMillisecond);
}

double ArrivalProcess::rate_at(SimTime t) const {
  switch (config_.mode) {
    case ArrivalMode::kPoisson:
      return config_.rate_tps;
    case ArrivalMode::kBursty: {
      const SimTime phase = config_.burst_period > 0 ? t % config_.burst_period : 0;
      return phase < config_.burst_duration ? config_.rate_tps * config_.burst_multiplier
                                            : config_.rate_tps;
    }
  }
  return config_.rate_tps;
}

SimTime ArrivalProcess::next_delay(SimTime now, double multiplier) {
  const double rate = rate_at(now) * multiplier;
  if (rate <= 0.0) return kSecond;  // throttled to zero: poll again in 1 s
  // Exponential inverse CDF; 1-u keeps the argument of log strictly positive.
  const double u = rng_.uniform01();
  const double seconds = -std::log(1.0 - u) / rate;
  const auto us = static_cast<SimTime>(seconds * static_cast<double>(kSecond));
  return std::max<SimTime>(us, 1);
}

}  // namespace jenga::workload
