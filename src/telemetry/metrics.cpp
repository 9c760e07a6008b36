#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace jenga::telemetry {

std::size_t Histogram::bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const std::uint32_t msb = 63u - static_cast<std::uint32_t>(std::countl_zero(v));
  const std::uint32_t shift = msb - kSubBucketBits;
  // (v >> shift) is in [kSubBuckets, 2*kSubBuckets); strip the leading one.
  const std::uint64_t sub = (v >> shift) - kSubBuckets;
  return kSubBuckets + static_cast<std::size_t>(msb - kSubBucketBits) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t decade = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  const std::uint32_t shift = static_cast<std::uint32_t>(decade);
  return (static_cast<std::uint64_t>(kSubBuckets + sub)) << shift;
}

std::uint64_t Histogram::bucket_width(std::size_t index) {
  if (index < kSubBuckets) return 1;
  const std::size_t decade = (index - kSubBuckets) / kSubBuckets;
  return 1ull << static_cast<std::uint32_t>(decade);
}

void Histogram::record(std::int64_t v) {
  const std::uint64_t clamped = v < 0 ? 0 : static_cast<std::uint64_t>(v);
  buckets_[bucket_index(clamped)] += 1;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return static_cast<double>(min());
  if (q >= 1.0) return static_cast<double>(max());
  // Rank of the target sample (1-based), then walk the buckets.
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation inside the bucket's value range.
      const double within = (rank - static_cast<double>(seen)) /
                            static_cast<double>(buckets_[i]);
      const double lo = static_cast<double>(bucket_lower(i));
      // The bucket holds integer values in [lower, lower + width - 1]; the
      // interpolation span must use that inclusive top, not the next
      // bucket's lower edge.  Otherwise a rank landing exactly on a bucket
      // boundary (within == 1.0) overshoots into the next bucket and, when a
      // larger outlier exists elsewhere, the global min/max clamp cannot
      // catch it — e.g. 100 samples of 16 plus one of 1000 reported p99 = 17
      // even though no recorded sample lies in (16, 1000).
      const double hi = lo + static_cast<double>(bucket_width(i) - 1);
      const double est = lo + within * (hi - lo);
      // Bucket bounds can still overshoot the true extremes; clamp to them.
      return std::clamp(est, static_cast<double>(min()), static_cast<double>(max()));
    }
    seen = next;
  }
  return static_cast<double>(max());
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  const Gauge* g = find_gauge(name);
  return g == nullptr ? 0 : g->value();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  char buf[256];
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };
  for (const auto& [name, c] : counters_) {
    sep();
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    std::snprintf(buf, sizeof(buf), "\"%s\":%lld", name.c_str(),
                  static_cast<long long>(g.value()));
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    sep();
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
                  "\"mean\":%.6g,\"p50\":%.6g,\"p99\":%.6g}",
                  name.c_str(), static_cast<unsigned long long>(h.count()),
                  static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
                  static_cast<long long>(h.max()), h.mean(), h.quantile(0.5),
                  h.quantile(0.99));
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace jenga::telemetry
