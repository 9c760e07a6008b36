// Metrics registry: named counters, gauges and log-linear (HDR-style)
// histograms, cheap enough to stay on in every run.
//
// Recording is a couple of integer ops (no allocation, no locking — the
// simulator is single-threaded); snapshots are deterministic for a given
// event sequence, so chaos tests can assert bit-identical metric output for
// the same seed.  Call sites that record on a hot path should resolve the
// metric once (`registry.histogram("x")` returns a stable reference) and
// keep the pointer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace jenga::telemetry {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  /// Folding an externally-maintained total (e.g. network FaultStats) into
  /// the registry at snapshot time.
  void set(std::uint64_t v) { value_ = v; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

  [[nodiscard]] bool operator==(const Counter&) const = default;

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += d; }
  [[nodiscard]] std::int64_t value() const { return value_; }

  [[nodiscard]] bool operator==(const Gauge&) const = default;

 private:
  std::int64_t value_ = 0;
};

/// Log-linear histogram over non-negative integers (negative values clamp to
/// 0).  Values below 2^kSubBucketBits are exact; above that each power-of-two
/// range splits into 2^kSubBucketBits linear sub-buckets, bounding the
/// relative quantile error at ~2^-kSubBucketBits (≈6%).  The sum is tracked
/// exactly, so means are not subject to bucket rounding.
class Histogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 4;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
  // 16 exact buckets + (63 - 4) decades of 16 sub-buckets each.
  static constexpr std::size_t kNumBuckets = kSubBuckets + (63 - kSubBucketBits) * kSubBuckets;

  void record(std::int64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  /// q in [0,1].  Interpolates within the target bucket; exact min/max at the
  /// extremes.
  [[nodiscard]] double quantile(double q) const;

  void merge(const Histogram& other);

  [[nodiscard]] bool operator==(const Histogram&) const = default;

  /// Bucket geometry, exposed for exporters.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v);
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t index);
  [[nodiscard]] static std::uint64_t bucket_width(std::size_t index);
  [[nodiscard]] const std::array<std::uint64_t, kNumBuckets>& buckets() const {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Named metrics, created on first use.  Iteration (and therefore the JSON
/// snapshot) is in name order — deterministic regardless of creation order.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;
  /// Read-back by name: a metric nothing recorded reads 0.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// One JSON object covering every metric (counters/gauges by value,
  /// histograms as {count,sum,min,max,mean,p50,p99}), keys sorted.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] bool operator==(const MetricsRegistry&) const = default;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace jenga::telemetry
