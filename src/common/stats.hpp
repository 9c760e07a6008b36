// Cross-system experiment statistics (shared by Jenga and the baselines).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace jenga {

/// Transaction-level outcomes and latency accounting.
struct TxStats {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  /// Admission-layer outcomes (filled in by the runner; systems never see
  /// them).  Rejected/expired transactions never entered the pipeline: they carry no commit latency and are excluded from the
  /// quantiles below, which sample committed transactions only.
  std::uint64_t rejected = 0;  // terminally refused (reason-coded at the client)
  std::uint64_t expired = 0;   // TTL lapsed in the pool or on arrival
  SimTime total_commit_latency = 0;  // Σ (commit_time - submit_time)
  SimTime first_submit_time = 0;
  SimTime last_commit_time = 0;
  std::uint64_t fees_charged = 0;
  /// Per-transaction commit latencies (same samples that sum to
  /// total_commit_latency); kept so chaos/resilience runs can report tail
  /// percentiles, which averages hide.
  std::vector<SimTime> commit_latencies;

  [[nodiscard]] double tps() const {
    const SimTime span = last_commit_time - first_submit_time;
    if (span <= 0) return 0.0;
    return static_cast<double>(committed) /
           (static_cast<double>(span) / static_cast<double>(kSecond));
  }

  [[nodiscard]] double avg_latency_seconds() const {
    if (committed == 0) return 0.0;
    return static_cast<double>(total_commit_latency) /
           (static_cast<double>(committed) * static_cast<double>(kSecond));
  }

  /// Each q in [0,1] (0.5 for the median, 0.99 for p99), linearly
  /// interpolated between the two nearest order statistics.  Sorts the
  /// samples once and reads every requested quantile from the same order.
  [[nodiscard]] std::vector<double> latency_quantiles_seconds(
      const std::vector<double>& qs) const {
    std::vector<double> out(qs.size(), 0.0);
    if (commit_latencies.empty()) return out;
    std::vector<SimTime> sorted = commit_latencies;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const double pos = std::clamp(qs[i], 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
      const std::size_t idx = static_cast<std::size_t>(pos);
      const SimTime lo = sorted[idx];
      const SimTime hi = sorted[std::min(idx + 1, sorted.size() - 1)];
      const double frac = pos - static_cast<double>(idx);
      out[i] = (static_cast<double>(lo) * (1.0 - frac) + static_cast<double>(hi) * frac) /
               static_cast<double>(kSecond);
    }
    return out;
  }
};

/// Per-node storage accounting at the end of a run.
struct StorageReport {
  std::uint64_t chain_bytes_per_node = 0;   // this node's shard chain
  std::uint64_t state_bytes_per_node = 0;   // this node's state partition
  std::uint64_t logic_bytes_per_node = 0;   // contract logic the node holds
  std::uint64_t extra_bytes_per_node = 0;   // merged-shard overhead (Pyramid)

  [[nodiscard]] std::uint64_t total() const {
    return chain_bytes_per_node + state_bytes_per_node + logic_bytes_per_node +
           extra_bytes_per_node;
  }
};

}  // namespace jenga
