#include "mempool/ingress.hpp"

#include <algorithm>
#include <string>

namespace jenga::mempool {

IngressSet::IngressSet(IngressConfig config) : config_(config) {
  pools_.reserve(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) pools_.emplace_back(config_.pool);
}

OfferOutcome IngressSet::offer(core::TxPtr tx, SimTime now, std::uint8_t fee_tier,
                               std::optional<SimTime> ttl_override) {
  const ShardId shard = shard_for(tx);
  const Hash256 h = tx->hash;
  OfferOutcome out = pools_[shard.value].offer(std::move(tx), now, fee_tier, ttl_override);
  fold_event(admit_result_name(out.result), h, now);
  if (out.evicted) fold_event("evicted", out.evicted->hash, now);
  if (causal_ != nullptr) {
    if (out.result == AdmitResult::kAdmitted)
      causal_->tx_anchor(h, telemetry::AnchorKind::kNote,
                         static_cast<std::uint32_t>(IngressNote::kAdmit), now);
    if (out.evicted)
      causal_->tx_anchor(out.evicted->hash, telemetry::AnchorKind::kNote,
                         static_cast<std::uint32_t>(IngressNote::kEvicted), now);
  }
  if (registry_ != nullptr) {
    registry_->counter(std::string("mempool.") + admit_result_name(out.result)).inc();
    if (out.evicted) registry_->counter("mempool.evicted").inc();
    record_depth();
  }
  return out;
}

std::size_t IngressSet::expire(SimTime now) {
  std::size_t shed = 0;
  for (auto& pool : pools_) {
    for (const auto& tx : pool.expire(now)) {
      fold_event("expired", tx->hash, now);
      if (causal_ != nullptr)
        causal_->tx_anchor(tx->hash, telemetry::AnchorKind::kNote,
                           static_cast<std::uint32_t>(IngressNote::kExpired), now);
      if (expiry_observer_) expiry_observer_(tx);
      ++shed;
    }
  }
  if (shed > 0 && registry_ != nullptr) {
    registry_->counter("mempool.expired").inc(shed);
    record_depth();
  }
  return shed;
}

std::size_t IngressSet::dispatch(SimTime now, std::size_t credits,
                                 const std::function<void(core::TxPtr)>& submit) {
  expire(now);  // never hand out stale work
  std::size_t sent = 0;
  std::uint32_t empty_streak = 0;
  while (sent < credits && empty_streak < config_.num_shards) {
    Mempool& pool = pools_[dispatch_cursor_];
    dispatch_cursor_ = (dispatch_cursor_ + 1) % config_.num_shards;
    auto d = pool.pop_best(now);
    if (!d) {
      ++empty_streak;
      continue;
    }
    empty_streak = 0;
    fold_event("dispatched", d->tx->hash, now);
    if (causal_ != nullptr)
      causal_->tx_anchor(d->tx->hash, telemetry::AnchorKind::kNote,
                         static_cast<std::uint32_t>(IngressNote::kDispatched), now);
    if (registry_ != nullptr) {
      registry_->counter("mempool.dispatched").inc();
      registry_
          ->histogram("mempool.wait_us.tier" + std::to_string(static_cast<int>(d->fee_tier)))
          .record(d->wait);
    }
    submit(d->tx);
    ++sent;
  }
  if (registry_ != nullptr && sent > 0) record_depth();
  return sent;
}

Backpressure IngressSet::backpressure(ShardId shard) const {
  const double fill = pools_[shard.value].fill();
  if (fill >= config_.hard_watermark) return Backpressure::kShed;
  if (fill >= config_.soft_watermark) return Backpressure::kSoft;
  return Backpressure::kNone;
}

Backpressure IngressSet::worst_backpressure() const {
  Backpressure worst = Backpressure::kNone;
  for (std::uint32_t s = 0; s < config_.num_shards; ++s)
    worst = std::max(worst, backpressure(ShardId{s}));
  return worst;
}

std::size_t IngressSet::resident() const {
  std::size_t n = 0;
  for (const auto& pool : pools_) n += pool.depth();
  return n;
}

IngressStats IngressSet::stats() const {
  IngressStats agg;
  for (const auto& pool : pools_) {
    const MempoolStats& s = pool.stats();
    agg.totals.admitted += s.admitted;
    agg.totals.rejected_full += s.rejected_full;
    agg.totals.rejected_duplicate += s.rejected_duplicate;
    agg.totals.rejected_expired += s.rejected_expired;
    agg.totals.evicted += s.evicted;
    agg.totals.expired += s.expired;
    agg.totals.dispatched += s.dispatched;
    agg.totals.peak_depth = std::max(agg.totals.peak_depth, s.peak_depth);
  }
  agg.resident = resident();
  agg.peak_resident = peak_resident_;
  return agg;
}

Hash256 IngressSet::admission_digest() const { return digest_state_; }

void IngressSet::fold_event(std::string_view kind, const Hash256& h, SimTime now) {
  // Chain: state' = H(state || kind || tx_hash || time).  Any reordering,
  // omission or duplication of events changes every subsequent state.
  crypto::Sha256 hasher;
  hasher.update(digest_state_);
  hasher.update(kind);
  hasher.update(h);
  hasher.update_u64(static_cast<std::uint64_t>(now));
  digest_state_ = hasher.finish();
  peak_resident_ = std::max(peak_resident_, resident());
}

void IngressSet::record_depth() {
  registry_->gauge("mempool.depth").set(static_cast<std::int64_t>(resident()));
}

}  // namespace jenga::mempool
