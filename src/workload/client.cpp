#include "workload/client.hpp"

#include <utility>

namespace jenga::workload {

namespace {

constexpr SimTime kPumpInterval = 50 * kMillisecond;

/// Fee tiers: each generated tx draws a tier (index 0 = lowest; 60% / 30% /
/// 10% of txs), which multiplies the trace's base fee.  The mempool orders by
/// the resulting fee; the tier label rides along so fairness (per-tier wait,
/// per-tier goodput) is measurable.
constexpr std::uint64_t kFeeTierMultipliers[mempool::kFeeTiers] = {1, 3, 10};

std::uint8_t draw_fee_tier(Rng& rng) {
  constexpr std::uint64_t kWeights[mempool::kFeeTiers] = {60, 30, 10};
  std::uint64_t r = rng.uniform(kWeights[0] + kWeights[1] + kWeights[2]);
  for (std::uint8_t t = 0; t + 1 < mempool::kFeeTiers; ++t) {
    if (r < kWeights[t]) return t;
    r -= kWeights[t];
  }
  return mempool::kFeeTiers - 1;
}

}  // namespace

OpenLoopClient::OpenLoopClient(sim::Simulator& sim, mempool::IngressSet& ingress,
                               ClientConfig config, Rng rng, MakeTx make_tx, Submit submit,
                               InflightFn inflight)
    : sim_(sim),
      ingress_(ingress),
      config_(config),
      arrival_rng_(rng.fork("arrival")),
      tier_rng_(rng.fork("tier")),
      retry_rng_(rng.fork("retry")),
      arrival_(config.arrival, rng.fork("interarrival")),
      make_tx_(std::move(make_tx)),
      submit_(std::move(submit)),
      inflight_(std::move(inflight)) {}

void OpenLoopClient::start() {
  ingress_.set_expiry_observer([this](const core::TxPtr& tx) {
    resident_meta_.erase(tx->hash);
    ++stats_.expired_pool;
  });
  schedule_next_arrival();
  arm_pump();
}

void OpenLoopClient::schedule_next_arrival() {
  if (arrivals_done()) return;
  double mult = rate_multiplier_;
  switch (ingress_.worst_backpressure()) {
    case mempool::Backpressure::kNone: break;
    case mempool::Backpressure::kSoft: mult *= 0.5; break;
    case mempool::Backpressure::kShed: mult *= 0.25; break;
  }
  const SimTime delay = arrival_.next_delay(sim_.now(), mult);
  sim_.schedule_after(delay, [this] { on_arrival(); });
}

void OpenLoopClient::on_arrival() {
  ++generated_;
  ++stats_.generated;
  ledger::Transaction tx = make_tx_();
  const std::uint8_t tier = draw_fee_tier(tier_rng_);
  tx.fee *= kFeeTierMultipliers[tier];
  tx.finalize();  // fee is hashed: re-derive identity (and thus channel)
  offer_now(std::make_shared<const ledger::Transaction>(std::move(tx)), tier, 0);
  schedule_next_arrival();
}

void OpenLoopClient::offer_now(core::TxPtr tx, std::uint8_t tier, std::uint32_t attempt) {
  // Hard backpressure gate: low tiers do not even knock.  Top-tier offers
  // proceed — a high enough fee should displace a resident, not be shed.
  const ShardId shard = ingress_.shard_for(tx);
  if (ingress_.backpressure(shard) == mempool::Backpressure::kShed &&
      tier + 1 < mempool::kFeeTiers) {
    ++stats_.shed;
    if (registry_ != nullptr) registry_->counter("mempool.backpressure_shed").inc();
    schedule_retry(std::move(tx), tier, attempt + 1);
    return;
  }

  ++stats_.offers;
  mempool::OfferOutcome out = ingress_.offer(tx, sim_.now(), tier);
  switch (out.result) {
    case mempool::AdmitResult::kAdmitted: {
      resident_meta_[tx->hash] = TxMeta{tier, attempt};
      if (out.evicted) {
        ++stats_.evicted_requeued;
        TxMeta meta;
        if (const auto it = resident_meta_.find(out.evicted->hash);
            it != resident_meta_.end()) {
          meta = it->second;
          resident_meta_.erase(it);
        }
        schedule_retry(std::move(out.evicted), meta.tier, meta.attempt + 1);
      }
      arm_pump();
      break;
    }
    case mempool::AdmitResult::kRejectedFull:
      schedule_retry(std::move(tx), tier, attempt + 1);
      break;
    case mempool::AdmitResult::kRejectedDuplicate:
      // Identity collision with a resident: retrying the same bytes can only
      // collide again — terminal.
      ++stats_.rejected_terminal;
      break;
    case mempool::AdmitResult::kRejectedExpired:
      ++stats_.expired_doa;
      break;
  }
}

void OpenLoopClient::schedule_retry(core::TxPtr tx, std::uint8_t tier,
                                    std::uint32_t next_attempt) {
  if (next_attempt >= config_.retry.max_attempts) {
    ++stats_.rejected_terminal;
    if (registry_ != nullptr) registry_->counter("mempool.retry_exhausted").inc();
    return;
  }
  ++stats_.retries;
  ++pending_retries_;
  if (registry_ != nullptr) registry_->counter("mempool.retry").inc();
  const SimTime wait = config_.retry.backoff(next_attempt, retry_rng_);
  sim_.schedule_after(wait, [this, tx = std::move(tx), tier, next_attempt]() mutable {
    --pending_retries_;
    offer_now(std::move(tx), tier, next_attempt);
  });
}

void OpenLoopClient::arm_pump() {
  if (pump_armed_ || !work_remaining()) return;
  pump_armed_ = true;
  sim_.schedule_after(kPumpInterval, [this] { pump(); });
}

void OpenLoopClient::pump() {
  pump_armed_ = false;
  const std::size_t inflight = inflight_();
  const std::size_t credits =
      config_.max_inflight > inflight ? config_.max_inflight - inflight : 0;
  if (credits > 0) {
    ingress_.dispatch(sim_.now(), credits, [this](core::TxPtr tx) {
      resident_meta_.erase(tx->hash);
      submit_(std::move(tx));
    });
  } else {
    // Window full: still shed anything whose deadline passed while waiting.
    ingress_.expire(sim_.now());
  }
  arm_pump();
}

}  // namespace jenga::workload
