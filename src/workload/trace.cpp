#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cassert>

namespace jenga::workload {

using ledger::Transaction;
using ledger::TxKind;
using vm::Instruction;
using vm::Op;

TraceGenerator::TraceGenerator(TraceConfig config, Rng rng)
    : config_(config), rng_(std::move(rng)) {
  contracts_.reserve(config_.num_contracts);
  for (std::uint64_t i = 0; i < config_.num_contracts; ++i)
    contracts_.push_back(generate_contract(ContractId{i}));
  if (config_.zipf_skew > 0.0) {
    zipf_cdf_.reserve(config_.num_contracts);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < config_.num_contracts; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), config_.zipf_skew);
      zipf_cdf_.push_back(sum);
    }
  }
}

ContractId TraceGenerator::sample_contract() {
  if (zipf_cdf_.empty()) return ContractId{rng_.uniform(contracts_.size())};
  // Inverse-CDF draw over the precomputed harmonic weights: rank r (0 = the
  // hottest contract) with probability ∝ 1/(r+1)^s.
  const double u = rng_.uniform01() * zipf_cdf_.back();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return ContractId{static_cast<std::uint64_t>(it - zipf_cdf_.begin())};
}

double TraceGenerator::ramp(double start, double end, std::uint64_t height) const {
  const double t = std::min(1.0, static_cast<double>(height) /
                                     static_cast<double>(std::max<std::uint64_t>(
                                         config_.trend_blocks, 1)));
  return start + (end - start) * t;
}

double TraceGenerator::expected_contract_ratio(std::uint64_t h) const {
  return ramp(config_.contract_ratio_start, config_.contract_ratio_end, h);
}
double TraceGenerator::expected_steps(std::uint64_t h) const {
  return ramp(config_.steps_start, config_.steps_end, h);
}
double TraceGenerator::expected_contracts(std::uint64_t h) const {
  return ramp(config_.contracts_start, config_.contracts_end, h);
}

std::shared_ptr<const vm::ContractLogic> TraceGenerator::generate_contract(ContractId id) {
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = id;
  const auto num_fns = static_cast<std::uint32_t>(
      rng_.uniform_int(config_.functions_min, config_.functions_max));
  // Bytecode is most of a run's set-up memory: size every vector exactly
  // rather than letting push_back leave doubling slack behind.
  logic->functions.reserve(num_fns);
  for (std::uint32_t f = 0; f < num_fns; ++f) {
    vm::Function fn;
    fn.name = "fn" + std::to_string(f);
    const auto len = static_cast<std::uint32_t>(
        rng_.uniform_int(config_.function_length_min, config_.function_length_max));
    // Emit repeated read-modify-write stanzas over this contract's own keys;
    // each stanza is 6 instructions, so the body really exercises storage.
    // As many whole stanzas as fit below `len`, then the return.
    const std::uint32_t stanzas = len > 0 ? (len - 1) / 6 : 0;
    fn.code.reserve(6 * std::size_t{stanzas} + 1);
    for (std::uint32_t s = 0; s < stanzas; ++s) {
      const std::uint64_t key = rng_.uniform(16);
      fn.code.push_back({Op::kPush, key});                    // store key
      fn.code.push_back({Op::kPush, key});                    // load key
      fn.code.push_back({Op::kSload, 0});
      fn.code.push_back({Op::kPush, rng_.uniform(1000) + 1});
      fn.code.push_back({Op::kAdd, 0});
      fn.code.push_back({Op::kSstore, 0});
    }
    fn.code.push_back({Op::kReturn, 0});
    logic->functions.push_back(std::move(fn));
  }
  return logic;
}

ledger::ContractState TraceGenerator::initial_state(std::size_t contract_index) const {
  // Deterministic per contract, independent of generation order.
  Rng local(0x57A7E5ULL ^ (contract_index * 0x9E3779B97F4A7C15ULL));
  const auto entries = static_cast<std::uint64_t>(local.uniform_int(
      config_.initial_state_entries_min, config_.initial_state_entries_max));
  ledger::ContractState st;
  for (std::uint64_t k = 0; k < entries; ++k) st[k] = local.uniform(1 << 20);
  return st;
}

Transaction TraceGenerator::deploy_tx(std::size_t contract_index, SimTime now) {
  assert(contract_index < contracts_.size());
  const AccountId deployer{rng_.uniform(config_.num_accounts)};
  auto tx = ledger::make_deploy(deployer, contracts_[contract_index],
                                initial_state(contract_index).size(), config_.base_fee, now);
  return tx;
}

bool TraceGenerator::next_is_contract(std::uint64_t block_height) {
  return rng_.chance(expected_contract_ratio(block_height));
}

Transaction TraceGenerator::contract_tx(std::uint64_t block_height, SimTime now) {
  Transaction tx;
  tx.kind = TxKind::kContractCall;
  tx.sender = AccountId{rng_.uniform(config_.num_accounts)};
  tx.fee = config_.base_fee;
  tx.created_at = now;

  // Distinct contracts: truncated normal around the height's trend (a
  // geometric's clamped tail would drag the realized mean off-target).
  const double want_contracts = expected_contracts(block_height);
  auto m = static_cast<std::uint32_t>(
      std::max(1.0, std::round(rng_.normal(want_contracts, want_contracts / 3.0))));
  m = std::clamp<std::uint32_t>(m, 1,
                                std::min<std::uint32_t>(config_.max_contracts_per_tx,
                                                        static_cast<std::uint32_t>(
                                                            contracts_.size())));
  // Sample m distinct contract ids.
  std::vector<ContractId> chosen;
  while (chosen.size() < m) {
    const ContractId c = sample_contract();
    if (std::find(chosen.begin(), chosen.end(), c) == chosen.end()) chosen.push_back(c);
  }
  tx.contracts = chosen;
  tx.accounts = {tx.sender};

  // Steps: at least one per touched contract so every declared contract is
  // really used; extra steps spread randomly (Fig. 3c trend).
  const double want_steps = expected_steps(block_height);
  auto k = static_cast<std::uint32_t>(
      std::max(1.0, std::round(rng_.normal(want_steps, want_steps / 4.0))));
  k = std::clamp<std::uint32_t>(k, m, config_.max_steps);
  for (std::uint32_t s = 0; s < k; ++s) {
    const std::uint16_t slot =
        s < m ? static_cast<std::uint16_t>(s)
              : static_cast<std::uint16_t>(rng_.uniform(m));
    const auto& logic = *contracts_[tx.contracts[slot].value];
    vm::CallStep step;
    step.contract_slot = slot;
    step.function = static_cast<std::uint16_t>(rng_.uniform(logic.functions.size()));
    step.args = {rng_.uniform(1 << 16)};
    tx.steps.push_back(std::move(step));
  }
  tx.finalize();
  return tx;
}

Transaction TraceGenerator::transfer_tx(SimTime now) {
  const AccountId from{rng_.uniform(config_.num_accounts)};
  AccountId to{rng_.uniform(config_.num_accounts)};
  if (to == from) to = AccountId{(to.value + 1) % config_.num_accounts};
  return ledger::make_transfer(from, to, rng_.uniform(100) + 1, config_.base_fee, now);
}

WindowStats sample_window(TraceGenerator& gen, std::uint64_t block_height, std::size_t num_txs) {
  WindowStats stats;
  std::size_t contract_txs = 0;
  std::uint64_t steps = 0, contracts = 0;
  for (std::size_t i = 0; i < num_txs; ++i) {
    if (gen.next_is_contract(block_height)) {
      ++contract_txs;
      const auto tx = gen.contract_tx(block_height, 0);
      steps += tx.step_count();
      contracts += tx.distinct_contracts();
    }
  }
  stats.contract_tx_ratio = static_cast<double>(contract_txs) / static_cast<double>(num_txs);
  if (contract_txs > 0) {
    stats.avg_steps = static_cast<double>(steps) / static_cast<double>(contract_txs);
    stats.avg_contracts = static_cast<double>(contracts) / static_cast<double>(contract_txs);
  }
  return stats;
}

}  // namespace jenga::workload
