// Synthetic trace generator: Fig. 3 calibration and executable bytecode.
#include <gtest/gtest.h>

#include <set>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "ledger/portable_state.hpp"
#include "vm/interpreter.hpp"
#include "workload/trace.hpp"

namespace jenga::workload {
namespace {

TraceGenerator make_gen(std::uint64_t seed = 1) {
  TraceConfig cfg;
  cfg.num_contracts = 50;
  cfg.num_accounts = 1000;
  return TraceGenerator(cfg, Rng(seed));
}

/// What a generator draws, as digests: `code_bytes` sums every contract's
/// storage charge right after construction, `txs` hashes the first 200
/// contract txs drawn next, and `bytecode` hashes every contract's function
/// count, names and instructions, read last and in reverse index order.
struct GeneratorPin {
  std::uint64_t code_bytes = 0;
  std::string txs;
  std::string bytecode;
};

GeneratorPin pin(TraceGenerator& gen) {
  GeneratorPin p;
  for (const auto& c : gen.contracts()) p.code_bytes += c->code_size_bytes();
  crypto::Sha256 txs;
  for (int i = 0; i < 200; ++i) txs.update(gen.contract_tx(1'000'000, 0).hash);
  p.txs = to_hex(txs.finish());
  crypto::Sha256 code;
  for (std::size_t i = gen.contracts().size(); i-- > 0;) {
    const vm::ContractLogic& c = gen.contract(i);
    code.update_u64(c.functions.size());
    for (const vm::Function& f : c.functions) {
      code.update(f.name);
      code.update_u64(f.code.size());
      for (std::size_t pc = 0; pc < f.code.size(); ++pc) {
        code.update_u64(static_cast<std::uint64_t>(f.code[pc].op));
        code.update_u64(f.code[pc].imm);
      }
    }
  }
  p.bytecode = to_hex(code.finish());
  return p;
}

TEST(Trace, ContractsGeneratedWithRealCode) {
  auto gen = make_gen();
  ASSERT_EQ(gen.contracts().size(), 50u);
  for (std::size_t i = 0; i < gen.contracts().size(); ++i) {
    const vm::ContractLogic& c = gen.contract(i);
    EXPECT_FALSE(c.functions.empty());
    EXPECT_GT(c.code_size_bytes(), 100u);
    for (const auto& f : c.functions) {
      ASSERT_FALSE(f.code.empty());
      EXPECT_EQ(f.code.back().op, vm::Op::kReturn);
    }
  }
}

// A contract gets its bodies when a drawn tx first names it, and not before;
// its function count and storage charge are the same either way.
TEST(Trace, BodiesBuiltOnlyForCalledContracts) {
  auto gen = make_gen(2);
  std::vector<std::size_t> functions;
  std::vector<std::uint64_t> code_bytes;
  for (const auto& c : gen.contracts()) {
    EXPECT_TRUE(c->functions.empty());
    functions.push_back(c->function_count());
    code_bytes.push_back(c->code_size_bytes());
  }
  std::set<std::uint64_t> named;
  for (int i = 0; i < 5; ++i)
    for (const ContractId c : gen.contract_tx(1'000'000, 0).contracts) named.insert(c.value);
  ASSERT_LT(named.size(), gen.contracts().size());
  for (std::size_t i = 0; i < gen.contracts().size(); ++i) {
    EXPECT_EQ(gen.contracts()[i]->functions.empty(), named.count(i) == 0) << "contract " << i;
    const vm::ContractLogic& c = gen.contract(i);
    EXPECT_EQ(c.functions.size(), functions[i]);
    EXPECT_EQ(c.function_count(), functions[i]);
    EXPECT_EQ(c.code_size_bytes(), code_bytes[i]);
  }
}

// The bodies the generator builds hold no spare capacity: whole
// 6-instruction stanzas plus the return.  Every immediate fits in its
// two-byte unit, so none falls back to Code's side table.
TEST(Trace, BytecodeSizedExactly) {
  auto gen = make_gen();
  const TraceConfig& cfg = gen.config();
  for (std::size_t i = 0; i < gen.contracts().size(); ++i) {
    const vm::ContractLogic& c = gen.contract(i);
    EXPECT_EQ(c.functions.capacity(), c.functions.size());
    for (const auto& f : c.functions) {
      EXPECT_EQ(f.code.capacity(), f.code.size());
      EXPECT_EQ(f.code.size() % 6, 1u);
      EXPECT_LE(f.code.size(), cfg.function_length_max);
      for (std::size_t pc = 0; pc < f.code.size(); ++pc)
        ASSERT_LT(f.code[pc].imm, vm::Code::kInlineLimit) << "pc " << pc;
    }
  }
}

// Pins what the generator draws for two contract shapes: the storage charge,
// the txs and every function body.  A change to how or when bodies are built
// must leave all three unchanged.
TEST(Trace, GeneratedBytecodePinnedAtParent) {
  TraceGenerator plain(TraceConfig{}, Rng(1));
  const GeneratorPin a = pin(plain);
  EXPECT_EQ(a.code_bytes, 1'555'710u);
  EXPECT_EQ(a.txs, "8aa55564605ed2b25caa262669e5e5fa558e7a39ea67e63f1ce634518b0f747d");
  EXPECT_EQ(a.bytecode, "8100dcb7795702f9e3faf62874c12958941969e2d56d30aeb044e9fd80e4461c");

  // Fat-state's contract shape at a tenth of its universe.
  TraceConfig fat;
  fat.num_contracts = 1000;
  fat.num_accounts = 10'000;
  fat.initial_state_entries_min = 64;
  fat.initial_state_entries_max = 256;
  fat.function_length_min = 150;
  fat.function_length_max = 400;
  TraceGenerator heavy(fat, Rng(4));
  const GeneratorPin b = pin(heavy);
  EXPECT_EQ(b.code_bytes, 8'678'796u);
  EXPECT_EQ(b.txs, "886e2f0794dd3c5e99b76a7f31312ad95cf30ab97ec45a4f9045b07b77ff0024");
  EXPECT_EQ(b.bytecode, "995ee35704d7e82c730a439fa23fc3daa2482dbef442ec18a957a67566f824d5");
}

TEST(Trace, TrendsRampWithHeight) {
  auto gen = make_gen();
  EXPECT_LT(gen.expected_contract_ratio(0), gen.expected_contract_ratio(1'000'000));
  EXPECT_LT(gen.expected_steps(0), gen.expected_steps(1'000'000));
  EXPECT_LT(gen.expected_contracts(0), gen.expected_contracts(1'000'000));
  // Saturation past the horizon.
  EXPECT_EQ(gen.expected_steps(1'000'000), gen.expected_steps(2'000'000));
}

TEST(Trace, WindowStatsMatchLateTrendTargets) {
  auto gen = make_gen(7);
  const auto st = sample_window(gen, 1'000'000, 4000);
  EXPECT_NEAR(st.contract_tx_ratio, 0.72, 0.04);  // Fig. 3a: ~70%
  EXPECT_NEAR(st.avg_steps, 10.0, 1.5);           // Fig. 3c: ~10
  EXPECT_NEAR(st.avg_contracts, 4.7, 0.7);        // Fig. 3d: ~4.7
}

TEST(Trace, WindowStatsEarlyLowerThanLate) {
  auto gen = make_gen(8);
  const auto early = sample_window(gen, 0, 4000);
  const auto late = sample_window(gen, 1'000'000, 4000);
  EXPECT_LT(early.contract_tx_ratio, late.contract_tx_ratio);
  EXPECT_LT(early.avg_steps, late.avg_steps);
  EXPECT_LT(early.avg_contracts, late.avg_contracts);
}

TEST(Trace, ContractTxWellFormed) {
  auto gen = make_gen(3);
  for (int i = 0; i < 200; ++i) {
    const auto tx = gen.contract_tx(500'000, 0);
    EXPECT_EQ(tx.kind, ledger::TxKind::kContractCall);
    EXPECT_FALSE(tx.hash.is_zero());
    EXPECT_GE(tx.step_count(), tx.distinct_contracts());
    EXPECT_GE(tx.distinct_contracts(), 1u);
    EXPECT_LE(tx.distinct_contracts(), 8u);
    EXPECT_LE(tx.step_count(), 24u);
    // Declared contracts are distinct.
    auto sorted = tx.contracts;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    // Every step's slot is within the declared list.
    for (const auto& s : tx.steps) EXPECT_LT(s.contract_slot, tx.contracts.size());
  }
}

TEST(Trace, EveryDeclaredContractIsUsed) {
  auto gen = make_gen(4);
  for (int i = 0; i < 100; ++i) {
    const auto tx = gen.contract_tx(1'000'000, 0);
    std::vector<bool> used(tx.contracts.size(), false);
    for (const auto& s : tx.steps) used[s.contract_slot] = true;
    for (std::size_t c = 0; c < used.size(); ++c) EXPECT_TRUE(used[c]) << "slot " << c;
  }
}

TEST(Trace, GeneratedTxExecutesOnVm) {
  auto gen = make_gen(5);
  for (int i = 0; i < 50; ++i) {
    const auto tx = gen.contract_tx(800'000, 0);
    // Assemble declared state exactly as a Jenga execution channel would.
    ledger::PortableState state;
    for (std::size_t s = 0; s < tx.contracts.size(); ++s)
      state.contracts[tx.contracts[s]] = gen.initial_state(tx.contracts[s].value);
    for (auto a : tx.accounts) state.balances[a] = 1'000'000;
    ledger::PortableStateView view(std::move(state));
    std::vector<const vm::ContractLogic*> logic;
    for (auto c : tx.contracts) logic.push_back(gen.contracts()[c.value].get());
    vm::ExecLimits limits;
    limits.gas_limit = 100'000'000;
    vm::Interpreter interp(logic, view, limits);
    const auto result = interp.run(tx.sender, tx.steps);
    EXPECT_TRUE(result.ok()) << vm::exec_status_name(result.status);
    EXPECT_GT(result.gas_used, 0u);
  }
}

TEST(Trace, TransfersWellFormed) {
  auto gen = make_gen(6);
  for (int i = 0; i < 100; ++i) {
    const auto tx = gen.transfer_tx(0);
    EXPECT_EQ(tx.kind, ledger::TxKind::kTransfer);
    EXPECT_NE(tx.sender, tx.to);
    EXPECT_GT(tx.amount, 0u);
  }
}

TEST(Trace, DeployTxCarriesLogic) {
  auto gen = make_gen(9);
  const auto tx = gen.deploy_tx(3, 0);
  EXPECT_EQ(tx.kind, ledger::TxKind::kDeploy);
  ASSERT_NE(tx.logic, nullptr);
  EXPECT_EQ(tx.logic->id, ContractId{3});
  EXPECT_EQ(tx.initial_state_entries, gen.initial_state(3).size());
}

TEST(Trace, InitialStateDeterministic) {
  auto gen = make_gen(10);
  EXPECT_EQ(gen.initial_state(5), gen.initial_state(5));
  EXPECT_NE(gen.initial_state(5), gen.initial_state(6));
}

TEST(Trace, DeterministicPerSeed) {
  auto g1 = make_gen(11);
  auto g2 = make_gen(11);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(g1.contract_tx(100, 0).hash, g2.contract_tx(100, 0).hash);
}

TEST(Trace, DifferentSeedsDiffer) {
  auto g1 = make_gen(12);
  auto g2 = make_gen(13);
  int same = 0;
  for (int i = 0; i < 20; ++i) same += g1.contract_tx(100, 0).hash == g2.contract_tx(100, 0).hash;
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace jenga::workload
