// Contract VM: opcode semantics, gas, declared-access enforcement,
// cross-contract calls, and the assembler.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "ledger/portable_state.hpp"
#include "vm/assembler.hpp"
#include "vm/interpreter.hpp"

namespace jenga::vm {
namespace {

using ledger::PortableState;
using ledger::PortableStateView;

ContractLogic make_contract(ContractId id, std::initializer_list<std::string_view> sources) {
  ContractLogic logic;
  logic.id = id;
  for (auto src : sources) {
    auto code = assemble(src);
    EXPECT_TRUE(code.ok()) << (code.ok() ? "" : code.error());
    logic.functions.push_back({"fn", code.value()});
  }
  return logic;
}

PortableState state_with(ContractId c, std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> kv,
                         std::initializer_list<std::pair<AccountId, std::uint64_t>> accounts = {}) {
  PortableState st;
  auto& m = st.contracts[c];
  for (auto [k, v] : kv) m[k] = v;
  for (auto [a, b] : accounts) st.balances[a] = b;
  return st;
}

class VmTest : public ::testing::Test {
 protected:
  ExecResult run_one(const ContractLogic& logic, PortableStateView& view,
                     std::vector<std::uint64_t> args = {}, ExecLimits limits = {}) {
    const ContractLogic* ptr = &logic;
    Interpreter interp(std::span(&ptr, 1), view, limits);
    CallStep step{0, 0, std::move(args)};
    return interp.run(AccountId{1}, std::span(&step, 1));
  }
};

TEST_F(VmTest, ArithmeticAndStore) {
  const auto logic = make_contract(ContractId{1}, {R"(
    PUSH 7      ; key
    PUSH 5
    PUSH 3
    ADD         ; 8
    SSTORE      ; state[7] = 8
    RETURN
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));
  const auto r = run_one(logic, view);
  ASSERT_TRUE(r.ok()) << exec_status_name(r.status);
  EXPECT_EQ(view.state().contracts.at(ContractId{1}).at(7), 8u);
}

TEST_F(VmTest, LoadAbsentKeyReadsZero) {
  const auto logic = make_contract(ContractId{1}, {R"(
    PUSH 0      ; result key
    PUSH 99
    SLOAD       ; 0 (absent)
    PUSH 1
    ADD
    SSTORE
    RETURN
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));
  ASSERT_TRUE(run_one(logic, view).ok());
  EXPECT_EQ(view.state().contracts.at(ContractId{1}).at(0), 1u);
}

TEST_F(VmTest, WideImmediatesStoreExactly) {
  const auto logic = make_contract(ContractId{1}, {R"(
    PUSH 0
    PUSH 2046
    SSTORE
    PUSH 1
    PUSH 2047
    SSTORE
    PUSH 2
    PUSH 2048
    SSTORE
    PUSH 3
    PUSH 4294967296          ; 2^32
    SSTORE
    PUSH 4
    PUSH 18446744073709551615  ; 2^64 - 1
    SSTORE
    RETURN
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));
  ASSERT_TRUE(run_one(logic, view).ok());
  const auto& st = view.state().contracts.at(ContractId{1});
  EXPECT_EQ(st.at(0), 2046u);
  EXPECT_EQ(st.at(1), 2047u);
  EXPECT_EQ(st.at(2), 2048u);
  EXPECT_EQ(st.at(3), std::uint64_t{1} << 32);
  EXPECT_EQ(st.at(4), ~std::uint64_t{0});
}

TEST_F(VmTest, JumpsLandPastPc2047) {
  // Every jump target lies past pc 2047: a forward JUMP over 2199 ABORTs,
  // then a backward JUMP, a backward JZ and a forward JZ.
  std::string src = "JUMP a\n";
  for (int i = 0; i < 2199; ++i) src += "ABORT\n";
  src += R"(
  b:              ; pc 2200
    PUSH 1
    PUSH 22
    SSTORE
    PUSH 0
    JZ d          ; forward
    ABORT
  c:
    PUSH 0
    JZ b          ; backward
    ABORT
  a:
    PUSH 0
    PUSH 11
    SSTORE
    JUMP c        ; backward
    ABORT
  d:
    PUSH 2
    PUSH 33
    SSTORE
    RETURN
  )";
  const auto code = assemble(src);
  ASSERT_TRUE(code.ok()) << code.error();
  ASSERT_GT(code.value().size(), 2047u);
  EXPECT_EQ(code.value()[0].imm, 2209u);  // a
  const auto logic = make_contract(ContractId{1}, {src});
  PortableStateView view(state_with(ContractId{1}, {}));
  const auto r = run_one(logic, view);
  ASSERT_TRUE(r.ok()) << exec_status_name(r.status);
  const auto& st = view.state().contracts.at(ContractId{1});
  EXPECT_EQ(st.at(0), 11u);
  EXPECT_EQ(st.at(1), 22u);
  EXPECT_EQ(st.at(2), 33u);
  EXPECT_EQ(r.instructions_executed, 16u);
}

TEST_F(VmTest, LoopComputesSum) {
  // sum 1..10 into state[0] using a counter in state[1].
  const auto logic = make_contract(ContractId{2}, {R"(
    PUSH 1
    PUSH 10
    SSTORE        ; state[1] = 10 (counter)
  loop:
    PUSH 1
    SLOAD         ; counter
    JZ done
    PUSH 0
    PUSH 0
    SLOAD         ; acc
    PUSH 1
    SLOAD
    ADD
    SSTORE        ; acc += counter
    PUSH 1
    PUSH 1
    SLOAD
    PUSH 1
    SUB
    SSTORE        ; counter -= 1
    JUMP loop
  done:
    RETURN
  )"});
  PortableStateView view(state_with(ContractId{2}, {}));
  const auto r = run_one(logic, view);
  ASSERT_TRUE(r.ok()) << exec_status_name(r.status);
  EXPECT_EQ(view.state().contracts.at(ContractId{2}).at(0), 55u);
}

TEST_F(VmTest, DivisionByZeroAborts) {
  const auto logic = make_contract(ContractId{1}, {"PUSH 4\nPUSH 0\nDIV\nRETURN"});
  PortableStateView view(state_with(ContractId{1}, {}));
  EXPECT_EQ(run_one(logic, view).status, ExecStatus::kDivisionByZero);
}

TEST_F(VmTest, StackUnderflowDetected) {
  const auto logic = make_contract(ContractId{1}, {"ADD\nRETURN"});
  PortableStateView view(state_with(ContractId{1}, {}));
  EXPECT_EQ(run_one(logic, view).status, ExecStatus::kStackUnderflow);
}

TEST_F(VmTest, StackOverflowDetected) {
  const auto logic = make_contract(ContractId{1}, {R"(
  loop:
    PUSH 1
    JUMP loop
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));
  ExecLimits limits;
  limits.max_stack = 64;
  limits.gas_limit = 1'000'000;
  EXPECT_EQ(run_one(logic, view, {}, limits).status, ExecStatus::kStackOverflow);
}

TEST_F(VmTest, OutOfGasDetected) {
  const auto logic = make_contract(ContractId{1}, {R"(
  loop:
    PUSH 1
    POP
    JUMP loop
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));
  ExecLimits limits;
  limits.gas_limit = 500;
  EXPECT_EQ(run_one(logic, view, {}, limits).status, ExecStatus::kOutOfGas);
}

TEST_F(VmTest, ExplicitAbort) {
  const auto logic = make_contract(ContractId{1}, {"ABORT"});
  PortableStateView view(state_with(ContractId{1}, {}));
  EXPECT_EQ(run_one(logic, view).status, ExecStatus::kExplicitAbort);
}

TEST_F(VmTest, UndeclaredContractAccessAborts) {
  // Contract 1 is declared (slot 0) but its bytecode touches contract state
  // via a view that doesn't include contract 1 -> undeclared access.
  const auto logic = make_contract(ContractId{1}, {"PUSH 0\nSLOAD\nPOP\nRETURN"});
  PortableState empty;  // no declared states at all
  PortableStateView view(std::move(empty));
  EXPECT_EQ(run_one(logic, view).status, ExecStatus::kUndeclaredAccess);
}

TEST_F(VmTest, UndeclaredAccountAborts) {
  const auto logic = make_contract(ContractId{1}, {R"(
    PUSH 42      ; account id
    BALANCE
    POP
    RETURN
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));  // account 42 not declared
  EXPECT_EQ(run_one(logic, view).status, ExecStatus::kUndeclaredAccess);
}

TEST_F(VmTest, CreditDebitMoveFunds) {
  const auto logic = make_contract(ContractId{1}, {R"(
    PUSH 10     ; debit account 10 by 30
    PUSH 30
    DEBIT
    PUSH 11
    PUSH 30
    CREDIT
    RETURN
  )"});
  PortableStateView view(
      state_with(ContractId{1}, {}, {{AccountId{10}, 100}, {AccountId{11}, 5}}));
  ASSERT_TRUE(run_one(logic, view).ok());
  EXPECT_EQ(view.state().balances.at(AccountId{10}), 70u);
  EXPECT_EQ(view.state().balances.at(AccountId{11}), 35u);
}

TEST_F(VmTest, InsufficientFundsAborts) {
  const auto logic = make_contract(ContractId{1}, {"PUSH 10\nPUSH 101\nDEBIT\nRETURN"});
  PortableStateView view(state_with(ContractId{1}, {}, {{AccountId{10}, 100}}));
  EXPECT_EQ(run_one(logic, view).status, ExecStatus::kInsufficientFunds);
}

TEST_F(VmTest, ArgsAndCaller) {
  const auto logic = make_contract(ContractId{1}, {R"(
    PUSH 0
    PUSH 0
    ARG         ; args[0]
    SSTORE
    PUSH 1
    CALLER
    SSTORE
    RETURN
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));
  ASSERT_TRUE(run_one(logic, view, {777}).ok());
  EXPECT_EQ(view.state().contracts.at(ContractId{1}).at(0), 777u);
  EXPECT_EQ(view.state().contracts.at(ContractId{1}).at(1), 1u);  // sender id
}

TEST_F(VmTest, CrossContractCall) {
  // Contract A (slot 0) calls contract B (slot 1), which writes B's state.
  auto a = make_contract(ContractId{1}, {R"(
    PUSH 5      ; argument to B
    CALL 1 0
    RETURN
  )"});
  auto b = make_contract(ContractId{2}, {R"(
    PUSH 0      ; key
    PUSH 0
    ARG         ; args[0] == 5
    PUSH 2
    MUL
    SSTORE      ; B.state[0] = 10
    RETURN
  )"});
  PortableState st;
  st.contracts[ContractId{1}] = {};
  st.contracts[ContractId{2}] = {};
  PortableStateView view(std::move(st));
  const ContractLogic* ptrs[2] = {&a, &b};
  Interpreter interp(std::span<const ContractLogic* const>(ptrs, 2), view);
  CallStep step{0, 0, {}};
  const auto r = interp.run(AccountId{1}, std::span(&step, 1));
  ASSERT_TRUE(r.ok()) << exec_status_name(r.status);
  EXPECT_EQ(view.state().contracts.at(ContractId{2}).at(0), 10u);
  EXPECT_EQ(r.contract_calls, 2u);
}

TEST_F(VmTest, CallToMissingLogicFails) {
  auto a = make_contract(ContractId{1}, {"CALL 1 0\nRETURN"});
  PortableStateView view(state_with(ContractId{1}, {}));
  const ContractLogic* ptrs[2] = {&a, nullptr};
  Interpreter interp(std::span<const ContractLogic* const>(ptrs, 2), view);
  CallStep step{0, 0, {}};
  EXPECT_EQ(interp.run(AccountId{1}, std::span(&step, 1)).status, ExecStatus::kBadCall);
}

TEST_F(VmTest, CallDepthLimited) {
  auto a = make_contract(ContractId{1}, {"CALL 0 0\nRETURN"});  // self-recursion
  PortableStateView view(state_with(ContractId{1}, {}));
  const ContractLogic* ptr = &a;
  ExecLimits limits;
  limits.max_call_depth = 8;
  Interpreter interp(std::span(&ptr, 1), view, limits);
  CallStep step{0, 0, {}};
  EXPECT_EQ(interp.run(AccountId{1}, std::span(&step, 1)).status,
            ExecStatus::kCallDepthExceeded);
}

TEST_F(VmTest, MultiStepChainRunsAllSteps) {
  const auto logic = make_contract(ContractId{1}, {R"(
    PUSH 0
    PUSH 0
    SLOAD
    PUSH 1
    ADD
    SSTORE
    RETURN
  )"});
  PortableStateView view(state_with(ContractId{1}, {}));
  const ContractLogic* ptr = &logic;
  Interpreter interp(std::span(&ptr, 1), view);
  std::vector<CallStep> steps(5, CallStep{0, 0, {}});
  const auto r = interp.run(AccountId{1}, steps);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(view.state().contracts.at(ContractId{1}).at(0), 5u);
}

TEST_F(VmTest, FailedStepStopsChain) {
  auto ok = make_contract(ContractId{1}, {"PUSH 0\nPUSH 1\nSSTORE\nRETURN", "ABORT"});
  PortableStateView view(state_with(ContractId{1}, {}));
  const ContractLogic* ptr = &ok;
  Interpreter interp(std::span(&ptr, 1), view);
  std::vector<CallStep> steps{{0, 0, {}}, {0, 1, {}}, {0, 0, {}}};
  EXPECT_EQ(interp.run(AccountId{1}, steps).status, ExecStatus::kExplicitAbort);
}

TEST_F(VmTest, GasAccumulatesAcrossSteps) {
  const auto logic = make_contract(ContractId{1}, {"PUSH 1\nPOP\nRETURN"});
  PortableStateView view(state_with(ContractId{1}, {}));
  const ContractLogic* ptr = &logic;
  Interpreter interp(std::span(&ptr, 1), view);
  std::vector<CallStep> steps(3, CallStep{0, 0, {}});
  const auto r = interp.run(AccountId{1}, steps);
  EXPECT_EQ(r.gas_used, 3 * (gas_cost(Op::kPush) + gas_cost(Op::kPop) + gas_cost(Op::kReturn)));
}

TEST(Assembler, RejectsUnknownOp) {
  EXPECT_FALSE(assemble("FLY 3").ok());
}

TEST(Assembler, RejectsMissingImmediate) {
  EXPECT_FALSE(assemble("PUSH").ok());
}

TEST(Assembler, RejectsUnknownLabel) {
  EXPECT_FALSE(assemble("JUMP nowhere").ok());
}

TEST(Assembler, RejectsDuplicateLabel) {
  EXPECT_FALSE(assemble("a:\na:\nRETURN").ok());
}

TEST(Assembler, RejectsTrailingTokens) {
  EXPECT_FALSE(assemble("PUSH 1 2").ok());
}

TEST(Assembler, RejectsCallOperandsOutOfRange) {
  for (const char* src : {"CALL 65536 0", "CALL 1 70000", "CALL 70000 70000"}) {
    const auto code = assemble(src);
    ASSERT_FALSE(code.ok()) << src;
    EXPECT_NE(code.error().find("line 1:"), std::string::npos) << code.error();
  }
  const auto later = assemble("PUSH 1\nCALL 0 65536\nRETURN");
  ASSERT_FALSE(later.ok());
  EXPECT_NE(later.error().find("line 2:"), std::string::npos) << later.error();
  const auto edge = assemble("CALL 65535 65535");
  ASSERT_TRUE(edge.ok()) << edge.error();
  EXPECT_EQ(call_slot(edge.value()[0].imm), 65535);
  EXPECT_EQ(call_function(edge.value()[0].imm), 65535);
}

TEST(Assembler, NumericJumpTargets) {
  auto code = assemble("PUSH 1\nJZ 0\nRETURN");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value()[1].imm, 0u);
}

TEST(Assembler, CommentsAndBlankLines) {
  auto code = assemble("; header comment\n\nPUSH 1 ; inline\n\nRETURN\n");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value().size(), 2u);
}

TEST(Assembler, DisassembleRoundTripShape) {
  auto code = assemble("PUSH 5\nCALL 2 1\nRETURN");
  ASSERT_TRUE(code.ok());
  const std::string dis = disassemble(code.value());
  EXPECT_NE(dis.find("PUSH 5"), std::string::npos);
  EXPECT_NE(dis.find("CALL 2 1"), std::string::npos);
  EXPECT_NE(dis.find("RETURN"), std::string::npos);
}

TEST(Bytecode, CallPacking) {
  const auto imm = pack_call(300, 7);
  EXPECT_EQ(call_slot(imm), 300);
  EXPECT_EQ(call_function(imm), 7);
}

// Code against a plain vector of decoded instructions: fixed-seed random
// ops, immediates drawn from each edge of the two-byte unit and its side table.
TEST(Bytecode, CodeMatchesVectorModel) {
  constexpr std::uint64_t kEdges[] = {0, 2046, 2047, 2048, 65536, ~std::uint64_t{0}};
  constexpr std::uint64_t kOps = static_cast<std::uint64_t>(Op::kAbort) + 1;
  Rng rng(17);
  for (int round = 0; round < 16; ++round) {
    std::vector<Instruction> model;
    Code code;
    EXPECT_TRUE(code.empty());
    const std::uint64_t n = 1 + rng.uniform(3000);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Instruction ins{static_cast<Op>(rng.uniform(kOps)),
                            rng.chance(0.5) ? kEdges[rng.uniform(std::size(kEdges))]
                                            : rng.uniform(4096)};
      model.push_back(ins);
      code.push_back(ins);
      ASSERT_EQ(code.size(), model.size());
      EXPECT_EQ(code.back().op, ins.op);
      EXPECT_EQ(code.back().imm, ins.imm);
    }
    const Code converted = model;
    ASSERT_EQ(converted.size(), model.size());
    for (std::size_t pc = 0; pc < model.size(); ++pc) {
      EXPECT_EQ(code[pc].op, model[pc].op) << "pc " << pc;
      EXPECT_EQ(code[pc].imm, model[pc].imm) << "pc " << pc;
      EXPECT_EQ(converted[pc].op, model[pc].op) << "pc " << pc;
      EXPECT_EQ(converted[pc].imm, model[pc].imm) << "pc " << pc;
    }
  }
  const Code listed{{Op::kPush, 2047}, {Op::kCall, pack_call(1, 2)}, {Op::kReturn, 0}};
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].imm, 2047u);
  EXPECT_EQ(listed[1].op, Op::kCall);
  EXPECT_EQ(listed[1].imm, pack_call(1, 2));
  EXPECT_EQ(listed.back().op, Op::kReturn);
}

TEST(Bytecode, CodeSizeGrowsWithCode) {
  ContractLogic small;
  small.functions.push_back({"f", {{Op::kReturn, 0}}});
  ContractLogic big;
  big.functions.push_back({"f", std::vector<Instruction>(100, {Op::kPush, 1})});
  EXPECT_LT(small.code_size_bytes(), big.code_size_bytes());
  // 16 B per function, its name, then 9 B per instruction.
  EXPECT_EQ(small.code_size_bytes(), 26u);
  EXPECT_EQ(big.code_size_bytes(), 917u);
}

}  // namespace
}  // namespace jenga::vm
