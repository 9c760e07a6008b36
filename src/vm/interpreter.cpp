#include "vm/interpreter.hpp"

#include "common/rng.hpp"

namespace jenga::vm {

std::uint64_t gas_cost(Op op) {
  switch (op) {
    case Op::kSload: return 200;
    case Op::kSstore: return 500;
    case Op::kBalance: return 100;
    case Op::kCredit:
    case Op::kDebit: return 300;
    case Op::kCall: return 700;
    case Op::kHash: return 30;
    case Op::kJump:
    case Op::kJumpIfZero: return 8;
    default: return 3;
  }
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kPush: return "PUSH";
    case Op::kPop: return "POP";
    case Op::kDup: return "DUP";
    case Op::kSwap: return "SWAP";
    case Op::kAdd: return "ADD";
    case Op::kSub: return "SUB";
    case Op::kMul: return "MUL";
    case Op::kDiv: return "DIV";
    case Op::kMod: return "MOD";
    case Op::kLt: return "LT";
    case Op::kEq: return "EQ";
    case Op::kNot: return "NOT";
    case Op::kJump: return "JUMP";
    case Op::kJumpIfZero: return "JZ";
    case Op::kSload: return "SLOAD";
    case Op::kSstore: return "SSTORE";
    case Op::kBalance: return "BALANCE";
    case Op::kCredit: return "CREDIT";
    case Op::kDebit: return "DEBIT";
    case Op::kCaller: return "CALLER";
    case Op::kArg: return "ARG";
    case Op::kHash: return "HASH";
    case Op::kCall: return "CALL";
    case Op::kReturn: return "RETURN";
    case Op::kAbort: return "ABORT";
  }
  return "?";
}

const char* exec_status_name(ExecStatus s) {
  switch (s) {
    case ExecStatus::kSuccess: return "success";
    case ExecStatus::kOutOfGas: return "out-of-gas";
    case ExecStatus::kStackUnderflow: return "stack-underflow";
    case ExecStatus::kStackOverflow: return "stack-overflow";
    case ExecStatus::kDivisionByZero: return "division-by-zero";
    case ExecStatus::kBadJump: return "bad-jump";
    case ExecStatus::kBadCall: return "bad-call";
    case ExecStatus::kUndeclaredAccess: return "undeclared-access";
    case ExecStatus::kInsufficientFunds: return "insufficient-funds";
    case ExecStatus::kExplicitAbort: return "explicit-abort";
    case ExecStatus::kCallDepthExceeded: return "call-depth-exceeded";
    case ExecStatus::kStepLimitExceeded: return "step-limit-exceeded";
  }
  return "?";
}

Interpreter::Interpreter(std::span<const ContractLogic* const> contracts, StateView& state,
                         ExecLimits limits, ExecScratch* scratch)
    : contracts_(contracts),
      state_(state),
      limits_(limits),
      stack_(scratch != nullptr ? scratch->stack : own_scratch_.stack) {}

ExecResult Interpreter::run(AccountId sender, std::span<const CallStep> steps) {
  sender_ = sender;
  stack_.clear();
  gas_used_ = 0;
  instructions_ = 0;
  calls_ = 0;

  ExecResult result;
  for (const CallStep& step : steps) {
    const ExecStatus st = exec_function(step.contract_slot, step.function, step.args, 0);
    if (st != ExecStatus::kSuccess) {
      result.status = st;
      break;
    }
    stack_.clear();  // steps are independent invocations, like sub-calls of a tx
  }
  result.gas_used = gas_used_;
  result.instructions_executed = instructions_;
  result.contract_calls = calls_;
  return result;
}

ExecStatus Interpreter::exec_function(std::uint16_t slot, std::uint16_t function,
                                      std::span<const std::uint64_t> args, std::size_t depth) {
  if (depth >= limits_.max_call_depth) return ExecStatus::kCallDepthExceeded;
  if (slot >= contracts_.size() || contracts_[slot] == nullptr)
    return ExecStatus::kBadCall;
  const ContractLogic& logic = *contracts_[slot];
  if (function >= logic.functions.size()) return ExecStatus::kBadCall;
  const auto& code = logic.functions[function].code;
  ++calls_;

  auto pop = [this](std::uint64_t& out) {
    if (stack_.empty()) return false;
    out = stack_.back();
    stack_.pop_back();
    return true;
  };
  auto push = [this](std::uint64_t v) {
    if (stack_.size() >= limits_.max_stack) return false;
    stack_.push_back(v);
    return true;
  };

  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Instruction ins = code[pc];
    gas_used_ += gas_cost(ins.op);
    if (gas_used_ > limits_.gas_limit) return ExecStatus::kOutOfGas;
    if (++instructions_ > limits_.max_instructions) return ExecStatus::kStepLimitExceeded;

    std::uint64_t a = 0, b = 0;
    switch (ins.op) {
      case Op::kPush:
        if (!push(ins.imm)) return ExecStatus::kStackOverflow;
        break;
      case Op::kPop:
        if (!pop(a)) return ExecStatus::kStackUnderflow;
        break;
      case Op::kDup:
        if (stack_.empty()) return ExecStatus::kStackUnderflow;
        if (!push(stack_.back())) return ExecStatus::kStackOverflow;
        break;
      case Op::kSwap:
        if (stack_.size() < 2) return ExecStatus::kStackUnderflow;
        std::swap(stack_[stack_.size() - 1], stack_[stack_.size() - 2]);
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kLt:
      case Op::kEq: {
        if (!pop(b) || !pop(a)) return ExecStatus::kStackUnderflow;
        std::uint64_t r = 0;
        switch (ins.op) {
          case Op::kAdd: r = a + b; break;
          case Op::kSub: r = a - b; break;
          case Op::kMul: r = a * b; break;
          case Op::kDiv:
            if (b == 0) return ExecStatus::kDivisionByZero;
            r = a / b;
            break;
          case Op::kMod:
            if (b == 0) return ExecStatus::kDivisionByZero;
            r = a % b;
            break;
          case Op::kLt: r = a < b ? 1 : 0; break;
          case Op::kEq: r = a == b ? 1 : 0; break;
          default: break;
        }
        if (!push(r)) return ExecStatus::kStackOverflow;
        break;
      }
      case Op::kNot:
        if (!pop(a)) return ExecStatus::kStackUnderflow;
        if (!push(a == 0 ? 1 : 0)) return ExecStatus::kStackOverflow;
        break;
      case Op::kJump:
        if (ins.imm >= code.size()) return ExecStatus::kBadJump;
        pc = ins.imm - 1;  // -1: loop increment
        break;
      case Op::kJumpIfZero:
        if (!pop(a)) return ExecStatus::kStackUnderflow;
        if (a == 0) {
          if (ins.imm >= code.size()) return ExecStatus::kBadJump;
          pc = ins.imm - 1;
        }
        break;
      case Op::kSload: {
        if (!pop(a)) return ExecStatus::kStackUnderflow;
        auto v = state_.sload(logic.id, a);
        if (!v.has_value()) return ExecStatus::kUndeclaredAccess;
        if (!push(*v)) return ExecStatus::kStackOverflow;
        break;
      }
      case Op::kSstore:
        if (!pop(b) || !pop(a)) return ExecStatus::kStackUnderflow;
        if (!state_.sstore(logic.id, a, b)) return ExecStatus::kUndeclaredAccess;
        break;
      case Op::kBalance: {
        if (!pop(a)) return ExecStatus::kStackUnderflow;
        auto v = state_.balance(AccountId{a});
        if (!v.has_value()) return ExecStatus::kUndeclaredAccess;
        if (!push(*v)) return ExecStatus::kStackOverflow;
        break;
      }
      case Op::kCredit:
        if (!pop(b) || !pop(a)) return ExecStatus::kStackUnderflow;
        if (!state_.credit(AccountId{a}, b)) return ExecStatus::kUndeclaredAccess;
        break;
      case Op::kDebit: {
        if (!pop(b) || !pop(a)) return ExecStatus::kStackUnderflow;
        auto bal = state_.balance(AccountId{a});
        if (!bal.has_value()) return ExecStatus::kUndeclaredAccess;
        if (*bal < b) return ExecStatus::kInsufficientFunds;
        if (!state_.debit(AccountId{a}, b)) return ExecStatus::kUndeclaredAccess;
        break;
      }
      case Op::kCaller:
        if (!push(sender_.value)) return ExecStatus::kStackOverflow;
        break;
      case Op::kArg:
        if (!pop(a)) return ExecStatus::kStackUnderflow;
        if (!push(a < args.size() ? args[a] : 0)) return ExecStatus::kStackOverflow;
        break;
      case Op::kHash: {
        if (!pop(a)) return ExecStatus::kStackUnderflow;
        std::uint64_t s = a;
        if (!push(splitmix64(s))) return ExecStatus::kStackOverflow;
        break;
      }
      case Op::kCall: {
        const std::uint16_t callee = call_slot(ins.imm);
        const std::uint16_t fn = call_function(ins.imm);
        // Callee arguments: current stack contents (moved, not copied).
        std::vector<std::uint64_t> call_args(stack_.begin(), stack_.end());
        stack_.clear();
        const ExecStatus st = exec_function(callee, fn, call_args, depth + 1);
        if (st != ExecStatus::kSuccess) return st;
        break;
      }
      case Op::kReturn:
        return ExecStatus::kSuccess;
      case Op::kAbort:
        return ExecStatus::kExplicitAbort;
    }
  }
  return ExecStatus::kSuccess;
}

}  // namespace jenga::vm
