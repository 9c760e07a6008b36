// Bytecode for the Jenga contract VM.
//
// A deliberately small stack machine (DESIGN.md §2: EVM substitution).  What
// the evaluation needs from "smart contracts" is that a transaction invokes
// several contracts, each running some logic over persistent per-contract
// state and account balances, with gas metering and cross-contract calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace jenga::vm {

enum class Op : std::uint8_t {
  kPush = 0,    // push imm
  kPop,         // discard top
  kDup,         // duplicate top
  kSwap,        // swap top two
  kAdd,         // a b -- (a+b)  (wrapping)
  kSub,         // a b -- (a-b)  (wrapping)
  kMul,         // a b -- (a*b)  (wrapping)
  kDiv,         // a b -- (a/b); b==0 aborts
  kMod,         // a b -- (a%b); b==0 aborts
  kLt,          // a b -- (a<b)
  kEq,          // a b -- (a==b)
  kNot,         // a -- (a==0)
  kJump,        // unconditional jump to imm (instruction index)
  kJumpIfZero,  // a -- ; jump to imm when a == 0
  kSload,       // key -- value        (this contract's state; 0 if absent)
  kSstore,      // key value --        (write this contract's state)
  kBalance,     // account -- balance
  kCredit,      // account amount --   (add to account balance)
  kDebit,       // account amount --   (subtract; insufficient funds aborts)
  kCaller,      // -- sender account id
  kArg,         // i -- args[i]        (transaction-supplied arguments)
  kHash,        // a -- h(a)           (cheap 64-bit mix, deterministic)
  kCall,        // imm = packed(contract_index, function); args stay on stack
  kReturn,      // end current frame (top frame: end execution, success)
  kAbort,       // abort the whole transaction
};

/// Packed to the 9 bytes code_size_bytes() charges: contract bytecode is the
/// largest part of a run's set-up memory, and the 7 padding bytes of a
/// naturally aligned layout would nearly double it.  Fields are read by
/// value, never by reference, so the unaligned `imm` is safe.
struct [[gnu::packed]] Instruction {
  Op op{};
  std::uint64_t imm = 0;
};
static_assert(sizeof(Instruction) == 9);

/// imm encoding for kCall: (callee_slot << 16) | function_index.  The callee
/// slot indexes the transaction's declared contract list, so bytecode never
/// hard-codes global contract ids and the declared-access check is structural.
constexpr std::uint64_t pack_call(std::uint16_t callee_slot, std::uint16_t function) {
  return (static_cast<std::uint64_t>(callee_slot) << 16) | function;
}
constexpr std::uint16_t call_slot(std::uint64_t imm) {
  return static_cast<std::uint16_t>(imm >> 16);
}
constexpr std::uint16_t call_function(std::uint64_t imm) {
  return static_cast<std::uint16_t>(imm & 0xFFFF);
}

struct Function {
  std::string name;
  std::vector<Instruction> code;
};

/// A deployed contract's logic (the part Jenga replicates to every shard).
struct ContractLogic {
  ContractId id{};
  std::vector<Function> functions;

  /// Wire/storage footprint of the code: what "logic storage" costs a node.
  [[nodiscard]] std::uint64_t code_size_bytes() const {
    std::uint64_t n = 0;
    for (const auto& f : functions)
      n += 16 + f.name.size() + sizeof(Instruction) * f.code.size();
    return n;
  }
};

/// Per-op base gas costs; storage I/O is deliberately the expensive part.
[[nodiscard]] std::uint64_t gas_cost(Op op);

[[nodiscard]] const char* op_name(Op op);

}  // namespace jenga::vm
