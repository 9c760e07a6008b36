// Bytecode for the Jenga contract VM.
//
// A deliberately small stack machine (DESIGN.md §2: EVM substitution).  What
// the evaluation needs from "smart contracts" is that a transaction invokes
// several contracts, each running some logic over persistent per-contract
// state and account balances, with gas metering and cross-contract calls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
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

/// One decoded instruction: what the assembler emits and what
/// Code::operator[] returns.  Code stores instructions in a smaller form.
struct Instruction {
  Op op{};
  std::uint64_t imm = 0;
};

/// A function body, one 16-bit unit per instruction; the pc is the unit's
/// index.  The op takes the low kOpBits bits.  The immediate takes the high
/// 11 bits when it is below kInlineLimit; any other immediate is held in a
/// side table sorted by pc, and its unit holds the sentinel kInlineLimit.
/// Generated code never needs the table (its immediates are at most 1000),
/// so the table allocates nothing there; assembled code uses it for CALL
/// into slot >= 1, large PUSH constants and jumps past pc 2046.
///
/// Every shard's logic store shares one copy of each contract's logic, and a
/// generated contract gets its bodies only when a transaction first calls it
/// (workload::TraceGenerator), so a run holds the bodies of the contracts it
/// runs.  The storage model does not charge this layout:
/// ContractLogic::code_size_bytes() charges kInstructionBytes.
class Code {
 public:
  static constexpr unsigned kOpBits = 5;
  /// Immediates below this are held in their unit.
  static constexpr std::uint64_t kInlineLimit = (1u << (16 - kOpBits)) - 1;

  Code() = default;
  Code(std::initializer_list<Instruction> code) : Code(std::vector<Instruction>(code)) {}
  /// Implicit, so assembler output converts: `{"name", assemble(src).value()}`.
  Code(const std::vector<Instruction>& code) {
    reserve(code.size());
    for (const Instruction& ins : code) push_back(ins);
  }

  void reserve(std::size_t n) { units_.reserve(n); }
  void push_back(Instruction ins) {
    std::uint64_t field = ins.imm;
    if (ins.imm >= kInlineLimit) {
      wide_.push_back({units_.size(), ins.imm});
      field = kInlineLimit;
    }
    units_.push_back(static_cast<std::uint16_t>(static_cast<std::uint64_t>(ins.op) |
                                                field << kOpBits));
  }

  [[nodiscard]] std::size_t size() const { return units_.size(); }
  [[nodiscard]] bool empty() const { return units_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return units_.capacity(); }

  [[nodiscard]] Instruction operator[](std::size_t pc) const {
    const std::uint16_t unit = units_[pc];
    const auto op = static_cast<Op>(unit & kOpMask);
    const std::uint64_t imm = unit >> kOpBits;
    if (imm != kInlineLimit) [[likely]]
      return {op, imm};
    return {op, wide_imm(pc)};
  }
  [[nodiscard]] Instruction back() const { return (*this)[units_.size() - 1]; }

 private:
  static constexpr std::uint16_t kOpMask = (1u << kOpBits) - 1;

  struct WideImm {
    std::size_t pc;
    std::uint64_t imm;
  };

  [[nodiscard]] std::uint64_t wide_imm(std::size_t pc) const {
    return std::partition_point(wide_.begin(), wide_.end(),
                                [pc](const WideImm& w) { return w.pc < pc; })
        ->imm;
  }

  std::vector<std::uint16_t> units_;
  std::vector<WideImm> wide_;  // ascending pc: push_back appends in pc order
};
static_assert(static_cast<unsigned>(Op::kAbort) < (1u << Code::kOpBits),
              "every op (kAbort is the last) fits in kOpBits");

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
  Code code;
};

/// What the storage model charges per instruction: an op byte and an 8-byte
/// immediate.  Fixed, so logic storage, deploy-tx sizes and Fig. 7 do not
/// depend on Code's in-memory layout.
inline constexpr std::uint64_t kInstructionBytes = 9;

/// What the storage model charges for one function: a 16-byte header, the
/// name and kInstructionBytes per instruction.
[[nodiscard]] constexpr std::uint64_t function_size_bytes(std::size_t name_size,
                                                          std::size_t instructions) {
  return 16 + name_size + kInstructionBytes * instructions;
}

/// A deployed contract's logic (the part Jenga replicates to every shard).
///
/// A generated contract's bodies are built when a transaction first calls
/// it (workload::TraceGenerator); until then `functions` is empty and
/// `unbuilt_functions` and `unbuilt_code_bytes` say what the bodies will be,
/// so the storage model charges every contract whether it has run or not.
struct ContractLogic {
  ContractId id{};
  std::vector<Function> functions;
  std::uint32_t unbuilt_functions = 0;
  std::uint64_t unbuilt_code_bytes = 0;

  [[nodiscard]] std::size_t function_count() const {
    return functions.empty() ? unbuilt_functions : functions.size();
  }

  /// Wire/storage footprint of the code: what "logic storage" costs a node.
  [[nodiscard]] std::uint64_t code_size_bytes() const {
    if (functions.empty()) return unbuilt_code_bytes;
    std::uint64_t n = 0;
    for (const auto& f : functions) n += function_size_bytes(f.name.size(), f.code.size());
    return n;
  }
};

/// Per-op base gas costs; storage I/O is deliberately the expensive part.
[[nodiscard]] std::uint64_t gas_cost(Op op);

[[nodiscard]] const char* op_name(Op op);

}  // namespace jenga::vm
