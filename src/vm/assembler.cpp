#include "vm/assembler.hpp"

#include <charconv>
#include <optional>
#include <map>
#include <sstream>
#include <vector>

namespace jenga::vm {
namespace {

struct PendingJump {
  std::size_t instruction_index;
  std::string label;
  std::size_t line_no;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

std::optional<Op> parse_op(std::string_view m) {
  static const std::map<std::string, Op, std::less<>> kOps = {
      {"PUSH", Op::kPush},   {"POP", Op::kPop},       {"DUP", Op::kDup},
      {"SWAP", Op::kSwap},   {"ADD", Op::kAdd},       {"SUB", Op::kSub},
      {"MUL", Op::kMul},     {"DIV", Op::kDiv},       {"MOD", Op::kMod},
      {"LT", Op::kLt},       {"EQ", Op::kEq},         {"NOT", Op::kNot},
      {"JUMP", Op::kJump},   {"JZ", Op::kJumpIfZero}, {"SLOAD", Op::kSload},
      {"SSTORE", Op::kSstore}, {"BALANCE", Op::kBalance}, {"CREDIT", Op::kCredit},
      {"DEBIT", Op::kDebit}, {"CALLER", Op::kCaller}, {"ARG", Op::kArg},
      {"HASH", Op::kHash},   {"CALL", Op::kCall},     {"RETURN", Op::kReturn},
      {"ABORT", Op::kAbort},
  };
  auto it = kOps.find(m);
  if (it == kOps.end()) return std::nullopt;
  return it->second;
}

bool needs_imm(Op op) {
  return op == Op::kPush || op == Op::kJump || op == Op::kJumpIfZero || op == Op::kCall;
}

}  // namespace

Result<std::vector<Instruction>, std::string> assemble(std::string_view source) {
  std::vector<Instruction> code;
  std::map<std::string, std::size_t, std::less<>> labels;
  std::vector<PendingJump> pending;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t nl = source.find('\n', pos);
    std::string_view line =
        source.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? source.size() + 1 : nl + 1;
    ++line_no;

    if (const auto comment = line.find(';'); comment != std::string_view::npos)
      line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.back() == ':') {
      const std::string label(trim(line.substr(0, line.size() - 1)));
      if (label.empty() || labels.contains(label))
        return Err("line " + std::to_string(line_no) + ": bad or duplicate label");
      labels[label] = code.size();
      continue;
    }

    std::istringstream words{std::string(line)};
    std::string mnemonic;
    words >> mnemonic;
    const auto op = parse_op(mnemonic);
    if (!op) return Err("line " + std::to_string(line_no) + ": unknown op '" + mnemonic + "'");

    Instruction ins{*op, 0};
    if (*op == Op::kCall) {
      std::uint64_t slot = 0, fn = 0;
      if (!(words >> slot >> fn))
        return Err("line " + std::to_string(line_no) + ": CALL needs slot and function");
      if (slot > 0xFFFF || fn > 0xFFFF)
        return Err("line " + std::to_string(line_no) + ": CALL operand above 65535");
      ins.imm = pack_call(static_cast<std::uint16_t>(slot), static_cast<std::uint16_t>(fn));
    } else if (*op == Op::kJump || *op == Op::kJumpIfZero) {
      std::string target;
      if (!(words >> target))
        return Err("line " + std::to_string(line_no) + ": jump needs a target");
      // Numeric targets allowed; otherwise resolve as a label later.
      std::uint64_t value = 0;
      auto [p, ec] = std::from_chars(target.data(), target.data() + target.size(), value);
      if (ec == std::errc() && p == target.data() + target.size()) {
        ins.imm = value;
      } else {
        pending.push_back({code.size(), target, line_no});
      }
    } else if (needs_imm(*op)) {
      std::uint64_t value = 0;
      if (!(words >> value))
        return Err("line " + std::to_string(line_no) + ": " + mnemonic + " needs an immediate");
      ins.imm = value;
    }
    std::string extra;
    if (words >> extra)
      return Err("line " + std::to_string(line_no) + ": trailing token '" + extra + "'");
    code.push_back(ins);
  }

  for (const auto& jump : pending) {
    const auto it = labels.find(jump.label);
    if (it == labels.end())
      return Err("line " + std::to_string(jump.line_no) + ": unknown label '" + jump.label + "'");
    code[jump.instruction_index].imm = it->second;
  }
  return code;
}

std::string disassemble(const std::vector<Instruction>& code) {
  std::ostringstream out;
  for (std::size_t i = 0; i < code.size(); ++i) {
    out << i << ": " << op_name(code[i].op);
    if (code[i].op == Op::kCall) {
      out << ' ' << call_slot(code[i].imm) << ' ' << call_function(code[i].imm);
    } else if (needs_imm(code[i].op)) {
      out << ' ' << code[i].imm;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace jenga::vm
