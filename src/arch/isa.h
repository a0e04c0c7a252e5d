// Instruction set of the simulated 32-bit machine.
//
// Byte-encoded, little-endian, variable length: [opcode][operands...].
// Register operands are one byte each (0-7); immediates are 32-bit LE.
// NOP is 0x90 so classic x86-style NOP sleds look the same in hex dumps
// and in the paper's forensics screenshots. 0x00 (and every unassigned
// byte) decodes to #UD, so a zero-filled code frame faults on fetch —
// which is what makes break/observe/forensics response modes triggerable.
//
// Registers: r0-r5 general purpose, r6 = frame pointer (FP), r7 = stack
// pointer (SP). Flags are set only by CMP/CMPI: ZF (equal), SF (signed
// less-than), CF (unsigned below). Bit 8 of FLAGS is the x86-style trap
// flag (TF): when set, the CPU raises a debug trap after completing one
// instruction — the hook Algorithm 2 uses to re-restrict a split page.
#pragma once

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "arch/types.h"

namespace sm::arch {

inline constexpr u32 kNumRegs = 8;
inline constexpr u32 kRegFp = 6;
inline constexpr u32 kRegSp = 7;

// FLAGS bits.
inline constexpr u32 kFlagZ = 1u << 0;
inline constexpr u32 kFlagS = 1u << 1;   // signed less-than from CMP
inline constexpr u32 kFlagC = 1u << 2;   // unsigned below from CMP
inline constexpr u32 kFlagTrap = 1u << 8;  // single-step (TF)

enum class Op : u8 {
  kMovi = 0x01,    // MOVI rd, imm32
  kMov = 0x02,     // MOV rd, rs
  kLoad = 0x03,    // LOAD rd, [rs+imm32]
  kStore = 0x04,   // STORE [rd+imm32], rs
  kLoadb = 0x05,   // LOADB rd, [rs+imm32]  (zero-extends)
  kStoreb = 0x06,  // STOREB [rd+imm32], rs (low byte)

  kAdd = 0x10,
  kSub = 0x11,
  kMul = 0x12,
  kDiv = 0x13,  // unsigned; divisor 0 -> #DE
  kAnd = 0x14,
  kOr = 0x15,
  kXor = 0x16,
  kShl = 0x17,
  kShr = 0x18,
  kAddi = 0x19,  // ADDI rd, imm32
  kCmp = 0x1A,   // CMP ra, rb
  kCmpi = 0x1B,  // CMPI ra, imm32
  kNot = 0x1C,
  kModu = 0x1D,  // unsigned remainder; divisor 0 -> #DE

  kJmp = 0x20,  // absolute
  kJz = 0x21,
  kJnz = 0x22,
  kJlt = 0x23,  // signed <
  kJge = 0x24,  // signed >=
  kJb = 0x25,   // unsigned <
  kJae = 0x26,  // unsigned >=
  kJmpr = 0x27,

  kCall = 0x30,   // push return address, jump
  kCallr = 0x31,  // indirect call through register
  kRet = 0x32,    // pop pc  (the classic hijack point)
  kPush = 0x33,
  kPop = 0x34,

  kSyscall = 0x40,  // number in r0, args in r1..r4, result in r0

  kNop = 0x90,
};

// Operand layout after the opcode byte. Register operands are one byte,
// immediates four (little-endian); the forms from kRegImm on carry one.
enum class Form : u8 {
  kNone,    // op                          ret
  kReg,     // op ra                       push ra
  kRegReg,  // op ra rb                    add ra, rb
  kRegImm,  // op ra imm32                 movi ra, imm
  kImm,     // op imm32                    jmp imm
  kLoad,    // op ra rb imm32              load ra, [rb+imm]
  kStore,   // op ra rb imm32              store [ra+imm], rb
};

// Execution facts, carried in Decoded::flags for the block engine.
inline constexpr u8 kTerminator = 1u << 0;    // ends a block: next pc unknown
inline constexpr u8 kWritesMemory = 1u << 1;  // may store to guest memory
inline constexpr u8 kMayFault = 1u << 2;      // execute() may trap

struct OpInfo {
  Op op;
  const char* name;  // assembler/disassembler mnemonic
  Form form;
  u8 flags;
};

// The ISA: every defined opcode, once. Length, decode, encode, register
// validation, the block engine's predicates, the assembler's mnemonics and
// the disassembler's rendering all derive from these rows; only
// Cpu::execute() spells out each opcode's semantics.
inline constexpr OpInfo kOpTable[] = {
    {Op::kMovi, "movi", Form::kRegImm, 0},
    {Op::kMov, "mov", Form::kRegReg, 0},
    {Op::kLoad, "load", Form::kLoad, kMayFault},
    {Op::kStore, "store", Form::kStore, kWritesMemory | kMayFault},
    {Op::kLoadb, "loadb", Form::kLoad, kMayFault},
    {Op::kStoreb, "storeb", Form::kStore, kWritesMemory | kMayFault},
    {Op::kAdd, "add", Form::kRegReg, 0},
    {Op::kSub, "sub", Form::kRegReg, 0},
    {Op::kMul, "mul", Form::kRegReg, 0},
    {Op::kDiv, "div", Form::kRegReg, kMayFault},
    {Op::kAnd, "and", Form::kRegReg, 0},
    {Op::kOr, "or", Form::kRegReg, 0},
    {Op::kXor, "xor", Form::kRegReg, 0},
    {Op::kShl, "shl", Form::kRegReg, 0},
    {Op::kShr, "shr", Form::kRegReg, 0},
    {Op::kAddi, "addi", Form::kRegImm, 0},
    {Op::kCmp, "cmp", Form::kRegReg, 0},
    {Op::kCmpi, "cmpi", Form::kRegImm, 0},
    {Op::kNot, "not", Form::kReg, 0},
    {Op::kModu, "modu", Form::kRegReg, kMayFault},
    {Op::kJmp, "jmp", Form::kImm, kTerminator},
    {Op::kJz, "jz", Form::kImm, kTerminator},
    {Op::kJnz, "jnz", Form::kImm, kTerminator},
    {Op::kJlt, "jlt", Form::kImm, kTerminator},
    {Op::kJge, "jge", Form::kImm, kTerminator},
    {Op::kJb, "jb", Form::kImm, kTerminator},
    {Op::kJae, "jae", Form::kImm, kTerminator},
    {Op::kJmpr, "jmpr", Form::kReg, kTerminator},
    {Op::kCall, "call", Form::kImm, kTerminator | kWritesMemory | kMayFault},
    {Op::kCallr, "callr", Form::kReg, kTerminator | kWritesMemory | kMayFault},
    {Op::kRet, "ret", Form::kNone, kTerminator | kMayFault},
    {Op::kPush, "push", Form::kReg, kWritesMemory | kMayFault},
    {Op::kPop, "pop", Form::kReg, kMayFault},
    {Op::kSyscall, "syscall", Form::kNone, kTerminator},
    {Op::kNop, "nop", Form::kNone, 0},
};

// kOpTable row index + 1 by opcode byte; 0 for the bytes that raise #UD.
// (Indices, not pointers: sanitizer builds reject pointer comparisons in
// constant expressions.)
inline constexpr std::array<u8, 256> kRowByByte = [] {
  std::array<u8, 256> rows{};
  for (u32 i = 0; i < std::size(kOpTable); ++i) {
    rows[static_cast<u8>(kOpTable[i].op)] = static_cast<u8>(i + 1);
  }
  return rows;
}();
static_assert(std::ranges::count(kRowByByte, 0) == 256 - std::size(kOpTable),
              "two kOpTable rows share an opcode byte");

// The row of `opcode`, or nullptr if it is undefined (#UD).
constexpr const OpInfo* op_info(u8 opcode) {
  const u8 row = kRowByByte[opcode];
  return row != 0 ? &kOpTable[row - 1] : nullptr;
}
constexpr const OpInfo& op_info(Op op) {
  return kOpTable[kRowByByte[static_cast<u8>(op)] - 1];
}

// The row whose mnemonic is `name`, or nullptr.
constexpr const OpInfo* find_op(std::string_view name) {
  for (const OpInfo& row : kOpTable) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

// Which operand bytes a form carries.
constexpr bool has_ra(Form f) {
  return f != Form::kNone && f != Form::kImm;
}
constexpr bool has_rb(Form f) {
  return f == Form::kRegReg || f == Form::kLoad || f == Form::kStore;
}
constexpr bool has_imm(Form f) {
  return f >= Form::kRegImm;
}

// Encoded length of a form: opcode, register bytes, then the immediate.
constexpr u32 form_length(Form f) {
  return 1 + has_ra(f) + has_rb(f) + (has_imm(f) ? 4 : 0);
}

// Length in bytes of the instruction starting with `opcode`, or 0 if the
// opcode is invalid (#UD).
constexpr u32 instr_length(u8 opcode) {
  const OpInfo* row = op_info(opcode);
  return row != nullptr ? form_length(row->form) : 0;
}

// Maximum encoded instruction length (LOAD/STORE forms).
inline constexpr u32 kMaxInstrLength = form_length(Form::kLoad);

// A decoded instruction: operands cracked out of the byte stream, plus the
// opcode's kOpTable flags. Operands the form lacks are zero. Produced by
// decode(), memoized by DecodeCache and BlockCache (which is why the flags
// ride in what would otherwise be padding).
struct Decoded {
  Op op = Op::kNop;
  u8 ra = 0;
  u8 rb = 0;
  u8 flags = 0;
  u32 imm = 0;
  u32 len = 0;
};
static_assert(sizeof(Decoded) == 12,
              "flags must stay in padding: cache entries must not grow");

// Decodes the instruction at the front of `bytes`: nullopt if the opcode is
// undefined or `bytes` is shorter than its length. Register operands are
// returned as encoded; whether they name a register is the CPU's check.
constexpr std::optional<Decoded> decode(std::span<const u8> bytes) {
  if (bytes.empty()) return std::nullopt;
  const OpInfo* row = op_info(bytes[0]);
  if (row == nullptr) return std::nullopt;
  const Form f = row->form;
  Decoded d;
  d.op = row->op;
  d.flags = row->flags;
  d.len = form_length(f);
  if (bytes.size() < d.len) return std::nullopt;
  u32 at = 1;
  if (has_ra(f)) d.ra = bytes[at++];
  if (has_rb(f)) d.rb = bytes[at++];
  for (u32 i = 0; has_imm(f) && i < 4; ++i) {
    d.imm |= static_cast<u32>(bytes[at + i]) << (8 * i);
  }
  return d;
}

// Appends d.op encoded with the operands its form carries (the others, and
// d.len and d.flags, are ignored): decode() gives d's operands back.
inline void encode(const Decoded& d, std::vector<u8>& out) {
  const Form f = op_info(d.op).form;
  out.push_back(static_cast<u8>(d.op));
  if (has_ra(f)) out.push_back(d.ra);
  if (has_rb(f)) out.push_back(d.rb);
  for (u32 i = 0; has_imm(f) && i < 4; ++i) {
    out.push_back(static_cast<u8>(d.imm >> (8 * i)));
  }
}

}  // namespace sm::arch
