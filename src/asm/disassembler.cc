#include "asm/disassembler.h"

#include <cstdio>

#include "arch/isa.h"

namespace sm::assembler {

namespace {

// Operands are formatted with snprintf rather than string concatenation,
// which GCC 12 release builds flag with -Wrestrict false positives.
std::string reg_name(u8 r) {
  if (r == arch::kRegSp) return "sp";
  if (r == arch::kRegFp) return "fp";
  char buf[8];
  std::snprintf(buf, sizeof buf, "r%u", static_cast<unsigned>(r));
  return buf;
}

std::string hex(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

std::string mem_operand(u8 base, u32 off) {
  const std::string r = reg_name(base);
  char buf[32];
  if (off == 0) {
    std::snprintf(buf, sizeof buf, "[%s]", r.c_str());
  } else if (static_cast<arch::i32>(off) < 0) {
    std::snprintf(buf, sizeof buf, "[%s-0x%x]", r.c_str(), 0u - off);
  } else {
    std::snprintf(buf, sizeof buf, "[%s+0x%x]", r.c_str(), off);
  }
  return buf;
}

// "name op1, op2": operands in encoding order, except that a load's rb and
// a store's ra print as the base of a memory operand that takes the imm.
std::string render(const arch::Decoded& d) {
  using arch::Form;
  const arch::OpInfo& row = arch::op_info(d.op);
  const Form f = row.form;
  std::string out = row.name;
  auto operand = [&out, sep = " "](const std::string& text) mutable {
    out += sep;
    out += text;
    sep = ", ";
  };
  if (f == Form::kStore) {
    operand(mem_operand(d.ra, d.imm));
  } else if (arch::has_ra(f)) {
    operand(reg_name(d.ra));
  }
  if (f == Form::kLoad) {
    operand(mem_operand(d.rb, d.imm));
  } else if (arch::has_rb(f)) {
    operand(reg_name(d.rb));
  } else if (arch::has_imm(f)) {
    operand(hex(d.imm));
  }
  return out;
}

}  // namespace

std::vector<DisasmLine> disassemble(std::span<const u8> bytes, u32 base_addr,
                                    std::size_t max_instrs) {
  std::vector<DisasmLine> out;
  std::size_t pos = 0;
  while (pos < bytes.size() && out.size() < max_instrs) {
    DisasmLine line;
    line.addr = base_addr + static_cast<u32>(pos);
    const auto d = arch::decode(bytes.subspan(pos));
    if (!d) {
      line.bytes = {bytes[pos]};
      line.text = "(bad)";
      pos += 1;
    } else {
      const auto view = bytes.subspan(pos, d->len);
      line.bytes.assign(view.begin(), view.end());
      line.text = render(*d);
      pos += d->len;
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::string format(const std::vector<DisasmLine>& lines) {
  std::string out;
  for (const DisasmLine& l : lines) {
    char head[32];
    std::snprintf(head, sizeof head, "%08x:  ", l.addr);
    out += head;
    std::string byte_col;
    for (u8 b : l.bytes) {
      char bb[8];
      std::snprintf(bb, sizeof bb, "%02x ", b);
      byte_col += bb;
    }
    byte_col.resize(24, ' ');
    out += byte_col;
    out += l.text;
    out += '\n';
  }
  return out;
}

}  // namespace sm::assembler
