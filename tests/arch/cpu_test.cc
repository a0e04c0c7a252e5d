// CPU/ISA unit tests: instructions execute against an identity-mapped
// address space; faults roll state back for precise restart.
#include "arch/cpu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "arch/isa.h"
#include "asm/assembler.h"
#include "asm/disassembler.h"

namespace sm::arch {
namespace {

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : pm_(64), mmu_(pm_, stats_, cost_), cpu_(mmu_, stats_, cost_) {
    // Identity-map the first 16 pages, user-writable.
    const u32 root = PageTable::create(pm_);
    PageTable pt(pm_, root);
    for (u32 i = 0; i < 16; ++i) {
      const u32 frame = pm_.alloc_frame();
      pt.set(i * kPageSize,
             Pte::make(frame, Pte::kPresent | Pte::kUser | Pte::kWritable));
      frames_[i] = frame;
    }
    mmu_.set_cr3(root);
    cpu_.regs().pc = 0x1000;
    cpu_.regs().sp() = 0x8000;
  }

  // Writes code bytes at vaddr 0x1000 via the frames directly.
  void code(std::initializer_list<u8> bytes) {
    u32 off = 0;
    for (u8 b : bytes) pm_.frame_bytes(frames_[1])[off++] = b;
  }

  std::optional<Trap> step() { return cpu_.step(); }

  metrics::Stats stats_;
  metrics::CostModel cost_;
  PhysicalMemory pm_;
  Mmu mmu_;
  Cpu cpu_;
  u32 frames_[16];
};

TEST_F(CpuTest, MoviMovAdd) {
  code({0x01, 0, 5, 0, 0, 0,    // movi r0, 5
        0x02, 1, 0,             // mov r1, r0
        0x10, 1, 0});           // add r1, r0
  EXPECT_FALSE(step().has_value());
  EXPECT_FALSE(step().has_value());
  EXPECT_FALSE(step().has_value());
  EXPECT_EQ(cpu_.regs().r[1], 10u);
  EXPECT_EQ(cpu_.regs().pc, 0x1000u + 6 + 3 + 3);
}

TEST_F(CpuTest, LoadStoreRoundTrip) {
  code({0x01, 0, 0x44, 0x33, 0x22, 0x11,  // movi r0, 0x11223344
        0x01, 1, 0x00, 0x20, 0, 0,        // movi r1, 0x2000
        0x04, 1, 0, 4, 0, 0, 0,           // store [r1+4], r0
        0x03, 2, 1, 4, 0, 0, 0});         // load r2, [r1+4]
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(step().has_value());
  EXPECT_EQ(cpu_.regs().r[2], 0x11223344u);
  EXPECT_EQ(pm_.frame_bytes(frames_[2])[4], 0x44);
}

TEST_F(CpuTest, ByteOpsZeroExtend) {
  code({0x01, 0, 0xFF, 0x12, 0, 0,       // movi r0, 0x12FF
        0x01, 1, 0x00, 0x20, 0, 0,       // movi r1, 0x2000
        0x06, 1, 0, 0, 0, 0, 0,          // storeb [r1], r0
        0x05, 2, 1, 0, 0, 0, 0});        // loadb r2, [r1]
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(step().has_value());
  EXPECT_EQ(cpu_.regs().r[2], 0xFFu);
}

TEST_F(CpuTest, CallRetUseStack) {
  // call 0x1100; (at 0x1100) ret
  code({0x30, 0x00, 0x11, 0, 0});
  pm_.frame_bytes(frames_[1])[0x100] = 0x32;  // ret
  EXPECT_FALSE(step().has_value());
  EXPECT_EQ(cpu_.regs().pc, 0x1100u);
  EXPECT_EQ(cpu_.regs().sp(), 0x8000u - 4);
  EXPECT_FALSE(step().has_value());
  EXPECT_EQ(cpu_.regs().pc, 0x1005u);
  EXPECT_EQ(cpu_.regs().sp(), 0x8000u);
}

TEST_F(CpuTest, CmpBranches) {
  code({0x01, 0, 3, 0, 0, 0,    // movi r0, 3
        0x1B, 0, 5, 0, 0, 0,    // cmpi r0, 5
        0x23, 0x00, 0x20, 0, 0});  // jlt 0x2000
  step();
  step();
  EXPECT_FALSE(step().has_value());
  EXPECT_EQ(cpu_.regs().pc, 0x2000u);
}

TEST_F(CpuTest, UnsignedComparisonFlags) {
  // 0xFFFFFFFF unsigned-above 1, signed-less-than 1.
  code({0x01, 0, 0xFF, 0xFF, 0xFF, 0xFF,  // movi r0, -1
        0x1B, 0, 1, 0, 0, 0,              // cmpi r0, 1
        0x25, 0x00, 0x20, 0, 0,           // jb 0x2000 (not taken)
        0x23, 0x00, 0x30, 0, 0});         // jlt 0x3000 (taken)
  step();
  step();
  step();
  EXPECT_EQ(cpu_.regs().pc, 0x1000u + 6 + 6 + 5);
  step();
  EXPECT_EQ(cpu_.regs().pc, 0x3000u);
}

TEST_F(CpuTest, InvalidOpcodeFaultsWithoutAdvancing) {
  for (int op = 0; op < 256; ++op) {  // every byte without a kOpTable row
    if (op_info(static_cast<u8>(op)) != nullptr) continue;
    code({static_cast<u8>(op)});
    const auto trap = step();
    ASSERT_TRUE(trap.has_value());
    EXPECT_EQ(trap->kind, TrapKind::kInvalidOpcode);
    EXPECT_EQ(trap->opcode, op);
    EXPECT_EQ(cpu_.regs().pc, 0x1000u);  // precise: pc at faulting insn
  }
}

TEST_F(CpuTest, DivideByZeroFaults) {
  code({0x01, 0, 8, 0, 0, 0,  // movi r0, 8
        0x13, 0, 1});         // div r0, r1 (r1 == 0)
  step();
  const auto trap = step();
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind, TrapKind::kDivideByZero);
  EXPECT_EQ(cpu_.regs().r[0], 8u);  // unchanged
}

TEST_F(CpuTest, SyscallAdvancesPcAndTraps) {
  code({0x40});
  const auto trap = step();
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind, TrapKind::kSyscall);
  EXPECT_EQ(cpu_.regs().pc, 0x1001u);
}

TEST_F(CpuTest, PageFaultRollsBackPartialState) {
  // pop r0 then a store to an unmapped page: regs must be untouched.
  code({0x01, 1, 0x00, 0x00, 0xF0, 0,   // movi r1, 0xF00000 (unmapped)
        0x04, 1, 0, 0, 0, 0, 0});       // store [r1], r0
  step();
  const u32 sp_before = cpu_.regs().sp();
  const auto trap = step();
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind, TrapKind::kPageFault);
  EXPECT_EQ(trap->pf.addr, 0xF00000u);
  EXPECT_TRUE(trap->pf.write);
  EXPECT_FALSE(trap->pf.fetch);
  EXPECT_EQ(cpu_.regs().sp(), sp_before);
  EXPECT_EQ(cpu_.regs().pc, 0x1006u);  // at the store, not after
}

TEST_F(CpuTest, FetchFaultReportsFetchBit) {
  cpu_.regs().pc = 0xF00000;
  const auto trap = step();
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind, TrapKind::kPageFault);
  EXPECT_TRUE(trap->pf.fetch);
  EXPECT_EQ(trap->pf.addr, 0xF00000u);
}

TEST_F(CpuTest, TrapFlagSingleSteps) {
  code({0x90, 0x90});  // nop; nop
  cpu_.regs().set_tf(true);
  const auto trap = step();
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind, TrapKind::kDebugStep);
  EXPECT_EQ(cpu_.regs().pc, 0x1001u);  // instruction DID complete
  cpu_.regs().set_tf(false);
  EXPECT_FALSE(step().has_value());
}

TEST_F(CpuTest, PushPopRoundTrip) {
  code({0x01, 3, 0xEF, 0xBE, 0, 0,  // movi r3, 0xBEEF
        0x33, 3,                    // push r3
        0x34, 4});                  // pop r4
  step();
  step();
  step();
  EXPECT_EQ(cpu_.regs().r[4], 0xBEEFu);
  EXPECT_EQ(cpu_.regs().sp(), 0x8000u);
}

TEST_F(CpuTest, IndirectJumpAndCall) {
  code({0x01, 2, 0x00, 0x30, 0, 0,  // movi r2, 0x3000
        0x31, 2});                  // callr r2
  step();
  step();
  EXPECT_EQ(cpu_.regs().pc, 0x3000u);
  // Return address on stack is after the callr.
  EXPECT_EQ(pm_.read32(static_cast<u64>(frames_[7]) * kPageSize + 0xFFC),
            0x1008u);
}

TEST_F(CpuTest, BadRegisterFaultsGeneralProtection) {
  code({0x02, 9, 0});  // mov r9, r0 — no such register
  const auto trap = step();
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind, TrapKind::kGeneralProtection);
}

TEST_F(CpuTest, ShiftAndLogicOps) {
  code({0x01, 0, 0xF0, 0, 0, 0,  // movi r0, 0xF0
        0x01, 1, 4, 0, 0, 0,     // movi r1, 4
        0x18, 0, 1,              // shr r0, r1 -> 0xF
        0x17, 0, 1,              // shl r0, r1 -> 0xF0
        0x1C, 0});               // not r0
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(step().has_value());
  EXPECT_EQ(cpu_.regs().r[0], ~0xF0u);
}

// One case per kOpTable row, over sample operands: decode() gives back
// what encode() wrote plus the row's length and flags, disassembling and
// re-assembling gives the same bytes, and a register byte past r7 raises
// #GP in exactly the slots the row's form carries.
class IsaRoundTrip : public CpuTest,
                     public ::testing::WithParamInterface<std::size_t> {
 protected:
  std::optional<Trap> run(const std::vector<u8>& bytes) {
    std::ranges::copy(bytes, pm_.frame_bytes(frames_[1]).begin());
    cpu_.regs() = Regs{};
    cpu_.regs().pc = 0x1000;
    cpu_.regs().sp() = 0x8000;
    return step();
  }
};

TEST_P(IsaRoundTrip, EncodeDecodeDisassembleAssemble) {
  const OpInfo& row = kOpTable[GetParam()];
  const Form f = row.form;
  struct Sample {
    u8 ra, rb;
    u32 imm;
  };
  // An immediate ending in 0x08 puts a would-be bad register byte right
  // after the register operands: only real register slots may #GP.
  for (const Sample s : {Sample{0, 7, 0}, Sample{3, 5, 0x12345678},
                         Sample{6, 1, 0xfffffff8}, Sample{7, 6, 0x80000008}}) {
    Decoded d;
    d.op = row.op;
    d.ra = has_ra(f) ? s.ra : 0;
    d.rb = has_rb(f) ? s.rb : 0;
    d.imm = has_imm(f) ? s.imm : 0;
    std::vector<u8> bytes;
    encode(d, bytes);
    const auto back = decode(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->op == d.op && back->ra == d.ra && back->rb == d.rb &&
                back->imm == d.imm && back->len == bytes.size() &&
                back->len == form_length(f) && back->flags == row.flags);
    EXPECT_FALSE(decode(std::span(bytes).first(bytes.size() - 1)));

    const auto lines = assembler::disassemble(bytes, 0);
    ASSERT_EQ(lines.size(), 1u);
    SCOPED_TRACE(lines[0].text);
    EXPECT_EQ(assembler::assemble(lines[0].text).text, bytes);

    auto trap = run(bytes);
    EXPECT_FALSE(trap && trap->kind == TrapKind::kGeneralProtection);
    for (u8 Decoded::*slot : {&Decoded::ra, &Decoded::rb}) {
      if (!(slot == &Decoded::ra ? has_ra(f) : has_rb(f))) continue;
      Decoded bad = d;
      bad.*slot = kNumRegs;
      std::vector<u8> bad_bytes;
      encode(bad, bad_bytes);
      trap = run(bad_bytes);
      EXPECT_TRUE(trap && trap->kind == TrapKind::kGeneralProtection);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryOpcode, IsaRoundTrip,
                         ::testing::Range(std::size_t{0}, std::size(kOpTable)),
                         [](const auto& info) {
                           return std::string(kOpTable[info.param].name);
                         });

}  // namespace
}  // namespace sm::arch
