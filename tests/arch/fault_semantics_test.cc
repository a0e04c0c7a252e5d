// Fault semantics of both execution engines. Every instruction that can
// fault is made to fault under Cpu::step(), while the block engine records
// it, and mid-block in a cached run: each time the registers must be back
// at their pre-instruction values, the Trap must be the same, the faulting
// instruction must not retire (or be recorded), and every simulated Stats
// counter must match the per-instruction engine's.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "arch/cpu.h"
#include "support/billing.h"

namespace sm::arch {
namespace {

constexpr u32 kUnmapped = 0x9000;  // pages 1..7 are mapped, 8.. are not

struct Rig {
  metrics::Stats stats;
  metrics::CostModel cost;
  PhysicalMemory pm{64};
  Mmu mmu{pm, stats, cost};
  Cpu cpu{mmu, stats, cost};
  u32 root = 0;
  u32 frames[8] = {};

  Rig() {
    cost.tlb_hit = 2;  // make wholesale hit billing observable in cycles
    root = PageTable::create(pm);
    PageTable pt(pm, root);
    for (u32 i = 1; i < 8; ++i) {
      frames[i] = pm.alloc_frame();
      pt.set(i * kPageSize,
             Pte::make(frames[i], Pte::kPresent | Pte::kUser | Pte::kWritable));
    }
    mmu.set_cr3(root);
  }

  u64 pa(u32 va) const {
    return static_cast<u64>(frames[va >> kPageShift]) * kPageSize +
           page_offset(va);
  }
  void emit(u32 va, std::initializer_list<u8> bytes) {
    for (u8 b : bytes) pm.write8(pa(va++), b);
  }
};

// The per-instruction engine, driven attempt by attempt exactly as the
// kernel's step() path would, reported in the block engine's terms.
Cpu::BlockStep step_n(Cpu& cpu, u64 max_attempts) {
  Cpu::BlockStep out;
  while (out.attempts < max_attempts) {
    ++out.attempts;
    if ((out.trap = cpu.step())) break;
  }
  return out;
}

void expect_same_regs(const Regs& a, const Regs& b) {
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.flags, b.flags);
  for (u32 i = 0; i < kNumRegs; ++i) EXPECT_EQ(a.r[i], b.r[i]) << "r" << i;
}

void expect_same_trap(const Trap& a, const Trap& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.opcode, b.opcode);
  EXPECT_EQ(a.pf.addr, b.pf.addr);
  EXPECT_EQ(a.pf.present, b.pf.present);
  EXPECT_EQ(a.pf.write, b.pf.write);
  EXPECT_EQ(a.pf.user, b.pf.user);
  EXPECT_EQ(a.pf.fetch, b.pf.fetch);
  EXPECT_EQ(a.pf.soft_miss, b.pf.soft_miss);
}

// One faulting instruction, placed at 0x1006 after `addi r0, 1` (so the
// fault lands mid-block) and, unless it ends the block itself, followed by
// `jmp 0x1000`. arm() sets the registers for a clean run (fault=false) or
// a faulting one.
struct Case {
  std::string name;
  std::vector<u8> instr;
  std::function<void(Regs&, bool fault)> arm;
  Trap expected;
};

Trap pf(u32 addr, bool write) {
  PageFaultInfo info;
  info.addr = addr;
  info.write = write;
  return Trap::page_fault(info);
}

std::vector<Case> faulting_cases() {
  const auto via_r1 = [](u32 good) {
    return [good](Regs& r, bool fault) { r.r[1] = fault ? kUnmapped : good; };
  };
  const auto pushing = [](Regs& r, bool fault) {
    r.r[3] = 0x2000;
    r.sp() = fault ? kUnmapped + 4 : 0x7000;
  };
  const auto popping = [](Regs& r, bool fault) {
    r.sp() = fault ? kUnmapped : 0x6000;
  };
  const auto divisor = [](Regs& r, bool fault) {
    r.r[2] = 100;
    r.r[1] = fault ? 0 : 7;
  };
  const auto straddle = [](Regs& r, bool fault) {
    r.r[1] = fault ? 0x7FFE : 0x5FFE;  // page 8 is unmapped, page 6 is not
    r.r[2] = 0xA1B2C3D4;
  };
  const Trap de = Trap::simple(TrapKind::kDivideByZero);
  return {
      {"load", {0x03, 2, 1, 0, 0, 0, 0}, via_r1(0x3000), pf(kUnmapped, false)},
      {"store", {0x04, 1, 2, 0, 0, 0, 0}, via_r1(0x3000), pf(kUnmapped, true)},
      {"loadb", {0x05, 2, 1, 0, 0, 0, 0}, via_r1(0x3000), pf(kUnmapped, false)},
      {"storeb", {0x06, 1, 2, 0, 0, 0, 0}, via_r1(0x3000), pf(kUnmapped, true)},
      {"push", {0x33, 2}, pushing, pf(kUnmapped, true)},
      {"pop", {0x34, 2}, popping, pf(kUnmapped, false)},
      {"call", {0x30, 0x00, 0x20, 0, 0}, pushing, pf(kUnmapped, true)},
      {"callr", {0x31, 3}, pushing, pf(kUnmapped, true)},
      {"ret", {0x32}, popping, pf(kUnmapped, false)},
      {"div", {0x13, 2, 1}, divisor, de},
      {"modu", {0x1D, 2, 1}, divisor, de},
      {"straddling_load", {0x03, 2, 1, 0, 0, 0, 0}, straddle,
       pf(0x8000, false)},
      {"straddling_store", {0x04, 1, 2, 0, 0, 0, 0}, straddle,
       pf(0x8000, true)},
  };
}

u32 load_program(Rig& rig, const Case& c) {
  rig.emit(0x1000, {0x19, 0, 1, 0, 0, 0});  // addi r0, 1
  u32 va = 0x1006;
  for (u8 b : c.instr) rig.emit(va++, {b});
  if (op_info(c.instr[0])->flags & kTerminator) return 2;  // no fall-through
  rig.emit(va, {0x20, 0x00, 0x10, 0, 0});  // jmp 0x1000
  return 3;
}

void arm(Rig& rig, const Case& c, bool fault) {
  Regs& r = rig.cpu.regs();
  r = Regs{};
  r.pc = 0x1000;
  r.sp() = 0x7000;
  c.arm(r, fault);
}

// Runs the faulting pass on `interp` (step()) and `blocks` (step_block)
// and checks both against each other and against the contract.
void expect_fault_pass(Rig& interp, Rig& blocks, const Case& c) {
  arm(interp, c, true);
  arm(blocks, c, true);
  ASSERT_FALSE(interp.cpu.step().has_value());  // addi
  const Regs before = interp.cpu.regs();        // pre-fault state
  const auto t = interp.cpu.step();
  ASSERT_TRUE(t.has_value());
  expect_same_trap(*t, c.expected);
  expect_same_regs(interp.cpu.regs(), before);

  const u64 block_instrs = blocks.stats.block_instructions;
  const auto bs = blocks.cpu.step_block(16);
  EXPECT_EQ(bs.attempts, 2u) << "addi retired, the faulting op attempted";
  ASSERT_TRUE(bs.trap.has_value());
  expect_same_trap(*bs.trap, *t);
  expect_same_regs(blocks.cpu.regs(), before);
  EXPECT_TRUE(sm::testing::same_billing(interp.stats, blocks.stats));
  // Only a cached run retires from a block, and never the faulting op.
  EXPECT_LE(blocks.stats.block_instructions - block_instrs, 1u);
}

TEST(FaultSemantics, EveryFaultingOpWhileRecording) {
  for (const Case& c : faulting_cases()) {
    SCOPED_TRACE(c.name);
    Rig interp, blocks;
    load_program(interp, c);
    load_program(blocks, c);
    const u64 misses = blocks.stats.block_cache_misses;
    expect_fault_pass(interp, blocks, c);
    EXPECT_EQ(blocks.stats.block_cache_misses, misses + 1);
    EXPECT_EQ(blocks.stats.block_instructions, 0u);
    // The faulting block was not recorded: re-entry records again.
    arm(blocks, c, true);
    blocks.cpu.step_block(16);
    EXPECT_EQ(blocks.stats.block_cache_misses, misses + 2);
    EXPECT_EQ(blocks.stats.block_cache_hits, 0u);
  }
}

TEST(FaultSemantics, EveryFaultingOpMidCachedBlock) {
  for (const Case& c : faulting_cases()) {
    SCOPED_TRACE(c.name);
    Rig interp, blocks;
    const u32 len = load_program(interp, c);
    load_program(blocks, c);
    // A clean pass records the whole block on the block engine; the
    // interpreter runs the same instructions so both rigs stay in step.
    arm(interp, c, false);
    arm(blocks, c, false);
    const auto warm_i = step_n(interp.cpu, len);
    const auto warm_b = blocks.cpu.step_block(len);
    ASSERT_FALSE(warm_i.trap.has_value());
    ASSERT_FALSE(warm_b.trap.has_value());
    ASSERT_EQ(warm_b.attempts, len);
    const u64 hits = blocks.stats.block_cache_hits;
    expect_fault_pass(interp, blocks, c);
    EXPECT_EQ(blocks.stats.block_cache_hits, hits + 1) << "ran from cache";
    EXPECT_EQ(blocks.stats.block_instructions, 1u);  // the addi
  }
}

TEST(FaultSemantics, StraddlingStoreFaultLeavesFirstPageUntouched) {
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "recording");
    const Case c = faulting_cases().back();
    ASSERT_EQ(c.name, "straddling_store");
    Rig rig;
    const u32 len = load_program(rig, c);
    if (cached) {
      arm(rig, c, false);
      ASSERT_FALSE(rig.cpu.step_block(len).trap.has_value());
    }
    rig.pm.write8(rig.pa(0x7FFE), 0x11);
    rig.pm.write8(rig.pa(0x7FFF), 0x22);
    const u64 gen = rig.pm.generation(rig.frames[7]);
    arm(rig, c, true);
    const auto bs = rig.cpu.step_block(16);
    ASSERT_TRUE(bs.trap.has_value());
    EXPECT_EQ(bs.trap->pf.addr, 0x8000u);
    EXPECT_EQ(rig.pm.read8(rig.pa(0x7FFE)), 0x11);
    EXPECT_EQ(rig.pm.read8(rig.pa(0x7FFF)), 0x22);
    EXPECT_EQ(rig.pm.generation(rig.frames[7]), gen);
  }
}

// Decode-time faults (#UD, #GP, a straddling fetch) never enter a cached
// block — decoding is what fails — so they are checked under step() and
// while recording, reached both from a cold entry and chained behind a
// cached block.
struct DecodeCase {
  std::string name;
  u32 pc;  // where the faulting instruction sits
  std::vector<u8> instr;
  Trap expected;
};

std::vector<DecodeCase> decode_cases() {
  PageFaultInfo fetch;
  fetch.addr = 0x8000;
  fetch.fetch = true;
  return {
      {"invalid_opcode", 0x1010, {0x00}, Trap::invalid_opcode(0x00)},
      {"bad_register", 0x1010, {0x02, 9, 0},
       Trap::simple(TrapKind::kGeneralProtection)},
      {"straddling_fetch", 0x7FFE, {0x01, 2, 0, 0, 0, 0},
       Trap::page_fault(fetch)},
  };
}

TEST(FaultSemantics, DecodeFaultsUnderBothEngines) {
  for (const DecodeCase& c : decode_cases()) {
    for (const bool chained : {false, true}) {
      SCOPED_TRACE(c.name + (chained ? " chained" : " cold"));
      Rig interp, blocks;
      for (Rig* rig : {&interp, &blocks}) {
        // 0x1000: addi r0, 1 ; jmp <c.pc>   <c.pc>: the faulting instr
        rig->emit(0x1000, {0x19, 0, 1, 0, 0, 0, 0x20,
                           static_cast<u8>(c.pc), static_cast<u8>(c.pc >> 8),
                           0, 0});
        u32 va = c.pc;
        for (u8 b : c.instr) {
          if (va < 0x8000) rig->emit(va, {b});  // the tail is unmapped
          ++va;
        }
        rig->cpu.regs().sp() = 0x7000;
        rig->cpu.regs().pc = 0x1000;
      }
      if (chained) {  // cache the addi/jmp block first, then re-enter
        ASSERT_FALSE(step_n(interp.cpu, 2).trap.has_value());
        ASSERT_FALSE(blocks.cpu.step_block(2).trap.has_value());
        interp.cpu.regs().pc = blocks.cpu.regs().pc = 0x1000;
      }
      const auto ti = step_n(interp.cpu, 16);
      ASSERT_TRUE(ti.trap.has_value());
      EXPECT_EQ(ti.attempts, 3u);
      expect_same_trap(*ti.trap, c.expected);
      EXPECT_EQ(interp.cpu.regs().pc, c.pc) << "pc stays at the fault";

      const u64 misses = blocks.stats.block_cache_misses;
      const auto tb = blocks.cpu.step_block(16);
      ASSERT_TRUE(tb.trap.has_value());
      EXPECT_EQ(tb.attempts, 3u);
      expect_same_trap(*tb.trap, c.expected);
      expect_same_regs(blocks.cpu.regs(), interp.cpu.regs());
      EXPECT_TRUE(sm::testing::same_billing(interp.stats, blocks.stats));
      EXPECT_EQ(blocks.stats.block_cache_hits, chained ? 1u : 0u);
      EXPECT_EQ(blocks.stats.block_cache_misses,
                misses + (chained ? 1u : 2u));
    }
  }
}

// `callr sp` reads its target after the push, so it jumps to the new sp.
TEST(FaultSemantics, CallrSpJumpsToThePushedSlot) {
  for (const bool block : {false, true}) {
    SCOPED_TRACE(block ? "step_block" : "step");
    Rig rig;
    rig.emit(0x1000, {0x31, 7});  // callr sp
    rig.cpu.regs().pc = 0x1000;
    rig.cpu.regs().sp() = 0x7000;
    const auto t = block ? rig.cpu.step_block(1).trap : rig.cpu.step();
    ASSERT_FALSE(t.has_value());
    EXPECT_EQ(rig.cpu.regs().sp(), 0x6FFCu);
    EXPECT_EQ(rig.cpu.regs().pc, 0x6FFCu);
    EXPECT_EQ(rig.pm.read32(rig.pa(0x6FFC)), 0x1002u);
  }
}

// `pop sp` loads the popped word into sp, overriding the increment.
TEST(FaultSemantics, PopSpLoadsThePoppedWord) {
  for (const bool block : {false, true}) {
    SCOPED_TRACE(block ? "step_block" : "step");
    Rig rig;
    rig.emit(0x1000, {0x34, 7});  // pop sp
    rig.pm.write32(rig.pa(0x6000), 0x4444);
    rig.cpu.regs().pc = 0x1000;
    rig.cpu.regs().sp() = 0x6000;
    const auto t = block ? rig.cpu.step_block(1).trap : rig.cpu.step();
    ASSERT_FALSE(t.has_value());
    EXPECT_EQ(rig.cpu.regs().sp(), 0x4444u);
    EXPECT_EQ(rig.cpu.regs().pc, 0x1002u);
  }
}

}  // namespace
}  // namespace sm::arch
