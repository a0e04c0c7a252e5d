#include "arch/phys_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/guest_runner.h"

namespace sm::arch {
namespace {

TEST(PhysMem, AllocZeroesAndRefcounts) {
  PhysicalMemory pm(8);
  const u32 f = pm.alloc_frame();
  EXPECT_EQ(pm.refcount(f), 1u);
  EXPECT_EQ(pm.frames_in_use(), 1u);
  for (u8 b : pm.frame_bytes(f)) EXPECT_EQ(b, 0);
  pm.ref_frame(f);
  EXPECT_EQ(pm.refcount(f), 2u);
  pm.unref_frame(f);
  EXPECT_EQ(pm.frames_in_use(), 1u);
  pm.unref_frame(f);
  EXPECT_EQ(pm.frames_in_use(), 0u);
}

TEST(PhysMem, ExhaustionThrows) {
  PhysicalMemory pm(2);
  pm.alloc_frame();
  pm.alloc_frame();
  EXPECT_THROW(pm.alloc_frame(), OutOfMemoryError);
}

TEST(PhysMem, FreedFrameIsReusedZeroed) {
  PhysicalMemory pm(1);
  const u32 f = pm.alloc_frame();
  pm.frame_bytes(f)[0] = 0xAA;
  pm.unref_frame(f);
  const u32 g = pm.alloc_frame();
  EXPECT_EQ(g, f);
  EXPECT_EQ(pm.frame_bytes(g)[0], 0);
}

TEST(PhysMem, ReadWrite32LittleEndian) {
  PhysicalMemory pm(1);
  pm.alloc_frame();
  pm.write32(4, 0x11223344);
  EXPECT_EQ(pm.read8(4), 0x44);
  EXPECT_EQ(pm.read8(7), 0x11);
  EXPECT_EQ(pm.read32(4), 0x11223344u);
}

TEST(PhysMem, OutOfRangeAccessThrows) {
  PhysicalMemory pm(1);
  EXPECT_THROW(pm.read8(kPageSize), std::out_of_range);
  EXPECT_THROW(pm.write32(kPageSize - 2, 1), std::out_of_range);
}

TEST(PhysMem, DoubleUnrefThrows) {
  PhysicalMemory pm(2);
  const u32 f = pm.alloc_frame();
  pm.unref_frame(f);
  EXPECT_THROW(pm.unref_frame(f), std::logic_error);
}

// --- allocation order -------------------------------------------------------
// Simulated cycles depend on which frame each allocation gets (TLB sets,
// page-table layout), so the allocator's order is part of the machine.

TEST(PhysMemAllocOrder, FreshMachineHandsOutAscendingFrames) {
  PhysicalMemory pm(16);
  for (u32 i = 0; i < 16; ++i) EXPECT_EQ(pm.alloc_frame(), i);
}

TEST(PhysMemAllocOrder, FreedFramesComeBackLifoBeforeFreshOnes) {
  PhysicalMemory pm(16);
  for (u32 i = 0; i < 6; ++i) pm.alloc_frame();
  pm.unref_frame(1);
  pm.unref_frame(4);
  pm.unref_frame(2);
  EXPECT_EQ(pm.alloc_frame(), 2u);
  EXPECT_EQ(pm.alloc_frame(), 4u);
  pm.unref_frame(5);
  EXPECT_EQ(pm.alloc_frame(), 5u);
  EXPECT_EQ(pm.alloc_frame(), 1u);
  EXPECT_EQ(pm.alloc_frame(), 6u);
  EXPECT_EQ(pm.alloc_frame(), 7u);
}

TEST(PhysMemAllocOrder, ExhaustionComesAtExactlyNumFrames) {
  PhysicalMemory pm(64);
  for (u32 i = 0; i < 64; ++i) ASSERT_NO_THROW(pm.alloc_frame()) << i;
  EXPECT_EQ(pm.frames_free(), 0u);
  EXPECT_THROW(pm.alloc_frame(), OutOfMemoryError);
  pm.unref_frame(17);
  EXPECT_EQ(pm.alloc_frame(), 17u);
  EXPECT_THROW(pm.alloc_frame(), OutOfMemoryError);
}

// A child that dirties two pages and exits, reaped by its parent: once
// the child has exited, its frames sit in the free pool.
const char* kReapBody = R"(
_start:
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  mov r1, r0
  movi r0, SYS_WAITPID
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
child:
  movi r4, buf
  movi r5, 2
  store [r4], r5
  addi r4, 4096
  store [r4], r5
  movi r0, SYS_EXIT
  movi r1, 3
  syscall
.bss
buf: .space 8192
)";

bool child_exited(kernel::Kernel& k) {
  const kernel::Process* c = k.process(2);
  return c != nullptr && c->state == kernel::ProcState::kZombie;
}

std::vector<u32> next_allocations(PhysicalMemory& pm) {
  std::vector<u32> got;
  for (int i = 0; i < 12; ++i) got.push_back(pm.alloc_frame());
  pm.unref_frame(got[3]);
  pm.unref_frame(got[7]);
  for (int i = 0; i < 4; ++i) got.push_back(pm.alloc_frame());
  return got;
}

TEST(PhysMemAllocOrder, SaveRestoreKeepsTheAllocationOrder) {
  kernel::KernelConfig cfg;
  cfg.phys_frames = 1024;
  auto boot = [&] {
    return testing::start_guest(kReapBody, core::ProtectionMode::kSplitAll,
                                core::ResponseMode::kBreak, cfg);
  };
  auto ref = boot();
  // Step until the child has exited and freed its address space.
  for (int i = 0; i < 1000 && !child_exited(*ref.k); ++i) ref.k->run(1);
  ASSERT_TRUE(child_exited(*ref.k));
  std::ostringstream os;
  ref.k->save(os);

  auto restored = boot();
  std::istringstream is(os.str());
  restored.k->restore(is);

  const std::vector<u32> want = next_allocations(ref.k->phys());
  EXPECT_EQ(next_allocations(restored.k->phys()), want);
  // The reaped child's frames come back first, so even the first twelve
  // are not the plain ascending run a watermark alone would give.
  EXPECT_FALSE(std::is_sorted(want.begin(), want.begin() + 12));
}

}  // namespace
}  // namespace sm::arch
