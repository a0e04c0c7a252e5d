// Exhaustive ISA semantics coverage: every opcode executed end-to-end
// through the assembler + kernel (so encoding, decoding and execution are
// all exercised together), each with a value-revealing assertion.
#include <gtest/gtest.h>

#include "arch/isa.h"
#include "fuzz/generator.h"
#include "support/guest_runner.h"

namespace sm {
namespace {

using arch::u32;
using core::ProtectionMode;

// Runs `body` (which must end by exiting with the value under test in r1)
// and returns the exit code.
u32 run_to_exit(const std::string& body) {
  auto r = testing::run_guest(body, ProtectionMode::kNone);
  EXPECT_EQ(r.proc().exit_kind, kernel::ExitKind::kExited)
      << "program did not exit cleanly";
  return r.proc().exit_code;
}

u32 alu_case(const std::string& op, u32 a, u32 b) {
  return run_to_exit("_start:\n  movi r1, " + std::to_string(a) +
                     "\n  movi r2, " + std::to_string(b) + "\n  " + op +
                     " r1, r2\n  movi r0, SYS_EXIT\n  syscall\n");
}

TEST(IsaCoverage, Add) { EXPECT_EQ(alu_case("add", 7, 9), 16u); }
TEST(IsaCoverage, AddWraps) {
  EXPECT_EQ(alu_case("add", 0xFFFFFFFF, 2), 1u);
}
TEST(IsaCoverage, Sub) { EXPECT_EQ(alu_case("sub", 9, 7), 2u); }
TEST(IsaCoverage, SubUnderflowWraps) {
  EXPECT_EQ(alu_case("sub", 3, 5), 0xFFFFFFFEu);
}
TEST(IsaCoverage, Mul) { EXPECT_EQ(alu_case("mul", 1000, 1000), 1000000u); }
TEST(IsaCoverage, DivUnsigned) {
  EXPECT_EQ(alu_case("div", 0xFFFFFFFE, 2), 0x7FFFFFFFu);
}
TEST(IsaCoverage, Modu) { EXPECT_EQ(alu_case("modu", 103, 10), 3u); }
TEST(IsaCoverage, And) { EXPECT_EQ(alu_case("and", 0xF0F0, 0x0FF0), 0x00F0u); }
TEST(IsaCoverage, Or) { EXPECT_EQ(alu_case("or", 0xF000, 0x000F), 0xF00Fu); }
TEST(IsaCoverage, Xor) { EXPECT_EQ(alu_case("xor", 0xFF00, 0x0FF0), 0xF0F0u); }
TEST(IsaCoverage, Shl) { EXPECT_EQ(alu_case("shl", 1, 12), 4096u); }
TEST(IsaCoverage, ShlMasksCountLikeX86) {
  EXPECT_EQ(alu_case("shl", 1, 33), 2u);  // count & 31
}
TEST(IsaCoverage, Shr) { EXPECT_EQ(alu_case("shr", 0x80000000, 31), 1u); }

TEST(IsaCoverage, NotInstruction) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r1, 0x0F0F0F0F
  not r1
  movi r0, SYS_EXIT
  syscall
)"),
            0xF0F0F0F0u);
}

TEST(IsaCoverage, MoviMov) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r3, 1234
  mov r1, r3
  movi r0, SYS_EXIT
  syscall
)"),
            1234u);
}

TEST(IsaCoverage, AddiNegative) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r1, 10
  addi r1, -3
  movi r0, SYS_EXIT
  syscall
)"),
            7u);
}

TEST(IsaCoverage, LoadStoreWord) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r4, cell
  movi r2, 0xCAFEBABE
  store [r4], r2
  load r1, [r4]
  movi r0, SYS_EXIT
  syscall
.bss
cell: .space 8
)"),
            0xCAFEBABEu);
}

TEST(IsaCoverage, LoadbZeroExtends) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r4, cell
  movi r2, 0x1FF
  storeb [r4], r2          ; stores 0xFF
  loadb r1, [r4]
  movi r0, SYS_EXIT
  syscall
.bss
cell: .space 4
)"),
            0xFFu);
}

TEST(IsaCoverage, NegativeDisplacement) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r4, cell+8
  movi r2, 55
  store [r4-8], r2
  load r1, [r4-8]
  movi r0, SYS_EXIT
  syscall
.bss
cell: .space 16
)"),
            55u);
}

// Branches: each taken AND not-taken direction.
u32 branch_case(const std::string& br, u32 a, u32 b) {
  return run_to_exit("_start:\n  movi r1, " + std::to_string(a) +
                     "\n  movi r2, " + std::to_string(b) +
                     "\n  cmp r1, r2\n  " + br +
                     " taken\n  movi r1, 0\n  jmp done\ntaken:\n  movi r1, "
                     "1\ndone:\n  movi r0, SYS_EXIT\n  syscall\n");
}

TEST(IsaCoverage, Jz) {
  EXPECT_EQ(branch_case("jz", 5, 5), 1u);
  EXPECT_EQ(branch_case("jz", 5, 6), 0u);
}
TEST(IsaCoverage, Jnz) {
  EXPECT_EQ(branch_case("jnz", 5, 6), 1u);
  EXPECT_EQ(branch_case("jnz", 5, 5), 0u);
}
TEST(IsaCoverage, JltSigned) {
  EXPECT_EQ(branch_case("jlt", 0xFFFFFFFF, 1), 1u);  // -1 < 1 signed
  EXPECT_EQ(branch_case("jlt", 1, 0xFFFFFFFF), 0u);
}
TEST(IsaCoverage, JgeSigned) {
  EXPECT_EQ(branch_case("jge", 1, 0xFFFFFFFF), 1u);
  EXPECT_EQ(branch_case("jge", 0xFFFFFFFF, 1), 0u);
}
TEST(IsaCoverage, JbUnsigned) {
  EXPECT_EQ(branch_case("jb", 1, 0xFFFFFFFF), 1u);  // 1 < huge unsigned
  EXPECT_EQ(branch_case("jb", 0xFFFFFFFF, 1), 0u);
}
TEST(IsaCoverage, JaeUnsigned) {
  EXPECT_EQ(branch_case("jae", 0xFFFFFFFF, 1), 1u);
  EXPECT_EQ(branch_case("jae", 1, 2), 0u);
}

TEST(IsaCoverage, JmpAndJmpr) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r1, 1
  jmp over
  movi r1, 99
over:
  movi r5, finish
  jmpr r5
  movi r1, 98
finish:
  movi r0, SYS_EXIT
  syscall
)"),
            1u);
}

TEST(IsaCoverage, CallRetCallr) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  call f1
  movi r5, f2
  callr r5
  movi r0, SYS_EXIT
  syscall
f1:
  movi r1, 20
  ret
f2:
  addi r1, 22
  ret
)"),
            42u);
}

TEST(IsaCoverage, PushPopLifoOrder) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r2, 1
  movi r3, 2
  push r2
  push r3
  pop r1                   ; 2
  pop r4                   ; 1
  movi r5, 10
  mul r1, r5
  add r1, r4               ; 21
  movi r0, SYS_EXIT
  syscall
)"),
            21u);
}

TEST(IsaCoverage, NopDoesNothing) {
  EXPECT_EQ(run_to_exit(R"(
_start:
  movi r1, 3
  nop
  nop
  nop
  movi r0, SYS_EXIT
  syscall
)"),
            3u);
}

TEST(IsaCoverage, InstrLengthTableMatchesDecoder) {
  // The 35 table rows are the only defined opcodes, each with its form's
  // length; the other 221 bytes are #UD (the CPU side is
  // CpuTest.InvalidOpcodeFaultsWithoutAdvancing and IsaRoundTrip.*).
  int defined_count = 0;
  for (int op = 0; op < 256; ++op) {
    const auto byte = static_cast<arch::u8>(op);
    const arch::OpInfo* row = arch::op_info(byte);
    const arch::u32 expected =
        row != nullptr ? arch::form_length(row->form) : 0;
    EXPECT_EQ(arch::instr_length(byte), expected)
        << "opcode 0x" << std::hex << op;
    if (row == nullptr) continue;
    EXPECT_EQ(static_cast<int>(row->op), op);
    EXPECT_GT(expected, 0u);
    ++defined_count;
  }
  EXPECT_EQ(defined_count, 35);
  EXPECT_EQ(std::size(arch::kOpTable), 35u);
}

TEST(IsaCoverage, FuzzGeneratorWeightTableCoversEveryOpcode) {
  // The differential fuzzer's opcode bias table must name every opcode the
  // ISA defines with a positive weight — otherwise new instructions get
  // zero fuzz coverage silently.
  const auto& weights = sm::fuzz::opcode_weights();
  for (const arch::OpInfo& row : arch::kOpTable) {
    const auto it = weights.find(row.op);
    EXPECT_TRUE(it != weights.end() && it->second > 0)
        << row.name << " missing from fuzz::opcode_weights() (src/fuzz/"
        << "generator.cc)";
  }
  EXPECT_EQ(weights.size(), std::size(arch::kOpTable));
}

TEST(IsaCoverage, DivByZeroKillsViaModuToo) {
  auto r = testing::run_guest(R"(
_start:
  movi r1, 5
  movi r2, 0
  modu r1, r2
  movi r0, SYS_EXIT
  syscall
)",
                              ProtectionMode::kNone);
  EXPECT_EQ(r.proc().exit_kind, kernel::ExitKind::kKilledSigill);
}

}  // namespace
}  // namespace sm
