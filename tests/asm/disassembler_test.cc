#include "asm/disassembler.h"

#include <gtest/gtest.h>

namespace sm::assembler {
namespace {

TEST(Disassembler, InvalidBytesMarkedBad) {
  const std::vector<arch::u8> bytes = {0x00, 0xFF, 0x90};
  const auto lines = disassemble(bytes, 0x1000);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "(bad)");
  EXPECT_EQ(lines[1].text, "(bad)");
  EXPECT_EQ(lines[2].text, "nop");
}

TEST(Disassembler, TruncatedInstructionIsBad) {
  const std::vector<arch::u8> bytes = {0x01, 0x00};  // movi missing imm
  const auto lines = disassemble(bytes, 0);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "(bad)");
}

TEST(Disassembler, MaxInstrsLimits) {
  const std::vector<arch::u8> bytes(64, 0x90);
  EXPECT_EQ(disassemble(bytes, 0, 5).size(), 5u);
}

TEST(Disassembler, FormatLooksLikeObjdump) {
  const std::vector<arch::u8> bytes = {0x90};
  const std::string out = format(disassemble(bytes, 0x8048000));
  EXPECT_NE(out.find("08048000:"), std::string::npos);
  EXPECT_NE(out.find("90"), std::string::npos);
  EXPECT_NE(out.find("nop"), std::string::npos);
}

}  // namespace
}  // namespace sm::assembler
