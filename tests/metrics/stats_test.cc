// Metrics: counter formatting and cost-model defaults.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "metrics/cost_model.h"
#include "metrics/stats.h"

namespace sm::metrics {
namespace {

TEST(Stats, StreamFormatNamesEveryHeadlineCounter) {
  Stats s;
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    s.*kCounters[i].field = 100 + i;
  }
  std::ostringstream os;
  os << s;
  std::string out = " ";
  out += os.str();
  out += " ";
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    const std::string field = std::string(" ") + kCounters[i].name + "=" +
                              std::to_string(100 + i) + " ";
    EXPECT_NE(out.find(field), std::string::npos) << kCounters[i].name;
  }
}

// kCounters row i is the i-th Stats member: with the size static_assert in
// stats.h this makes the table complete, duplicate-free and in the order
// the snapshot record serializes.
TEST(Stats, CounterTableFollowsDeclarationOrder) {
  Stats s;
  const auto* base = reinterpret_cast<const std::uint64_t*>(&s);
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    EXPECT_EQ(&(s.*kCounters[i].field), base + i) << kCounters[i].name;
  }
  EXPECT_STREQ(kCounters[0].name, "cycles");
}

TEST(Stats, ResetClearsEverything) {
  Stats s;
  s.cycles = 5;
  s.context_switches = 9;
  s.soft_tlb_fills = 4;
  s.reset();
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.context_switches, 0u);
  EXPECT_EQ(s.soft_tlb_fills, 0u);
}

TEST(CostModel, DefaultsEncodeThePaperCostStructure) {
  const CostModel& m = default_cost_model();
  // A trap costs far more than a hardware walk; the split I-TLB load pays
  // TWO traps (fault + debug), the D-load one trap + touch (SS4.6).
  EXPECT_GT(m.trap_cost, 10 * m.tlb_walk);
  EXPECT_GT(m.context_switch, m.trap_cost);
  EXPECT_LT(m.kernel_touch, m.trap_cost);
  // The SPARC-style fill is a cheap trap (SS4.7).
  EXPECT_LT(m.soft_tlb_fill, m.trap_cost / 10);
  // The abandoned ret-call method's cache flush exceeds the debug trap it
  // saves (SS4.2.4 side note).
  EXPECT_GT(m.icache_sync, m.trap_cost);
}

}  // namespace
}  // namespace sm::metrics
