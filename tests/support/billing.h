// Identity checks across host-side layers (block engine, memos, decode
// cache, tracing, snapshot restore) compare every counter that bills
// simulated cycles: the metrics::kCounters rows not marked host_side.
#pragma once

#include <gtest/gtest.h>

#include "metrics/stats.h"

namespace sm::testing {

inline ::testing::AssertionResult same_billing(const metrics::Stats& a,
                                               const metrics::Stats& b) {
  auto result = ::testing::AssertionSuccess();
  bool same = true;
  for (const metrics::Counter& c : metrics::kCounters) {
    if (c.host_side || a.*c.field == b.*c.field) continue;
    if (same) result = ::testing::AssertionFailure() << "billing differs:";
    same = false;
    result << " " << c.name << " " << a.*c.field << " vs " << b.*c.field;
  }
  return result;
}

}  // namespace sm::testing
