#include "metrics/stats.h"

#include <ostream>

namespace sm::metrics {

std::ostream& operator<<(std::ostream& os, const Stats& s) {
  const char* sep = "";
  for (const Counter& c : kCounters) {
    os << sep << c.name << '=' << s.*c.field;
    sep = " ";
  }
  return os;
}

}  // namespace sm::metrics
