#include <fstream>
#include <sstream>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::map<std::string, std::uint64_t> trace_by_category(
    const sm::trace::ProfileSummary& s) {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(sm::trace::Category::kCount); ++i) {
    const auto c = static_cast<sm::trace::Category>(i);
    out[sm::trace::category_name(c)] = s.category_cycles(c);
  }
  return out;
}

sm::kernel::Kernel::RunResult run_sliced(sm::kernel::Kernel& k, Spans& spans,
                                         Laps& laps, std::uint64_t slice,
                                         std::uint64_t budget) {
  auto rr = sm::kernel::Kernel::RunResult::kBudgetExhausted;
  for (std::uint64_t ran = 0;
       rr == sm::kernel::Kernel::RunResult::kBudgetExhausted && ran < budget;
       ran += slice) {
    rr = spans.time("kernel.run", [&] { return k.run(slice); });
    laps.lap();
  }
  return rr;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& guest_dir) {
  if (name == "server") return make_server(seed, guest_dir);
  if (name == "pipe_ctxsw") return make_pipe_ctxsw(seed, guest_dir);
  if (name == "fork_server") return make_fork_server(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
