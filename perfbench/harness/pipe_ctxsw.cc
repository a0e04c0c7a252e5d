// pipe_ctxsw: two processes ping-pong a token over two pipes
// (guests/pipe_ctxsw.s). An op is one round trip.
#include <cstring>
#include <memory>
#include <string>

#include "asm/assembler.h"
#include "core/split_engine.h"
#include "counters.h"
#include "fuzz/rng.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "kernel/kernel.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sm::kernel::Kernel;

constexpr std::uint32_t kRoundTrips = 8000;
constexpr std::uint64_t kBudget = 4'000'000'000;
// The run is timed in slices of this many instructions, about 130 a pass.
constexpr std::uint64_t kSliceInstructions = 3'000;

std::uint32_t answer(std::uint32_t token) {
  return token * 1103515245u + 12345u;
}

class PipeCtxsw : public Workload {
 public:
  PipeCtxsw(std::uint64_t seed, const std::string& guest_dir)
      : first_token_(static_cast<std::uint32_t>(sm::fuzz::Rng(seed).next())) {
    source_ = ".equ ITERS, " + std::to_string(kRoundTrips) + "\n.equ SEED, " +
              std::to_string(first_token_) + "\n" +
              read_file(guest_dir + "/pipe_ctxsw.s");
  }

  RoundResult round(Spans& spans, bool traced) override {
    RoundResult r;
    r.ops = kRoundTrips;
    spans.set_phase(Phase::kSetup);
    spans.set_op(0);
    const auto t0 = Clock::now();

    const auto program = spans.time("asm.assemble", [&] {
      return sm::assembler::assemble(sm::guest::program(source_));
    });
    sm::image::BuildOptions opts;
    opts.name = "pingpong";
    auto image = spans.time("image.build",
                            [&] { return sm::image::build_image(program, opts); });
    sm::kernel::KernelConfig kcfg;  // 64 MiB of simulated RAM
    kcfg.cores = 1;
    kcfg.trace = traced;
    auto k = spans.time("kernel.boot", [&] {
      auto kk = std::make_unique<Kernel>(kcfg);
      kk->set_engine(sm::core::make_engine(sm::core::ProtectionMode::kSplitAll));
      return kk;
    });
    const sm::kernel::Pid parent = spans.time("kernel.spawn", [&] {
      k->register_image(std::move(image));
      return k->spawn("pingpong");
    });

    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);
    spans.set_phase(Phase::kTimed);
    const Stats before = k->stats();
    Laps laps(r.slice_s, t1);
    const auto rr = run_sliced(*k, spans, laps, kSliceInstructions, kBudget);
    r.wall_s = r.timed_s = seconds_between(t1, Clock::now());

    r.delta = stats_delta(k->stats(), before);
    r.sim_cycles = k->stats().cycles;
    if (traced) r.trace_cycles = trace_by_category(k->trace_sink()->summary());

    std::uint32_t expect = first_token_;
    for (std::uint32_t i = 0; i < kRoundTrips; ++i) expect = answer(expect);
    const sm::kernel::Process* p = k->process(parent);
    std::uint32_t final_token = 0;
    const bool have_token = p != nullptr && p->console.size() == 4;
    if (have_token) std::memcpy(&final_token, p->console.data(), 4);
    r.outputs = {{"final_token", final_token}};

    bool exited_clean = k->all_exited();
    for (const auto& proc : k->processes()) {
      exited_clean = exited_clean &&
                     proc->exit_kind == sm::kernel::ExitKind::kExited &&
                     proc->exit_code == 0;
    }
    if (rr != Kernel::RunResult::kAllExited || !exited_clean) {
      r.error = "ping-pong did not exit cleanly (a reply was wrong or a "
                "process was killed)";
    } else if (!have_token || final_token != expect) {
      r.error = "final token differs from the host's replay of the exchange";
    }
    if (!r.error.empty()) r.failed_ops = r.ops;
    return r;
  }

 private:
  std::uint32_t first_token_ = 0;
  std::string source_;
};

}  // namespace

std::unique_ptr<Workload> make_pipe_ctxsw(std::uint64_t seed,
                                          const std::string& guest_dir) {
  return std::make_unique<PipeCtxsw>(seed, guest_dir);
}

}  // namespace perfbench
