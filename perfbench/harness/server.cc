// server: the closed-loop, event-driven master and forked worker pool of
// guests/server.s, fed a seeded stream of request ids over a Channel. An
// op is one request.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "core/split_engine.h"
#include "counters.h"
#include "fuzz/rng.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "kernel/kernel.h"
#include "metrics/latency_histogram.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sm::kernel::Kernel;

constexpr std::uint32_t kWorkers = 256;
constexpr std::uint32_t kWindow = 256;
constexpr std::uint32_t kWorkBase = 64;
constexpr std::uint32_t kRequests = 5000;
constexpr std::uint32_t kPhysFrames = 32768;  // 128 MiB of simulated RAM
constexpr std::uint64_t kBudget = 4'000'000'000;
// Runs are timed in slices of this many instructions, about 400 a pass.
constexpr std::uint64_t kSliceInstructions = 50'000;

class Server : public Workload {
 public:
  Server(std::uint64_t seed, const std::string& guest_dir)
      : seed_(seed),
        source_(".equ WORKERS, " + std::to_string(kWorkers) +
                "\n.equ WINDOW, " + std::to_string(kWindow) +
                "\n.equ WORKBASE, " + std::to_string(kWorkBase) + "\n" +
                read_file(guest_dir + "/server.s")) {}

  RoundResult round(Spans& spans, bool traced) override {
    RoundResult r;
    r.ops = kRequests;
    spans.set_phase(Phase::kSetup);
    spans.set_op(0);
    const auto t0 = Clock::now();

    const auto program = spans.time("asm.assemble", [&] {
      return sm::assembler::assemble(sm::guest::program(source_));
    });
    sm::image::BuildOptions opts;
    opts.name = "server";
    auto image = spans.time("image.build",
                            [&] { return sm::image::build_image(program, opts); });
    sm::kernel::KernelConfig kcfg;
    kcfg.phys_frames = kPhysFrames;
    kcfg.cores = 1;
    kcfg.trace = traced;
    auto k = spans.time("kernel.boot", [&] {
      auto kk = std::make_unique<Kernel>(kcfg);
      kk->set_engine(sm::core::make_engine(sm::core::ProtectionMode::kSplitAll));
      return kk;
    });
    const sm::kernel::Pid master = spans.time("kernel.spawn", [&] {
      k->register_image(std::move(image));
      return k->spawn("server");
    });
    const auto chan =
        spans.time("kernel.attach_channel", [&] { return k->attach_channel(master); });

    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);
    spans.set_phase(Phase::kTimed);
    const Stats before = k->stats();

    // The seeded request stream; the host checks the ids that come back
    // against the ids it issued (count, sum and xor).
    sm::fuzz::Rng prng(seed_);
    std::uint64_t issued_sum = 0, issued_xor = 0;
    std::uint64_t got_sum = 0, got_xor = 0, completed = 0;
    std::uint32_t issued = 0;
    sm::metrics::LatencyHistogram latency;
    bool wedged = false;
    const auto drain = [&] {
      const std::vector<std::uint8_t> bytes =
          spans.time("channel.host_read_all", [&] { return chan->host_read_all(); });
      for (std::size_t i = 0; i + 8 <= bytes.size(); i += 8) {
        const auto word = [&](std::size_t at) {
          return static_cast<std::uint32_t>(bytes[at]) |
                 static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
                 static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
                 static_cast<std::uint32_t>(bytes[at + 3]) << 24;
        };
        const std::uint32_t id = word(i);
        got_sum += id;
        got_xor ^= id;
        latency.record(word(i + 4));
        ++completed;
      }
      return bytes.size() / 8;
    };

    std::uint32_t stuck_rounds = 0;
    Laps laps(r.slice_s, t1);
    while (completed < kRequests) {
      const std::uint32_t in_flight = issued - static_cast<std::uint32_t>(completed);
      const std::uint32_t credit = std::min(kWindow - in_flight, kRequests - issued);
      if (credit > 0) {
        std::vector<std::uint8_t> batch;
        batch.reserve(credit * 4u);
        for (std::uint32_t i = 0; i < credit; ++i) {
          const auto id = static_cast<std::uint32_t>(prng.next());
          issued_sum += id;
          issued_xor ^= id;
          for (int b = 0; b < 4; ++b) batch.push_back(static_cast<std::uint8_t>(id >> (8 * b)));
        }
        spans.set_op(issued);
        spans.time("channel.host_write", [&] { chan->host_write(batch); });
        issued += credit;
      }
      const auto rr = run_sliced(*k, spans, laps, kSliceInstructions, kBudget);
      const std::size_t got = drain();
      laps.lap();
      if (rr == Kernel::RunResult::kAllExited) break;
      // Blocked with nothing completed and nothing left to issue: a wedge.
      if (got == 0 && credit == 0) {
        if (++stuck_rounds >= 3) {
          wedged = true;
          break;
        }
      } else {
        stuck_rounds = 0;
      }
    }
    spans.time("channel.host_close", [&] { chan->host_close(); });
    run_sliced(*k, spans, laps, kSliceInstructions, kBudget);
    drain();
    laps.lap();
    r.wall_s = r.timed_s = seconds_between(t1, Clock::now());

    r.delta = stats_delta(k->stats(), before);
    r.sim_cycles = k->stats().cycles;
    if (traced) r.trace_cycles = trace_by_category(k->trace_sink()->summary());
    r.outputs = {
        {"completed", completed},
        {"latency_p50", latency.percentile(50)},
        {"latency_p90", latency.percentile(90)},
        {"latency_p99", latency.percentile(99)},
        {"latency_p999", latency.percentile(99.9)},
        {"latency_max", latency.max()},
    };

    bool exited_clean = k->all_exited();
    for (const auto& p : k->processes()) {
      exited_clean = exited_clean && p->exit_kind == sm::kernel::ExitKind::kExited &&
                     p->exit_code == 0;
    }
    if (wedged) {
      r.error = "server wedged after " + std::to_string(completed) + " requests";
    } else if (completed != kRequests) {
      r.error = "completed " + std::to_string(completed) + " of " +
                std::to_string(kRequests) + " requests";
    } else if (got_sum != issued_sum || got_xor != issued_xor) {
      r.error = "response ids differ from the issued request ids";
    } else if (!exited_clean) {
      r.error = "not every process exited with code 0";
    }
    if (!r.error.empty()) r.failed_ops = r.ops;
    return r;
  }

 private:
  std::uint64_t seed_;
  std::string source_;
};

}  // namespace

std::unique_ptr<Workload> make_server(std::uint64_t seed,
                                      const std::string& guest_dir) {
  return std::make_unique<Server>(seed, guest_dir);
}

}  // namespace perfbench
