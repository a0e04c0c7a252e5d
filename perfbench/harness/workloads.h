// The benchmark's workloads. Each one is a sequence of identical rounds:
// a set-up (assemble, build images, boot, spawn, and for fork_server the
// fuzz-case preparation) followed by a timed phase of a fixed number of
// ops. Every round of one run uses the same seeded inputs, so its
// simulated outputs are exact and repeat round after round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "metrics/stats.h"
#include "spans.h"
#include "trace/profiler.h"

namespace perfbench {

struct RoundResult {
  double setup_s = 0;  // host seconds of the set-up
  // The timed phase is `passes` passes over the same `ops` ops (one pass
  // except for fork_server). `wall_s` is the fastest pass, `timed_s` all.
  double wall_s = 0;
  double timed_s = 0;
  // Host seconds of the timed pass cut into the same slices of work in
  // every round (run slices and the host work between them, or ops); with
  // several passes, each slice's fastest time over them.
  std::vector<double> slice_s;
  std::uint64_t ops = 0;  // per pass
  std::uint64_t passes = 1;
  std::uint64_t failed_ops = 0;  // over all passes
  std::string error;  // first failure, empty when every check passed

  // Simulated outputs. `delta` is the exact Stats difference across one
  // pass (summed over ops for fork_server); `sim_cycles` is the
  // simulated-cycle total the workload stands for; `outputs` holds the
  // workload's own simulated results (latency percentiles, verdicts).
  sm::metrics::Stats delta;
  std::uint64_t sim_cycles = 0;
  std::map<std::string, std::uint64_t> outputs;

  // Cycle-attribution profile by category, summed like sim_cycles.
  // Filled only in traced rounds.
  std::map<std::string, std::uint64_t> trace_cycles;

  // fork_server only: snapshot bytes saved (one snapshot per case) and
  // restored (one per op), and the host time of each restore.
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t restored_bytes = 0;
  std::vector<double> restore_s;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One round. `traced` turns on the simulator's cycle profiler; spans are
  // recorded when `spans.on()`.
  virtual RoundResult round(Spans& spans, bool traced) = 0;
};

// Throws std::invalid_argument for an unknown name. `guest_dir` holds the
// guest programs (.s files) the workloads assemble.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& guest_dir);

// The three workloads' factories (one source file each).
std::unique_ptr<Workload> make_server(std::uint64_t seed,
                                      const std::string& guest_dir);
std::unique_ptr<Workload> make_pipe_ctxsw(std::uint64_t seed,
                                          const std::string& guest_dir);
std::unique_ptr<Workload> make_fork_server(std::uint64_t seed);

// Cuts a timed pass into slices: lap() closes the slice that began at the
// previous lap (the first at `start`) and appends its host seconds.
class Laps {
 public:
  Laps(std::vector<double>& out, Clock::time_point start) : out_(out), mark_(start) {}
  void lap() {
    const auto now = Clock::now();
    out_.push_back(seconds_between(mark_, now));
    mark_ = now;
  }

 private:
  std::vector<double>& out_;
  Clock::time_point mark_;
};

// Shared helpers.

// Runs k until it stops for another reason than a slice's instruction
// budget, or `budget` instructions have run, one lap per `slice`
// instructions. Resuming run() continues the same simulation, so the
// simulated outputs equal one run(budget) call's (the reference gate
// checks this for every workload).
sm::kernel::Kernel::RunResult run_sliced(sm::kernel::Kernel& k, Spans& spans,
                                         Laps& laps, std::uint64_t slice,
                                         std::uint64_t budget);

std::string read_file(const std::string& path);
std::map<std::string, std::uint64_t> trace_by_category(
    const sm::trace::ProfileSummary& s);

}  // namespace perfbench
