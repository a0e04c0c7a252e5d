// fork_server: seeded fuzz cases served by snapshot restore. The set-up
// generates every case, runs its reference to the end, resets the kernel
// to the case's start, runs a late prefix and saves that. The timed phase
// then serves all cases, pass after pass, from one kernel: each op is an
// in-place restore of a case's snapshot plus the suffix run, checked
// against the case's reference with the fuzz oracle's behaviour and
// billing comparators.
#include <algorithm>
#include <istream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/split_engine.h"
#include "counters.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/rng.h"
#include "kernel/kernel.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sm::kernel::Kernel;

// Cases differ a lot in host cost (the suffix's process exits dominate
// it), so a round serves many of them: the per-round total then varies
// little from seed to seed. Each case costs a 64 MiB boot of set-up,
// which bounds how many a round can prepare.
constexpr std::uint32_t kCases = 48;
// The timed phase serves the prepared cases this many times over, so that
// most of a round is timed rather than set-up: each op's fastest time is
// taken over all passes of all rounds (main.cc, fastest_pass_s).
constexpr std::uint32_t kPasses = 36;
constexpr std::uint32_t kPrefixPercent = 90;
constexpr std::uint64_t kBudget = 20'000'000;

// Reads a snapshot held in memory without copying it per restore.
class BlobBuf : public std::streambuf {
 public:
  explicit BlobBuf(const std::string& blob) {
    char* p = const_cast<char*>(blob.data());
    setg(p, p, p + blob.size());
  }
};

void restore(Spans& spans, Kernel& k, const std::string& snapshot) {
  spans.time("snapshot.restore", [&] {
    BlobBuf buf(snapshot);
    std::istream is(&buf);
    k.restore(is);
  });
}

struct PreparedCase {
  sm::fuzz::RunObservation ref;
  std::uint64_t prefix = 0;
  std::string snapshot;
};

class ForkServer : public Workload {
 public:
  explicit ForkServer(std::uint64_t seed) : seed_(seed) {
    gen_.allow_lethal = false;  // every case must run to a clean exit
    // A fixed action count keeps each round's simulated work steadier from
    // seed to seed than the generator's default range of 8-24.
    gen_.min_actions = gen_.max_actions = 16;
    cfg_.label = "split-all";
    cfg_.mode = sm::core::ProtectionMode::kSplitAll;
    // phys_frames stays 0: default-size (64 MiB) machines, as the fuzz
    // driver's fork server runs them. Restore work grows with the frame
    // count (the free list is serialized, every refcount is refilled).
  }

  RoundResult round(Spans& spans, bool traced) override {
    RoundResult r;
    sm::fuzz::OracleConfig cfg = cfg_;
    cfg.trace = traced;

    spans.set_phase(Phase::kSetup);
    spans.set_op(0);
    const auto t0 = Clock::now();
    std::vector<PreparedCase> cases(kCases);
    std::unique_ptr<Kernel> k;  // the last case's kernel serves every case
    const auto save = [&] {
      return spans.time("snapshot.save", [&] {
        std::ostringstream os;
        k->save(os);
        return os.str();  // exact-size copy: the stream over-allocates
      });
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
      PreparedCase& pc = cases[i];
      const sm::fuzz::FuzzCase c = spans.time(
          "fuzz.generate", [&] { return sm::fuzz::generate(sm::fuzz::case_seed(seed_, i), gen_); });
      // One boot per case: the reference runs the fresh kernel to the end,
      // then the kernel is reset to its start to run the prefix. A boot
      // (64 MiB of simulated RAM) costs a hundred times a restore.
      k = spans.time("fuzz.make_case_kernel", [&] { return sm::fuzz::make_case_kernel(c, cfg); });
      const std::string start = save();
      const auto rr = spans.time("kernel.run", [&] { return k->run(kBudget); });
      pc.ref = spans.time("fuzz.observe", [&] { return sm::fuzz::observe(*k, rr); });
      pc.prefix = pc.ref.instructions * kPrefixPercent / 100;
      restore(spans, *k, start);
      if (pc.prefix > 0) spans.time("kernel.run", [&] { k->run(pc.prefix); });
      pc.snapshot = save();
      r.snapshot_bytes += pc.snapshot.size();
      r.sim_cycles += pc.ref.stats.cycles;
    }
    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);

    spans.set_phase(Phase::kTimed);
    std::uint64_t ok_ops = 0, ref_instructions = 0, op = 0;
    for (const PreparedCase& pc : cases) ref_instructions += pc.ref.instructions;
    r.ops = kCases;
    r.passes = kPasses;
    r.slice_s.assign(kCases, 0.0);
    for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
      Stats pass_delta;
      const auto tp = Clock::now();
      for (std::size_t ci = 0; ci < cases.size(); ++ci, ++op) {
        const PreparedCase& pc = cases[ci];
        spans.set_op(op);
        const auto tr = Clock::now();
        restore(spans, *k, pc.snapshot);
        r.restore_s.push_back(seconds_between(tr, Clock::now()));
        r.restored_bytes += pc.snapshot.size();
        const Stats restored = k->stats();
        const auto rr = spans.time("kernel.run", [&] { return k->run(kBudget - pc.prefix); });
        const auto got = spans.time("fuzz.observe", [&] { return sm::fuzz::observe(*k, rr); });
        std::string d = spans.time("fuzz.diff", [&] {
          std::string diff = sm::fuzz::diff_behavior(pc.ref, "reference", got, "restored");
          if (diff.empty()) diff = sm::fuzz::diff_billing(pc.ref, "reference", got, "restored");
          return diff;
        });
        if (pc.ref.result != Kernel::RunResult::kAllExited) {
          d = "reference run did not exit within the budget";
        }
        const double op_s = seconds_between(tr, Clock::now());
        r.slice_s[ci] = pass == 0 ? op_s : std::min(r.slice_s[ci], op_s);
        stats_add(pass_delta, stats_delta(k->stats(), restored));
        if (d.empty()) {
          ++ok_ops;
        } else {
          ++r.failed_ops;
          if (r.error.empty()) r.error = "case " + std::to_string(ci) + ": " + d;
        }
        // The restored kernel carries the profile of the whole program.
        if (traced && pass == 0) {
          for (const auto& [cat, cyc] : trace_by_category(k->trace_sink()->summary())) {
            r.trace_cycles[cat] += cyc;
          }
        }
      }
      const double pass_s = seconds_between(tp, Clock::now());
      r.timed_s += pass_s;
      r.wall_s = pass == 0 ? pass_s : std::min(r.wall_s, pass_s);
      if (pass == 0) {
        r.delta = pass_delta;
      } else if (!same_billing(pass_delta, r.delta) && r.error.empty()) {
        r.error = "pass " + std::to_string(pass) + " billed differently from pass 0";
        r.failed_ops += kCases;
      }
    }
    r.outputs = {{"cases", kCases},
                 {"verdicts_ok", ok_ops},
                 {"reference_instructions", ref_instructions}};
    return r;
  }

 private:
  std::uint64_t seed_;
  sm::fuzz::GenOptions gen_;
  sm::fuzz::OracleConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_fork_server(std::uint64_t seed) {
  return std::make_unique<ForkServer>(seed);
}

}  // namespace perfbench
