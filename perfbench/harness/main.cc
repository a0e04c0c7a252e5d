// The benchmark harness: runs one workload's rounds for a fixed host time
// on this thread, checks every round's simulated outputs, and prints one
// JSON object with the end-to-end and per-layer figures.
//
//   perfbench_harness --workload server|pipe_ctxsw|fork_server --seed N
//                     --seconds S --trace 0|1 --guest-dir DIR
//                     [--spans-out FILE]
//
// Untraced rounds give the end-to-end figures and the exact Stats deltas.
// With --trace 1 the second half of the time runs traced rounds: spans
// around every public simulator call plus the simulator's cycle profiler.
// perfbench/run.py builds this program and turns its output into the
// benchmark's report.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "counters.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// The seed of the recorded references (perfbench/references/).
constexpr std::uint64_t kReferenceSeed = 1;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMinTracedRounds = 2;
// A timed phase whose top-level spans leave more than this share of its
// host time uncovered is flagged: per-layer claims would rest on a hole.
constexpr double kCoverageFlag = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string guest_dir = "perfbench/guests";
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--guest-dir") {
      a.guest_dir = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100 * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The timed pass at its fastest: the sum over its slices of each slice's
// fastest time in any of `rounds`. The rounds repeat the same simulated
// work slice by slice, so a slice that ran slower in one round than in
// another was slowed by the rest of the host. On a shared host that
// interference comes and goes; slices of a millisecond or so let each one
// be timed in a quiet moment somewhere in the run, even when no whole pass
// fits in one. 0 when the rounds cut the pass differently.
double fastest_pass_s(const std::vector<RoundResult>& rounds) {
  std::vector<double> fastest = rounds.front().slice_s;
  for (const RoundResult& r : rounds) {
    if (r.slice_s.size() != fastest.size()) return 0;
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], r.slice_s[i]);
    }
  }
  double sum = 0;
  for (const double s : fastest) sum += s;
  return sum;
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

template <class Map>
std::string object(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(k) + ": " + num(static_cast<double>(v));
  }
  return out + "}";
}

// The simulated outputs a round must reproduce exactly: every counter that
// bills cycles, the simulated-cycle total and the workload's own results.
std::map<std::string, std::uint64_t> gated_outputs(const RoundResult& r) {
  std::map<std::string, std::uint64_t> out;
  for (const Counter& c : kCounters) {
    if (!c.host_side) out[std::string("stats.") + c.name] = r.delta.*c.field;
  }
  out["sim_cycles"] = r.sim_cycles;
  for (const auto& [k, v] : r.outputs) out["out." + k] = v;
  return out;
}

struct RoundSpans {
  std::size_t first = 0, last = 0;  // [first, last) in Spans::spans()
};

// Host time by span name in one traced round: total and self time (the
// part no child span covers), keyed "<phase>/<name>".
struct SpanTotals {
  double total_s = 0;
  double self_s = 0;
  std::uint64_t calls = 0;
};

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans,
                                              RoundSpans range) {
  std::vector<double> child_s(range.last - range.first, 0.0);
  for (std::size_t i = range.first; i < range.last; ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= range.first) {
      child_s[s.parent - range.first] += (s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = range.first; i < range.last; ++i) {
    const Span& s = spans[i];
    const double d = (s.end_ns - s.start_ns) * 1e-9;
    SpanTotals& t = out[std::string(s.phase == Phase::kTimed ? "timed/" : "setup/") + s.name];
    t.total_s += d;
    t.self_s += d - child_s[i - range.first];
    ++t.calls;
  }
  return out;
}

double top_level_timed_s(const std::vector<Span>& spans, RoundSpans range) {
  double s = 0;
  for (std::size_t i = range.first; i < range.last; ++i) {
    if (spans[i].parent < 0 && spans[i].phase == Phase::kTimed) {
      s += (spans[i].end_ns - spans[i].start_ns) * 1e-9;
    }
  }
  return s;
}

void write_spans(const std::string& path, const Args& a, const Spans& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
      << ", \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\", "
         "\"phase\"],\n\"spans\": [\n";
  const auto& v = spans.spans();
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Span& s = v[i];
    out << "[" << quoted(s.name) << ", " << s.start_ns << ", " << s.end_ns << ", "
        << s.parent << ", " << s.op << ", "
        << quoted(s.phase == Phase::kTimed ? "timed" : "setup") << "]"
        << (i + 1 < v.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

int run(const Args& a) {
  const auto workload = make_workload(a.workload, a.seed, a.guest_dir);
  Spans quiet(false);
  Spans traced_spans(true);

  std::vector<RoundResult> untraced, traced;
  std::vector<RoundSpans> traced_ranges;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  bool deterministic = true, trace_identical = true, trace_sums = true;

  const auto note = [&](const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  };
  // Every measured round must reproduce the first one's simulated outputs;
  // a traced round that does not clears `trace_identical` instead.
  std::map<std::string, std::uint64_t> expected;
  const auto account = [&](RoundResult& r, const std::string& label, bool& same) {
    const auto got = gated_outputs(r);
    if (expected.empty()) expected = got;
    if (got != expected) {
      same = false;
      r.failed_ops = r.ops;
      note(label + ": simulated outputs differ from the first round");
    }
    if (!r.error.empty()) note(label + ": " + r.error);
    attempted += r.ops * r.passes;
    failed += r.failed_ops;
  };

  const auto start = Clock::now();
  const double untraced_budget = a.trace ? a.seconds / 2 : a.seconds;
  // The warm-up round fills host caches and runs at the reference seed,
  // whatever --seed is, so every run is checked against the recorded
  // references. Its ops count as attempted; its times are not used.
  std::map<std::string, std::uint64_t> reference_outputs;
  {
    RoundResult warm =
        make_workload(a.workload, kReferenceSeed, a.guest_dir)->round(quiet, false);
    if (!warm.error.empty()) note("warm-up round: " + warm.error);
    attempted += warm.ops * warm.passes;
    failed += warm.failed_ops;
    reference_outputs = gated_outputs(warm);
  }
  const auto untraced_start = Clock::now();
  while (untraced.size() < kMinRounds ||
         seconds_between(untraced_start, Clock::now()) < untraced_budget) {
    untraced.push_back(workload->round(quiet, false));
    account(untraced.back(), "untraced round " + std::to_string(untraced.size()), deterministic);
  }
  if (a.trace) {
    const auto traced_start = Clock::now();
    while (traced.size() < kMinTracedRounds ||
           seconds_between(traced_start, Clock::now()) < a.seconds / 2) {
      RoundSpans range{traced_spans.spans().size(), 0};
      traced.push_back(workload->round(traced_spans, true));
      range.last = traced_spans.spans().size();
      traced_ranges.push_back(range);
      RoundResult& r = traced.back();
      account(r, "traced round " + std::to_string(traced.size()), trace_identical);
      std::uint64_t sum = 0;
      for (const auto& kv : r.trace_cycles) sum += kv.second;
      if (sum != r.sim_cycles) {
        trace_sums = false;
        note("traced round " + std::to_string(traced.size()) + ": profiler categories sum to " +
             std::to_string(sum) + ", sim_cycles is " + std::to_string(r.sim_cycles));
      }
    }
  }
  const double elapsed = seconds_between(start, Clock::now());

  // --- end-to-end (untraced rounds) ---------------------------------------
  const RoundResult& first = untraced.front();
  std::vector<double> walls, setups;
  for (const auto& r : untraced) {
    walls.push_back(r.wall_s);
    setups.push_back(r.setup_s);
  }
  // Every round repeats the same deterministic work, so the spread between
  // rounds is interference from the rest of the host; see fastest_pass_s.
  // The median pass is reported beside it.
  const double wall = fastest_pass_s(untraced);
  if (wall == 0) {
    deterministic = false;
    note("rounds cut their timed pass into different slices");
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::map<std::string, double> e2e = {
      {"wall_s", wall},
      {"wall_median_s", median(walls)},
      {"setup_s", median(setups)},
      {"ops_per_s", ratio(first.ops, wall)},
      {"guest_mips", ratio(first.delta.instructions, wall * 1e6)},
      {"peak_rss_mib", ru.ru_maxrss / 1024.0},
      {"error_rate", ratio(failed, attempted)},
      {"sim_cycles", static_cast<double>(first.sim_cycles)},
  };

  // --- per-layer: exact counters of the timed phase -----------------------
  const Stats& d = first.delta;
  std::map<std::string, double> layer = {
      {"arch.instructions", d.instructions},
      {"arch.block_instr_frac", ratio(d.block_instructions, d.instructions)},
      {"arch.block_hit_rate",
       ratio(d.block_cache_hits, d.block_cache_hits + d.block_cache_misses)},
      {"arch.block_invalidations", d.block_cache_invalidations},
      {"arch.decode_hit_rate",
       ratio(d.decode_cache_hits, d.decode_cache_hits + d.decode_cache_misses)},
      {"arch.itlb_misses", d.itlb_misses},
      {"arch.dtlb_misses", d.dtlb_misses},
      {"arch.hardware_walks", d.hardware_walks},
      {"arch.tlb_flushes", d.tlb_flushes},
      {"arch.fetch_fastpath_hits", d.fetch_fastpath_hits},
      {"arch.data_fastpath_hits", d.data_fastpath_hits},
      {"core.split_itlb_loads", d.split_itlb_loads},
      {"core.split_dtlb_loads", d.split_dtlb_loads},
      {"core.single_steps", d.single_steps},
      {"kernel.page_faults", d.page_faults},
      {"kernel.syscalls", d.syscalls},
      {"kernel.context_switches", d.context_switches},
      {"kernel.sched_wake_checks", d.sched_wake_checks},
      {"kernel.cow_copies", d.cow_copies},
      {"kernel.demand_pages", d.demand_pages},
      {"arch.host_ns_per_instr", ratio(wall * 1e9, d.instructions)},
      {"kernel.host_us_per_ctxsw", ratio(wall * 1e6, d.context_switches)},
      {"snapshot.bytes", static_cast<double>(first.snapshot_bytes)},
  };
  // Restore latency per op and host time per restored MiB (untraced).
  std::vector<double> restores, per_mib;
  for (const auto& r : untraced) {
    restores.insert(restores.end(), r.restore_s.begin(), r.restore_s.end());
    double sum = 0;
    for (const double s : r.restore_s) sum += s;
    if (!r.restore_s.empty()) per_mib.push_back(ratio(sum * 1e6, r.restored_bytes / 1048576.0));
  }
  layer["snapshot.restore_us_p50"] = percentile(restores, 50) * 1e6;
  layer["snapshot.restore_us_p99"] = percentile(restores, 99) * 1e6;
  layer["snapshot.host_us_per_mib"] = median(per_mib);

  // --- per-layer: spans and the cycle profile (traced rounds) --------------
  std::map<std::string, SpanTotals> self_time;
  bool coverage_flagged = false;
  if (a.trace) {
    std::map<std::string, std::vector<double>> totals, selfs, calls;
    std::vector<double> unattributed;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const auto t = span_totals(traced_spans.spans(), traced_ranges[i]);
      for (const auto& [name, v] : t) {
        totals[name].push_back(v.total_s);
        selfs[name].push_back(v.self_s);
        calls[name].push_back(static_cast<double>(v.calls));
      }
      unattributed.push_back(
          1 - ratio(top_level_timed_s(traced_spans.spans(), traced_ranges[i]), traced[i].timed_s));
    }
    for (const auto& [name, v] : totals) {
      self_time[name] = {median(v), median(selfs[name]),
                         static_cast<std::uint64_t>(median(calls[name]))};
    }
    const auto span_s = [&](const std::string& key) {
      const auto it = self_time.find(key);
      return it == self_time.end() ? 0.0 : it->second.total_s;
    };
    layer["asm.assemble_s"] = span_s("setup/asm.assemble");
    layer["image.build_s"] = span_s("setup/image.build");
    layer["kernel.boot_s"] = span_s("setup/kernel.boot");
    layer["kernel.spawn_s"] = span_s("setup/kernel.spawn");
    layer["kernel.attach_channel_s"] = span_s("setup/kernel.attach_channel");
    layer["fuzz.generate_s"] = span_s("setup/fuzz.generate");
    layer["fuzz.make_case_kernel_s"] = span_s("setup/fuzz.make_case_kernel");
    layer["kernel.setup_run_s"] = span_s("setup/kernel.run");
    layer["snapshot.save_s"] = span_s("setup/snapshot.save");
    layer["kernel.run_s"] = span_s("timed/kernel.run");
    const auto run_calls = self_time.find("timed/kernel.run");
    layer["kernel.run_calls"] = run_calls == self_time.end() ? 0 : run_calls->second.calls;
    layer["kernel.channel_io_s"] = span_s("timed/channel.host_write") +
                                   span_s("timed/channel.host_read_all") +
                                   span_s("timed/channel.host_close");
    layer["snapshot.restore_s"] = span_s("timed/snapshot.restore");
    layer["fuzz.observe_s"] = span_s("timed/fuzz.observe");
    layer["fuzz.diff_s"] = span_s("timed/fuzz.diff");
    for (const auto& [cat, cyc] : traced.front().trace_cycles) {
      layer["trace.sim_cycles." + cat] = static_cast<double>(cyc);
    }
    layer["trace.overhead"] = ratio(fastest_pass_s(traced), wall);
    layer["unattributed_frac"] = median(unattributed);
    coverage_flagged = layer["unattributed_frac"] > kCoverageFlag;
    if (!a.spans_out.empty()) write_spans(a.spans_out, a, traced_spans);
  }

  // --- output ---------------------------------------------------------------
  std::ostringstream o;
  o << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
    << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"elapsed_s\": " << num(elapsed)
    << ", \"build\": {\"build_type\": " << quoted(PB_BUILD_TYPE)
    << ", \"compiler\": " << quoted(PB_COMPILER) << ", \"optimized\": " << (kOptimized ? "true" : "false")
    << ", \"asserts\": " << (kAssertsOn ? "true" : "false") << "}"
    << ", \"rounds\": {\"untraced\": " << untraced.size() << ", \"traced\": " << traced.size()
    << "}, \"ops_per_pass\": " << first.ops << ", \"passes_per_round\": " << first.passes
    << ", \"slices_per_pass\": " << first.slice_s.size()
    << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"checks\": {\"deterministic\": "
    << (deterministic ? "true" : "false") << ", \"trace_identical\": "
    << (trace_identical ? "true" : "false") << ", \"trace_sums\": " << (trace_sums ? "true" : "false")
    << ", \"coverage_flagged\": " << (coverage_flagged ? "true" : "false") << "}"
    << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) o << (i ? ", " : "") << quoted(errors[i]);
  o << "], \"end_to_end\": " << object(e2e) << ", \"per_layer\": " << object(layer)
    << ", \"outputs\": " << object(gated_outputs(first))
    << ", \"reference_seed\": " << kReferenceSeed
    << ", \"reference_outputs\": " << object(reference_outputs) << ", \"host_counters\": {";
  bool sep = false;
  for (const Counter& c : kCounters) {
    if (!c.host_side) continue;
    o << (sep ? ", " : "") << quoted(c.name) << ": " << first.delta.*c.field;
    sep = true;
  }
  o << "}, \"round_wall_s\": [";
  for (std::size_t i = 0; i < walls.size(); ++i) o << (i ? ", " : "") << num(walls[i]);
  o << "], \"round_setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) o << (i ? ", " : "") << num(setups[i]);
  o << "], \"spans\": {";
  sep = false;
  for (const auto& [name, t] : self_time) {
    o << (sep ? ", " : "") << quoted(name) << ": {\"total_s\": " << num(t.total_s)
      << ", \"self_s\": " << num(t.self_s) << ", \"calls\": " << t.calls << "}";
    sep = true;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!kOptimized || kAssertsOn) {
    std::cerr << "perfbench: refusing to measure a build "
              << (kOptimized ? "with assertions enabled" : "without optimisation")
              << " (build type " << PB_BUILD_TYPE << ")\n";
    return 3;
  }
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
