// The metrics::Stats counters the benchmark reports and gates, by name.
//
// `host_side` marks counters that bill no simulated cycles and exist only
// to describe the simulator's own fast paths and wake-queue work. A
// host-speed change is expected to move them, so they are reported but
// never compared against references or across traced/untraced rounds.
#pragma once

#include <cstdint>

#include "metrics/stats.h"

namespace perfbench {

using sm::metrics::Stats;

struct Counter {
  const char* name;
  std::uint64_t Stats::*field;
  bool host_side;
};

inline constexpr Counter kCounters[] = {
    {"cycles", &Stats::cycles, false},
    {"instructions", &Stats::instructions, false},
    {"itlb_hits", &Stats::itlb_hits, false},
    {"itlb_misses", &Stats::itlb_misses, false},
    {"dtlb_hits", &Stats::dtlb_hits, false},
    {"dtlb_misses", &Stats::dtlb_misses, false},
    {"tlb_flushes", &Stats::tlb_flushes, false},
    {"hardware_walks", &Stats::hardware_walks, false},
    {"fetch_fastpath_hits", &Stats::fetch_fastpath_hits, true},
    {"data_fastpath_hits", &Stats::data_fastpath_hits, true},
    {"decode_cache_hits", &Stats::decode_cache_hits, true},
    {"decode_cache_misses", &Stats::decode_cache_misses, true},
    {"decode_cache_invalidations", &Stats::decode_cache_invalidations, true},
    {"block_cache_hits", &Stats::block_cache_hits, true},
    {"block_cache_misses", &Stats::block_cache_misses, true},
    {"block_cache_invalidations", &Stats::block_cache_invalidations, true},
    {"block_instructions", &Stats::block_instructions, true},
    {"page_faults", &Stats::page_faults, false},
    {"split_dtlb_loads", &Stats::split_dtlb_loads, false},
    {"split_itlb_loads", &Stats::split_itlb_loads, false},
    {"split_dtlb_fallbacks", &Stats::split_dtlb_fallbacks, false},
    {"soft_tlb_fills", &Stats::soft_tlb_fills, false},
    {"single_steps", &Stats::single_steps, false},
    {"demand_pages", &Stats::demand_pages, false},
    {"cow_copies", &Stats::cow_copies, false},
    {"syscalls", &Stats::syscalls, false},
    {"invalid_opcode_faults", &Stats::invalid_opcode_faults, false},
    {"context_switches", &Stats::context_switches, false},
    {"sched_wake_checks", &Stats::sched_wake_checks, true},
    {"injections_detected", &Stats::injections_detected, false},
    {"faults_injected", &Stats::faults_injected, false},
    {"invariant_violations", &Stats::invariant_violations, false},
    {"invariant_recoveries", &Stats::invariant_recoveries, false},
    {"invariant_degradations", &Stats::invariant_degradations, false},
    {"split_oom_degradations", &Stats::split_oom_degradations, false},
    {"timer_fires", &Stats::timer_fires, false},
    {"wait_timeouts", &Stats::wait_timeouts, false},
    {"sleeps", &Stats::sleeps, false},
    {"idle_advances", &Stats::idle_advances, false},
    {"sock_connects", &Stats::sock_connects, false},
    {"sock_refused", &Stats::sock_refused, false},
    {"sock_accepts", &Stats::sock_accepts, false},
    {"sock_backlog_peak", &Stats::sock_backlog_peak, false},
    {"ipi_sends", &Stats::ipi_sends, false},
    {"ipi_acks", &Stats::ipi_acks, false},
    {"tlb_shootdowns", &Stats::tlb_shootdowns, false},
    {"work_steals", &Stats::work_steals, false},
};

// Every Stats member is a u64 counter listed above; a counter added to
// Stats without a row here fails the build instead of going unreported.
static_assert(sizeof(Stats) ==
              sizeof(kCounters) / sizeof(kCounters[0]) * sizeof(std::uint64_t));

// after - before, counter by counter. sock_backlog_peak is a high-water
// mark, not a sum, so its "delta" is the later value.
inline Stats stats_delta(const Stats& after, const Stats& before) {
  Stats d;
  for (const Counter& c : kCounters) d.*c.field = after.*c.field - before.*c.field;
  d.sock_backlog_peak = after.sock_backlog_peak;
  return d;
}

// True when every counter that bills cycles is equal.
inline bool same_billing(const Stats& a, const Stats& b) {
  for (const Counter& c : kCounters) {
    if (!c.host_side && a.*c.field != b.*c.field) return false;
  }
  return true;
}

inline void stats_add(Stats& into, const Stats& d) {
  for (const Counter& c : kCounters) into.*c.field += d.*c.field;
}

}  // namespace perfbench
