// Whole-machine checkpoint/restore (ROADMAP item 5, DESIGN.md §15).
//
// A snapshot captures every bit of SIMULATED state: physical memory (page
// tables ride along — they live in simulated frames), frame generations,
// refcounts and free-pool order, both TLBs with LRU stamps and version
// clocks, CPU registers including the trap flag, the full kernel object
// graph (process slab, runqueue order, wait queues, fd tables with shared
// pipe/channel/file identity, filesystem, images, RNG cursor, timeslice
// position), the trace ring + profiler (when tracing is on), and — when
// attached — the fault injector's schedule cursor/armed queues and the
// invariant watchdog's audit state.
//
// HOST-side derived state is deliberately NOT serialized: the decode
// cache, block cache and the MMU's fetch/data memos are dropped cold on
// restore. The billing-identity contract (fuzz-oracle enforced) makes this
// sound: those caches bill exactly what the slow path they shortcut would
// have, so a cold-cache resume produces bit-identical simulated figures —
// only host wall-clock re-warms.
//
// Restore is an in-place reset: the target kernel must be constructed with
// the SAME KernelConfig and protection engine as the saved one (validated
// field by field; mismatch throws SnapshotError) and may have run
// arbitrarily far — its state is torn down and replaced. This is what the
// fuzz fork-server leans on: one kernel object, restored thousands of
// times, never reallocating its 64 MiB of simulated RAM.
//
// Save points are Kernel::run() exit boundaries, which are always whole-
// instruction boundaries; mid-DBT-block state cannot escape (step_block
// clips at the budget). The single-step window (TF armed, debug trap
// pending) is representable architecturally — flags.TF, the PTE left
// unrestricted in simulated memory, Process::pending_split_vaddr, and the
// profiler's pending-step hand-off all serialize — which the window tests
// in tests/snapshot/ prove.
#pragma once

#include <iosfwd>

namespace sm::arch {
class Mmu;
class PhysicalMemory;
class Tlb;
}  // namespace sm::arch
namespace sm::kernel {
class Kernel;
}
namespace sm::metrics {
struct Stats;
}
namespace sm::inject {
class FaultInjector;
}
namespace sm::invariant {
class InvariantWatchdog;
}

namespace sm::snapshot {

// The single friend the stateful classes grant. All serializer code that
// needs private state goes through here, so the friend surface of each
// component is one line. The per-component schema functions are member
// templates over the archive type (Writer or Reader), so save and restore
// share one schema and cannot drift.
struct Access {
  static void save(std::ostream& os, kernel::Kernel& k,
                   inject::FaultInjector* injector,
                   invariant::InvariantWatchdog* watchdog);
  static void restore(std::istream& is, kernel::Kernel& k,
                      inject::FaultInjector* injector,
                      invariant::InvariantWatchdog* watchdog);

 private:
  // Shared-object identity tables (channels/pipes/file nodes), built in a
  // deterministic discovery order; fd entries reference objects by index.
  struct Tables;
  static Tables collect(kernel::Kernel& k);

  template <class Ar>
  static void machine(Ar& ar, kernel::Kernel& k,
                      inject::FaultInjector* injector,
                      invariant::InvariantWatchdog* watchdog);
  template <class Ar>
  static void config(Ar& ar, kernel::Kernel& k);
  template <class Ar>
  static void phys(Ar& ar, arch::PhysicalMemory& pm);
  template <class Ar>
  static void tlb(Ar& ar, const char* name, arch::Tlb& t);
  template <class Ar>
  static void mmu(Ar& ar, arch::Mmu& m);
  template <class Ar>
  static void stats(Ar& ar, metrics::Stats& s);
  template <class Ar>
  static void objects(Ar& ar, Tables& t);
  template <class Ar>
  static void fs(Ar& ar, kernel::Kernel& k, Tables& t);
  template <class Ar>
  static void images(Ar& ar, kernel::Kernel& k);
  template <class Ar>
  static void procs(Ar& ar, kernel::Kernel& k, Tables& t);
  template <class Ar>
  static void sched(Ar& ar, kernel::Kernel& k);
  template <class Ar>
  static void logs(Ar& ar, kernel::Kernel& k);
  template <class Ar>
  static void trace_state(Ar& ar, kernel::Kernel& k);
  template <class Ar>
  static void injector(Ar& ar, kernel::Kernel& k, inject::FaultInjector* inj);
  template <class Ar>
  static void watchdog(Ar& ar, invariant::InvariantWatchdog* wd);

  // Restore-side structural proof that tearing the restored machine down
  // can never throw from a destructor: every frame's restored refcount must
  // equal exactly the references the address spaces will release.
  static void validate_consistency(kernel::Kernel& k);
  // On a failed restore, make the half-restored kernel safely destructible.
  static void neutralize(kernel::Kernel& k);
};

// Free-function faces of Kernel::save/Kernel::restore for embedders that
// hold the injector/watchdog by concrete type. Kernel::save() discovers
// attached hooks via its FaultSource/StepObserver pointers; these let a
// caller be explicit instead.
void save_system(std::ostream& os, kernel::Kernel& k,
                 inject::FaultInjector* injector = nullptr,
                 invariant::InvariantWatchdog* watchdog = nullptr);
void restore_system(std::istream& is, kernel::Kernel& k,
                    inject::FaultInjector* injector = nullptr,
                    invariant::InvariantWatchdog* watchdog = nullptr);

}  // namespace sm::snapshot
