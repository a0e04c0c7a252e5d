// FaultHooks: the arch layer's seam for deterministic fault injection.
//
// The Mmu and PhysicalMemory consult a non-owning FaultHooks pointer at a
// small set of *cold* protocol points (TLB flush, invlpg, frame allocation)
// and let the hook veto or corrupt the operation. The default implementation
// does nothing, so production runs pay one null-checked branch per cold
// event and zero cost on the translate fast path — the hook is deliberately
// NOT consulted inside Mmu::translate.
//
// The concrete implementation lives in src/inject/ (FaultInjector); arch/
// only knows this interface, keeping the dependency arrow pointing the
// right way (inject -> arch, never arch -> inject).
#pragma once

#include "arch/types.h"

namespace sm::arch {

class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  // A full TLB flush is about to run. Return true to swallow it (simulating
  // a lost IPI / forgotten CR3 reload): the stale entries stay live.
  virtual bool drop_tlb_flush() { return false; }

  // An invlpg of `vaddr` is about to run. Return true to swallow it.
  virtual bool drop_invlpg(u32 vaddr) {
    (void)vaddr;
    return false;
  }

  // A physical frame is about to be allocated. Return true to make the
  // allocation fail as if the free pool were empty (transient exhaustion).
  virtual bool fail_frame_alloc() { return false; }
};

}  // namespace sm::arch
