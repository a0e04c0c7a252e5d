// The machine schema: one template function per component, instantiated
// for Writer (save) and Reader (restore). See snapshot.h for the contract
// and DESIGN.md §15 for the format rationale.

#include "snapshot/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/cpu.h"
#include "arch/mmu.h"
#include "arch/phys_mem.h"
#include "arch/tlb.h"
#include "image/image.h"
#include "inject/fault_injector.h"
#include "invariant/watchdog.h"
#include "kernel/kernel.h"
#include "metrics/stats.h"
#include "snapshot/serializer.h"
#include "trace/trace.h"

namespace sm::snapshot {

namespace {

using arch::kPageSize;

// --- archive-neutral helpers (public state only) ---------------------------

// A u32 sequence packed as one little-endian bytes blob. Works for vector,
// deque and set (insert-at-end is append for the former two, ordered insert
// for the latter — and a serialized set is already sorted).
template <class Ar, class C>
void u32_seq(Ar& ar, const char* name, C& c) {
  if constexpr (Ar::reading) {
    const std::span<const u8> blob = ar.bytes_view(name);
    ar.check(blob.size() % 4 == 0, "u32 sequence length not a multiple of 4");
    const std::size_t n = blob.size() / 4;
    const auto at = [&](std::size_t i) { return Reader::load32(&blob[i * 4]); };
    if constexpr (std::is_same_v<C, std::vector<u32>>) {
      c.resize(n);
      for (std::size_t i = 0; i < n; ++i) c[i] = at(i);
    } else {
      c.clear();
      for (std::size_t i = 0; i < n; ++i) c.insert(c.end(), at(i));
    }
  } else {
    std::vector<u8> blob;
    blob.reserve(c.size() * 4);
    for (const u32 v : c) {
      blob.push_back(static_cast<u8>(v));
      blob.push_back(static_cast<u8>(v >> 8));
      blob.push_back(static_cast<u8>(v >> 16));
      blob.push_back(static_cast<u8>(v >> 24));
    }
    ar.bytes(name, blob);
  }
}

// A fixed-size u64 array packed as one bytes blob (profiler event counts).
template <class Ar>
void u64_array(Ar& ar, const char* name, std::span<u64> a) {
  if constexpr (Ar::reading) {
    const std::span<const u8> blob = ar.bytes_view(name);
    ar.check(blob.size() == a.size() * 8, "u64 array length mismatch");
    for (std::size_t i = 0; i < a.size(); ++i) {
      u64 v = 0;
      for (int b = 7; b >= 0; --b) v = v << 8 | blob[i * 8 + b];
      a[i] = v;
    }
  } else {
    std::vector<u8> blob;
    blob.reserve(a.size() * 8);
    for (const u64 v : a) {
      for (int b = 0; b < 8; ++b) blob.push_back(static_cast<u8>(v >> (b * 8)));
    }
    ar.bytes(name, blob);
  }
}

template <class Ar, class E>
void enum_u8(Ar& ar, const char* name, E& e, u8 count) {
  u8 v = static_cast<u8>(e);
  ar.value(name, v);
  if constexpr (Ar::reading) {
    ar.check(v < count, "enum value out of range");
    e = static_cast<E>(v);
  }
}

template <class Ar>
void byte_deque(Ar& ar, const char* name, std::deque<u8>& d) {
  if constexpr (Ar::reading) {
    const std::span<const u8> v = ar.bytes_view(name);
    d.assign(v.begin(), v.end());
  } else {
    std::vector<u8> v(d.begin(), d.end());
    ar.bytes(name, v);
  }
}

template <class Ar>
void size_as_u64(Ar& ar, const char* name, std::size_t& s) {
  u64 v = s;
  ar.value(name, v);
  if constexpr (Ar::reading) s = static_cast<std::size_t>(v);
}

// A config field that must be identical in the restoring kernel: written
// normally; on read, compared against the live value and rejected on any
// difference (restore is an in-place reset, not a constructor).
template <class Ar, class T>
void must_match(Ar& ar, const char* name, const T& live) {
  T v = live;
  ar.value(name, v);
  if constexpr (Ar::reading) {
    if (!(v == live)) {
      ar.fail(std::string("config mismatch at '") + name +
              "': snapshot was taken on a differently-configured kernel");
    }
  }
}

template <class Ar>
void regs(Ar& ar, arch::Regs& r) {
  ar.begin("regs");
  for (u32 i = 0; i < arch::kNumRegs; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "r%u", i);
    ar.value(name, r.r[i]);
  }
  ar.value("pc", r.pc);
  ar.value("flags", r.flags);
  ar.end();
}

u64 double_bits(double d) {
  u64 bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

}  // namespace

// --- shared-object identity -------------------------------------------------

struct Access::Tables {
  std::vector<std::shared_ptr<kernel::Channel>> channels;
  std::vector<std::shared_ptr<kernel::Pipe>> pipes;
  std::vector<std::shared_ptr<kernel::FileNode>> files;
  std::vector<std::shared_ptr<kernel::ListenSock>> socks;
  std::map<const void*, u32> ids;  // write side: object -> table index

  u32 id_of(const void* p) const { return ids.at(p); }
};

Access::Tables Access::collect(kernel::Kernel& k) {
  Tables t;
  const auto add_file = [&](const std::shared_ptr<kernel::FileNode>& n) {
    if (n && !t.ids.contains(n.get())) {
      t.ids[n.get()] = static_cast<u32>(t.files.size());
      t.files.push_back(n);
    }
  };
  const auto add_chan = [&](const std::shared_ptr<kernel::Channel>& c) {
    if (c && !t.ids.contains(c.get())) {
      t.ids[c.get()] = static_cast<u32>(t.channels.size());
      t.channels.push_back(c);
    }
  };
  const auto add_pipe = [&](const std::shared_ptr<kernel::Pipe>& p) {
    if (p && !t.ids.contains(p.get())) {
      t.ids[p.get()] = static_cast<u32>(t.pipes.size());
      t.pipes.push_back(p);
    }
  };
  const auto add_sock = [&](const std::shared_ptr<kernel::ListenSock>& s) {
    if (s && !t.ids.contains(s.get())) {
      t.ids[s.get()] = static_cast<u32>(t.socks.size());
      t.socks.push_back(s);
      // Queued-but-unaccepted connections hold pipe ends reachable only
      // through the backlog (the client may already have closed its fd).
      for (const kernel::ListenSock::PendingConn& conn : s->backlog) {
        add_pipe(conn.c2s);
        add_pipe(conn.s2c);
      }
    }
  };
  // Deterministic discovery order: filesystem nodes in path order, then
  // every process in pid order, its fds in slot order (picks up channels,
  // pipes, listen sockets with their backlogs, and unlinked-but-open file
  // nodes).
  for (const auto& [path, node] : k.fs_.nodes_) add_file(node);
  for (const auto& up : k.procs_) {
    for (const kernel::FdEntry& e : up->fds) {
      if (const auto* c = std::get_if<kernel::FdChannel>(&e)) {
        add_chan(c->chan);
      } else if (const auto* pr = std::get_if<kernel::FdPipeRead>(&e)) {
        add_pipe(pr->pipe);
      } else if (const auto* pw = std::get_if<kernel::FdPipeWrite>(&e)) {
        add_pipe(pw->pipe);
      } else if (const auto* sk = std::get_if<kernel::FdSock>(&e)) {
        add_pipe(sk->rx);
        add_pipe(sk->tx);
      } else if (const auto* l = std::get_if<kernel::FdListen>(&e)) {
        add_sock(l->sock);
      } else if (const auto* f = std::get_if<kernel::FdFile>(&e)) {
        add_file(f->node);
      }
    }
  }
  return t;
}

// --- per-component schema ---------------------------------------------------

template <class Ar>
void Access::config(Ar& ar, kernel::Kernel& k) {
  const kernel::KernelConfig& c = k.cfg_;
  ar.begin("config");
  must_match(ar, "engine", k.engine_->name());
  must_match(ar, "phys_frames", c.phys_frames);
  must_match(ar, "require_signatures", c.require_signatures);
  must_match(ar, "signing_key", c.signing_key);
  must_match(ar, "stack_randomization", c.stack_randomization);
  must_match(ar, "rng_seed", c.rng_seed);
  must_match(ar, "stack_pages", c.stack_pages);
  must_match(ar, "software_tlb", c.software_tlb);
  must_match(ar, "tlb_entries", c.tlb_entries);
  must_match(ar, "tlb_ways", c.tlb_ways);
  must_match(ar, "eager_load", c.eager_load);
  must_match(ar, "record_syscall_trace", c.record_syscall_trace);
  must_match(ar, "capture_exit_digest", c.capture_exit_digest);
  must_match(ar, "trace", c.trace);
  must_match(ar, "trace_ring_capacity", c.trace_ring_capacity);
  // The RESOLVED core count (cfg_.cores may be 0 = auto): the restoring
  // kernel must have built the same number of cores.
  must_match(ar, "cores", static_cast<u32>(k.cores_.size()));
  ar.begin("cost");
  must_match(ar, "cycles_per_instr", c.cost.cycles_per_instr);
  must_match(ar, "tlb_hit", c.cost.tlb_hit);
  must_match(ar, "tlb_walk", c.cost.tlb_walk);
  must_match(ar, "trap_cost", c.cost.trap_cost);
  must_match(ar, "syscall_cost", c.cost.syscall_cost);
  must_match(ar, "kernel_touch", c.cost.kernel_touch);
  must_match(ar, "demand_page", c.cost.demand_page);
  must_match(ar, "cow_copy", c.cost.cow_copy);
  must_match(ar, "icache_sync", c.cost.icache_sync);
  must_match(ar, "soft_tlb_fill", c.cost.soft_tlb_fill);
  must_match(ar, "context_switch", c.cost.context_switch);
  must_match(ar, "timeslice_instructions", c.cost.timeslice_instructions);
  must_match(ar, "ipi", c.cost.ipi);
  must_match(ar, "net_bytes_per_cycle", double_bits(c.cost.net_bytes_per_cycle));
  must_match(ar, "net_request_latency", c.cost.net_request_latency);
  ar.end();
  ar.end();
}

template <class Ar>
void Access::phys(Ar& ar, arch::PhysicalMemory& pm) {
  ar.begin("phys");
  u32 nf = pm.num_frames_;
  ar.value("num_frames", nf);
  ar.check(nf == pm.num_frames_, "frame count mismatch");
  ar.value("frames_in_use", pm.frames_in_use_);
  // The free pool is the watermark plus the recycled stack (phys_mem.h).
  // Frames at and above the watermark were never allocated: their
  // refcounts are zero on both sides, so all work below runs over
  // [0, fresh) — what the machine has touched, not how much RAM it has.
  u32 fresh = pm.fresh_;
  ar.value("fresh", fresh);
  ar.check(fresh <= nf, "fresh watermark beyond memory");
  u32_seq(ar, "recycled", pm.recycled_);
  if constexpr (Ar::reading) {
    ar.check(pm.recycled_.size() <= fresh, "recycled stack longer than memory");
    // Each recycled index must name one frame below the watermark, once:
    // a repeated entry would hand one frame to two owners.
    std::vector<bool> listed(fresh, false);
    for (const u32 pfn : pm.recycled_) {
      ar.check(pfn < fresh, "recycled pfn at or above the fresh watermark");
      ar.check(!listed[pfn], "recycled frame listed twice");
      listed[pfn] = true;
    }
    std::fill_n(pm.refcounts_.begin(), pm.fresh_, 0u);
    pm.fresh_ = fresh;
  }
  // Only frames with a live reference carry bytes: alloc_frame() zeroes a
  // frame on allocation, so free-frame contents are unobservable, and
  // free-frame generations only feed host caches that restore drops cold.
  u32 used = 0;
  if constexpr (!Ar::reading) {
    for (u32 p = 0; p < fresh; ++p) used += pm.refcounts_[p] > 0 ? 1 : 0;
  }
  ar.value("used_frames", used);
  ar.check(used <= nf, "used-frame count exceeds memory");
  ar.check(used == pm.frames_in_use_, "frames_in_use disagrees with payload");
  ar.check(static_cast<u64>(used) + pm.recycled_.size() == fresh,
           "recycled and used frames do not cover allocated memory");
  if constexpr (Ar::reading) {
    for (u32 i = 0; i < used; ++i) {
      ar.begin("frame");
      u32 pfn = 0, rc = 0;
      u64 gen = 0;
      ar.value("pfn", pfn);
      ar.value("refcount", rc);
      ar.value("generation", gen);
      ar.check(pfn < fresh, "frame pfn out of range");
      ar.check(rc > 0, "serialized frame with zero refcount");
      ar.check(pm.refcounts_[pfn] == 0, "frame serialized twice");
      pm.refcounts_[pfn] = rc;
      pm.generations_[pfn] = gen;
      ar.bytes_into("data",
                    std::span<u8>(pm.bytes_.get() +
                                      static_cast<std::size_t>(pfn) * kPageSize,
                                  kPageSize));
      ar.end();
    }
    for (const u32 pfn : pm.recycled_) {
      ar.check(pm.refcounts_[pfn] == 0, "recycled frame also serialized");
    }
  } else {
    for (u32 p = 0; p < fresh; ++p) {
      if (pm.refcounts_[p] == 0) continue;
      ar.begin("frame");
      u32 pfn = p;
      ar.value("pfn", pfn);
      ar.value("refcount", pm.refcounts_[p]);
      ar.value("generation", pm.generations_[p]);
      ar.bytes("data", std::span<const u8>(
                           pm.bytes_.get() +
                               static_cast<std::size_t>(p) * kPageSize,
                           kPageSize));
      ar.end();
    }
  }
  ar.end();
}

template <class Ar>
void Access::tlb(Ar& ar, const char* name, arch::Tlb& t) {
  ar.begin(name);
  u32 ways = t.ways_, sets = t.num_sets_;
  ar.value("ways", ways);
  ar.value("sets", sets);
  ar.check(ways == t.ways_ && sets == t.num_sets_, "TLB geometry mismatch");
  ar.value("clock", t.clock_);
  ar.value("version", t.version_);
  for (arch::TlbEntry& e : t.entries_) {
    ar.begin("entry");
    ar.value("vpn", e.vpn);
    ar.value("pfn", e.pfn);
    ar.value("user", e.user);
    ar.value("writable", e.writable);
    ar.value("no_exec", e.no_exec);
    ar.value("valid", e.valid);
    ar.value("stamp", e.stamp);
    ar.end();
  }
  ar.end();
}

template <class Ar>
void Access::mmu(Ar& ar, arch::Mmu& m) {
  ar.begin("mmu");
  ar.value("cr3", m.cr3_);
  ar.value("walk_failure_period", m.walk_failure_period_);
  ar.value("walk_fill_count", m.walk_fill_count_);
  must_match(ar, "software_tlb", m.software_tlb_);
  tlb(ar, "itlb", m.itlb_);
  tlb(ar, "dtlb", m.dtlb_);
  ar.end();
  if constexpr (Ar::reading) {
    // Host-side translation memos restart cold (billing-identical: a memo
    // hit bills exactly the set scan it replaces).
    m.fetch_memo_.valid = false;
    m.read_memo_.valid = false;
    m.write_memo_.valid = false;
  }
}

template <class Ar>
void Access::stats(Ar& ar, metrics::Stats& s) {
  ar.begin("stats");
  for (const metrics::Counter& c : metrics::kCounters) {
    ar.value(c.name, s.*c.field);
  }
  ar.end();
}

template <class Ar>
void Access::objects(Ar& ar, Tables& t) {
  ar.begin("objects");
  u32 nchan = static_cast<u32>(t.channels.size());
  ar.value("channels", nchan);
  if constexpr (Ar::reading) {
    t.channels.clear();
    t.channels.reserve(nchan);
  }
  for (u32 i = 0; i < nchan; ++i) {
    if constexpr (Ar::reading) {
      t.channels.push_back(std::make_shared<kernel::Channel>());
    }
    kernel::Channel& c = *t.channels[i];
    ar.begin("chan");
    byte_deque(ar, "to_guest", c.to_guest_);
    byte_deque(ar, "to_host", c.to_host_);
    ar.value("host_closed", c.host_closed_);
    ar.value("bytes_to_host", c.bytes_to_host_);
    ar.end();
  }
  u32 npipe = static_cast<u32>(t.pipes.size());
  ar.value("pipes", npipe);
  if constexpr (Ar::reading) {
    t.pipes.clear();
    t.pipes.reserve(npipe);
  }
  for (u32 i = 0; i < npipe; ++i) {
    if constexpr (Ar::reading) {
      t.pipes.push_back(std::make_shared<kernel::Pipe>());
    }
    kernel::Pipe& p = *t.pipes[i];
    ar.begin("pipe");
    byte_deque(ar, "buf", p.buf_);
    ar.check(p.buf_.size() <= kernel::Pipe::kCapacity, "pipe over capacity");
    u32 readers = static_cast<u32>(p.readers_);
    u32 writers = static_cast<u32>(p.writers_);
    ar.value("readers", readers);
    ar.value("writers", writers);
    if constexpr (Ar::reading) {
      p.readers_ = static_cast<int>(readers);
      p.writers_ = static_cast<int>(writers);
    }
    // Block (FIFO) order of the wait queues is schedule-visible state.
    u32_seq(ar, "read_waiters", p.read_waiters);
    u32_seq(ar, "write_waiters", p.write_waiters);
    ar.end();
  }
  u32 nfile = static_cast<u32>(t.files.size());
  ar.value("files", nfile);
  if constexpr (Ar::reading) {
    t.files.clear();
    t.files.reserve(nfile);
  }
  for (u32 i = 0; i < nfile; ++i) {
    if constexpr (Ar::reading) {
      t.files.push_back(std::make_shared<kernel::FileNode>());
    }
    ar.begin("file");
    ar.value("data", t.files[i]->bytes);
    ar.end();
  }
  u32 nsock = static_cast<u32>(t.socks.size());
  ar.value("socks", nsock);
  if constexpr (Ar::reading) {
    t.socks.clear();
    t.socks.reserve(nsock);
  }
  for (u32 i = 0; i < nsock; ++i) {
    if constexpr (Ar::reading) {
      t.socks.push_back(std::make_shared<kernel::ListenSock>());
    }
    kernel::ListenSock& s = *t.socks[i];
    ar.begin("sock");
    ar.value("port", s.port);
    ar.value("capacity", s.capacity);
    u32 refs = static_cast<u32>(s.refs);
    ar.value("refs", refs);
    if constexpr (Ar::reading) s.refs = static_cast<int>(refs);
    // The backlog in queue (FIFO) order: each pending connection is a
    // pair of shared pipes referenced by table id.
    u32 nconn = static_cast<u32>(s.backlog.size());
    ar.value("backlog", nconn);
    ar.check(nconn <= s.capacity, "backlog over capacity");
    for (u32 j = 0; j < nconn; ++j) {
      ar.begin("conn");
      u32 c2s = 0, s2c = 0;
      if constexpr (!Ar::reading) {
        c2s = t.id_of(s.backlog[j].c2s.get());
        s2c = t.id_of(s.backlog[j].s2c.get());
      }
      ar.value("c2s", c2s);
      ar.value("s2c", s2c);
      if constexpr (Ar::reading) {
        ar.check(c2s < t.pipes.size() && s2c < t.pipes.size(),
                 "backlog references unknown pipe");
        s.backlog.push_back({t.pipes[c2s], t.pipes[s2c]});
      }
      ar.end();
    }
    u32_seq(ar, "accept_waiters", s.accept_waiters);
    ar.end();
  }
  ar.end();
}

template <class Ar>
void Access::fs(Ar& ar, kernel::Kernel& k, Tables& t) {
  ar.begin("fs");
  u32 n = static_cast<u32>(k.fs_.nodes_.size());
  ar.value("nodes", n);
  if constexpr (Ar::reading) {
    for (u32 i = 0; i < n; ++i) {
      ar.begin("node");
      std::string path;
      u32 id = 0;
      ar.value("path", path);
      ar.value("file", id);
      ar.check(id < t.files.size(), "fs node references unknown file");
      ar.check(k.fs_.nodes_.emplace(path, t.files[id]).second,
               "duplicate fs path");
      ar.end();
    }
  } else {
    for (const auto& [path, node] : k.fs_.nodes_) {
      ar.begin("node");
      std::string p = path;
      u32 id = t.id_of(node.get());
      ar.value("path", p);
      ar.value("file", id);
      ar.end();
    }
  }
  ar.end();
}

template <class Ar>
void Access::images(Ar& ar, kernel::Kernel& k) {
  ar.begin("images");
  u32 n = static_cast<u32>(k.images_.size());
  ar.value("count", n);
  if constexpr (Ar::reading) {
    for (u32 i = 0; i < n; ++i) {
      ar.begin("image");
      std::string name;
      std::vector<u8> blob;
      ar.value("name", name);
      ar.value("data", blob);
      image::Image img;
      try {
        img = image::Image::deserialize(blob);
      } catch (const std::exception& e) {
        ar.fail(std::string("bad image payload: ") + e.what());
      }
      // Bypasses register_image's signature re-check: the image was already
      // admitted when the saved kernel registered it.
      ar.check(k.images_.emplace(name, std::move(img)).second,
               "duplicate image name");
      ar.end();
    }
  } else {
    for (const auto& [name, img] : k.images_) {
      ar.begin("image");
      std::string nm = name;
      std::vector<u8> blob = img.serialize();
      ar.value("name", nm);
      ar.value("data", blob);
      ar.end();
    }
  }
  ar.end();
}

template <class Ar>
void Access::procs(Ar& ar, kernel::Kernel& k, Tables& t) {
  ar.begin("procs");
  u32 n = static_cast<u32>(k.procs_.size());
  ar.value("count", n);
  if constexpr (Ar::reading) {
    ar.check(n < (1u << 24), "implausible process count");
    k.procs_.reserve(n);
  }
  for (u32 i = 0; i < n; ++i) {
    std::unique_ptr<kernel::Process> up;
    if constexpr (Ar::reading) up = std::make_unique<kernel::Process>();
    kernel::Process& p = Ar::reading ? *up : *k.procs_[i];
    ar.begin("proc");
    ar.value("pid", p.pid);
    ar.check(p.pid == i + 1, "process slab out of pid order");
    ar.value("parent", p.parent);
    ar.value("name", p.name);
    enum_u8(ar, "state", p.state, 3);
    enum_u8(ar, "exit_kind", p.exit_kind, 4);
    ar.value("exit_code", p.exit_code);
    regs(ar, p.regs);

    bool has_as = p.as != nullptr;
    ar.value("has_as", has_as);
    if (has_as) {
      ar.begin("as");
      u32 root = Ar::reading ? 0 : p.as->root_;
      ar.value("root", root);
      ar.check(root < k.pm_.num_frames_, "address-space root out of range");
      if constexpr (Ar::reading) {
        // Adopt the root that already lives in restored physical memory.
        p.as = std::unique_ptr<kernel::AddressSpace>(new kernel::AddressSpace(
            k.pm_, root, kernel::AddressSpace::AdoptRoot{}));
      }
      kernel::AddressSpace& as = *p.as;
      ar.value("brk_end", as.brk_end);
      u32 nv = static_cast<u32>(as.vmas_.size());
      ar.value("vmas", nv);
      if constexpr (Ar::reading) {
        ar.check(nv < (1u << 20), "implausible VMA count");
        as.vmas_.resize(nv);
      }
      for (u32 j = 0; j < nv; ++j) {
        kernel::Vma& v = as.vmas_[j];
        ar.begin("vma");
        ar.value("start", v.start);
        ar.value("end", v.end);
        ar.value("prot", v.prot);
        enum_u8(ar, "kind", v.kind, 7);
        ar.value("name", v.name);
        bool has_backing = v.backing != nullptr;
        ar.value("has_backing", has_backing);
        if (has_backing) {
          if constexpr (Ar::reading) {
            std::vector<u8> blob;
            ar.value("backing", blob);
            v.backing =
                std::make_shared<const std::vector<u8>>(std::move(blob));
          } else {
            ar.bytes("backing", *v.backing);
          }
        }
        ar.value("backing_offset", v.backing_offset);
        ar.end();
      }
      u32 ns = static_cast<u32>(as.split_pages_.size());
      ar.value("splits", ns);
      if constexpr (Ar::reading) {
        for (u32 j = 0; j < ns; ++j) {
          ar.begin("split");
          u32 vpn = 0;
          kernel::SplitPair pair;
          ar.value("vpn", vpn);
          ar.value("code_frame", pair.code_frame);
          ar.value("data_frame", pair.data_frame);
          ar.check(pair.code_frame < k.pm_.num_frames_ &&
                       pair.data_frame < k.pm_.num_frames_,
                   "split pair frame out of range");
          ar.check(as.split_pages_.emplace(vpn, pair).second,
                   "duplicate split page");
          ar.end();
        }
      } else {
        for (auto& [vpn, pair] : as.split_pages_) {
          ar.begin("split");
          u32 v = vpn;
          ar.value("vpn", v);
          ar.value("code_frame", pair.code_frame);
          ar.value("data_frame", pair.data_frame);
          ar.end();
        }
      }
      ar.end();
    }

    u32 nfd = static_cast<u32>(p.fds.size());
    ar.value("fds", nfd);
    if constexpr (Ar::reading) {
      ar.check(nfd < (1u << 20), "implausible fd count");
      p.fds.resize(nfd);
    }
    for (u32 j = 0; j < nfd; ++j) {
      ar.begin("fd");
      u8 tag = static_cast<u8>(p.fds[j].index());
      ar.value("tag", tag);
      ar.check(tag < 8, "fd tag out of range");
      switch (tag) {
        case 0:
          if constexpr (Ar::reading) p.fds[j] = std::monostate{};
          break;
        case 1: {
          u32 id = Ar::reading
                       ? 0
                       : t.id_of(std::get<kernel::FdChannel>(p.fds[j]).chan.get());
          ar.value("chan", id);
          if constexpr (Ar::reading) {
            ar.check(id < t.channels.size(), "fd references unknown channel");
            p.fds[j] = kernel::FdChannel{t.channels[id]};
          }
          break;
        }
        case 2:
          if constexpr (Ar::reading) p.fds[j] = kernel::FdConsole{};
          break;
        case 3:
        case 4: {
          u32 id = 0;
          if constexpr (!Ar::reading) {
            id = tag == 3
                     ? t.id_of(std::get<kernel::FdPipeRead>(p.fds[j]).pipe.get())
                     : t.id_of(
                           std::get<kernel::FdPipeWrite>(p.fds[j]).pipe.get());
          }
          ar.value("pipe", id);
          if constexpr (Ar::reading) {
            ar.check(id < t.pipes.size(), "fd references unknown pipe");
            if (tag == 3) {
              p.fds[j] = kernel::FdPipeRead{t.pipes[id]};
            } else {
              p.fds[j] = kernel::FdPipeWrite{t.pipes[id]};
            }
          }
          break;
        }
        case 5: {
          kernel::FdFile f;
          if constexpr (!Ar::reading) f = std::get<kernel::FdFile>(p.fds[j]);
          u32 id = Ar::reading ? 0 : t.id_of(f.node.get());
          ar.value("file", id);
          ar.value("offset", f.offset);
          ar.value("writable", f.writable);
          if constexpr (Ar::reading) {
            ar.check(id < t.files.size(), "fd references unknown file");
            f.node = t.files[id];
            p.fds[j] = std::move(f);
          }
          break;
        }
        case 6: {
          u32 id = Ar::reading
                       ? 0
                       : t.id_of(std::get<kernel::FdListen>(p.fds[j]).sock.get());
          ar.value("sock", id);
          if constexpr (Ar::reading) {
            ar.check(id < t.socks.size(), "fd references unknown listen sock");
            p.fds[j] = kernel::FdListen{t.socks[id]};
          }
          break;
        }
        case 7: {
          u32 rx = 0, tx = 0;
          if constexpr (!Ar::reading) {
            rx = t.id_of(std::get<kernel::FdSock>(p.fds[j]).rx.get());
            tx = t.id_of(std::get<kernel::FdSock>(p.fds[j]).tx.get());
          }
          ar.value("rx", rx);
          ar.value("tx", tx);
          if constexpr (Ar::reading) {
            ar.check(rx < t.pipes.size() && tx < t.pipes.size(),
                     "fd references unknown pipe");
            p.fds[j] = kernel::FdSock{t.pipes[rx], t.pipes[tx]};
          }
          break;
        }
      }
      ar.end();
    }

    u8 wtag = static_cast<u8>(p.waiting.index());
    ar.value("wait", wtag);
    ar.check(wtag < 6, "wait tag out of range");
    switch (wtag) {
      case 0:
        if constexpr (Ar::reading) p.waiting = kernel::WaitNone{};
        break;
      case 1: {
        kernel::WaitReadFd w{};
        if constexpr (!Ar::reading) w = std::get<kernel::WaitReadFd>(p.waiting);
        ar.value("fd", w.fd);
        if constexpr (Ar::reading) p.waiting = w;
        break;
      }
      case 2: {
        kernel::WaitWriteFd w{};
        if constexpr (!Ar::reading) {
          w = std::get<kernel::WaitWriteFd>(p.waiting);
        }
        ar.value("fd", w.fd);
        if constexpr (Ar::reading) p.waiting = w;
        break;
      }
      case 3: {
        kernel::WaitChild w{};
        if constexpr (!Ar::reading) w = std::get<kernel::WaitChild>(p.waiting);
        ar.value("pid", w.pid);
        if constexpr (Ar::reading) p.waiting = w;
        break;
      }
      case 4: {
        kernel::WaitSelect2 w{};
        if constexpr (!Ar::reading) {
          w = std::get<kernel::WaitSelect2>(p.waiting);
        }
        ar.value("fd_a", w.fd_a);
        ar.value("fd_b", w.fd_b);
        if constexpr (Ar::reading) p.waiting = w;
        break;
      }
      case 5:
        if constexpr (Ar::reading) p.waiting = kernel::WaitSleep{};
        break;
    }
    ar.value("retry_syscall", p.retry_syscall);
    // The timer wheel itself is never serialized: wait_deadline is the
    // authoritative per-process record, and restore rebuilds the wheel
    // from it (machine(), after procs are in place).
    ar.value("wait_deadline", p.wait_deadline);
    ar.value("timed_out", p.timed_out);
    u32_seq(ar, "exit_waiters", p.exit_waiters);

    bool has_pending = p.pending_split_vaddr.has_value();
    ar.value("has_pending_split", has_pending);
    if (has_pending) {
      u32 v = Ar::reading ? 0 : *p.pending_split_vaddr;
      ar.value("pending_split_vaddr", v);
      if constexpr (Ar::reading) p.pending_split_vaddr = v;
    }
    ar.value("shell_spawned", p.shell_spawned);
    bool has_recovery = p.recovery_handler.has_value();
    ar.value("has_recovery", has_recovery);
    if (has_recovery) {
      u32 v = Ar::reading ? 0 : *p.recovery_handler;
      ar.value("recovery_handler", v);
      if constexpr (Ar::reading) p.recovery_handler = v;
    }

    // Console can outgrow the string cap; store as bytes.
    if constexpr (Ar::reading) {
      const std::span<const u8> c = ar.bytes_view("console");
      p.console.assign(c.begin(), c.end());
    } else {
      ar.bytes("console",
               std::span<const u8>(
                   reinterpret_cast<const u8*>(p.console.data()),
                   p.console.size()));
    }

    // Syscall trace: 4 u32 per record, packed.
    {
      std::vector<u32> flat;
      if constexpr (!Ar::reading) {
        flat.reserve(p.syscall_trace.size() * 4);
        for (const kernel::SyscallRecord& r : p.syscall_trace) {
          flat.push_back(r.num);
          flat.push_back(r.a1);
          flat.push_back(r.a2);
          flat.push_back(r.a3);
        }
      }
      u32_seq(ar, "syscall_trace", flat);
      if constexpr (Ar::reading) {
        ar.check(flat.size() % 4 == 0, "syscall trace length");
        p.syscall_trace.clear();
        p.syscall_trace.reserve(flat.size() / 4);
        for (std::size_t j = 0; j + 3 < flat.size(); j += 4) {
          p.syscall_trace.push_back(
              {flat[j], flat[j + 1], flat[j + 2], flat[j + 3]});
        }
      }
    }

    bool has_digest = p.exit_digest.has_value();
    ar.value("has_exit_digest", has_digest);
    if (has_digest) {
      if constexpr (Ar::reading) {
        image::Digest d{};
        ar.bytes_into("exit_digest", std::span<u8>(d.data(), d.size()));
        p.exit_digest = d;
      } else {
        ar.bytes("exit_digest",
                 std::span<const u8>(p.exit_digest->data(),
                                     p.exit_digest->size()));
      }
    }

    // The free-fd min-heap, canonicalized to ascending order (the pop
    // order, which is the only observable property of the heap).
    {
      std::vector<u32> free_fds;
      if constexpr (!Ar::reading) {
        auto heap = p.free_fds;
        while (!heap.empty()) {
          free_fds.push_back(heap.top());
          heap.pop();
        }
      }
      u32_seq(ar, "free_fds", free_fds);
      if constexpr (Ar::reading) {
        for (const u32 f : free_fds) p.free_fds.push(f);
      }
    }
    ar.value("fd_alloc_probes", p.fd_alloc_probes);
    ar.end();
    if constexpr (Ar::reading) {
      if (p.alive()) ++k.live_procs_;
      k.procs_.push_back(std::move(up));
    }
  }
  ar.end();
}

template <class Ar>
void Access::sched(Ar& ar, kernel::Kernel& k) {
  ar.begin("sched");
  ar.value("next_pid", k.next_pid_);
  ar.check(k.next_pid_ == k.procs_.size() + 1, "next_pid disagrees with slab");
  u32 live = k.live_procs_;
  ar.value("live_procs", live);
  ar.check(live == k.live_procs_, "live_procs disagrees with process states");
  ar.value("rng_state", k.rng_state_);
  ar.value("active_core", k.active_core_);
  ar.check(k.active_core_ < k.cores_.size(), "active core out of range");
  ar.value("quantum_used", k.quantum_used_);

  const auto opt_pid = [&](const char* has_name, const char* pid_name,
                           std::optional<kernel::Pid>& o) {
    bool has = o.has_value();
    ar.value(has_name, has);
    if (has) {
      u32 pid = Ar::reading ? 0 : *o;
      ar.value(pid_name, pid);
      if constexpr (Ar::reading) {
        ar.check(pid >= 1 && pid <= k.procs_.size(), "pid out of range");
        o = pid;
      }
    } else {
      if constexpr (Ar::reading) o.reset();
    }
  };
  // Per-core scheduler state: current/last pid, slice progress, and the
  // runqueue in FIFO order; restore re-pushes through the normal path so
  // the intrusive links and on_runqueue/rq_core flags are rebuilt
  // consistently.
  for (auto& cp : k.cores_) {
    ar.begin("core_sched");
    ar.value("slice_used", cp->slice_used);
    opt_pid("has_current", "current", cp->current);
    opt_pid("has_last_running", "last_running", cp->last_running);
    std::vector<u32> rq;
    if constexpr (!Ar::reading) {
      for (kernel::Process* p = cp->runqueue.head; p != nullptr;
           p = p->rq_next) {
        rq.push_back(p->pid);
      }
    }
    u32_seq(ar, "runqueue", rq);
    if constexpr (Ar::reading) {
      for (const u32 pid : rq) {
        kernel::Process* p = k.process(pid);
        ar.check(p != nullptr, "runqueue references unknown pid");
        ar.check(p->state == kernel::ProcState::kRunnable,
                 "runqueue entry not runnable");
        ar.check(!p->on_runqueue, "pid queued twice");
        cp->runqueue.push_back(*p);
      }
    }
    ar.end();
  }
  // Shootdowns whose IPI retries were exhausted (armed drop faults); the
  // watchdog completes them. Empty except mid-fault-campaign.
  u32 nps = static_cast<u32>(k.pending_shootdowns_.size());
  ar.value("pending_shootdowns", nps);
  if constexpr (Ar::reading) {
    ar.check(nps < (1u << 20), "implausible pending-shootdown count");
    k.pending_shootdowns_.assign(nps, kernel::Kernel::PendingShootdown{});
  }
  for (u32 i = 0; i < nps; ++i) {
    kernel::Kernel::PendingShootdown& ps = k.pending_shootdowns_[i];
    ar.begin("shootdown");
    ar.value("vpn", ps.vpn);
    ar.value("root", ps.root);
    ar.value("core_mask", ps.core_mask);
    ar.end();
  }
  u32_seq(ar, "channel_waiters", k.channel_waiters_);
  if constexpr (Ar::reading) {
    for (const u32 pid : k.channel_waiters_) {
      ar.check(pid >= 1 && pid <= k.procs_.size(),
               "channel waiter out of range");
    }
  }
  ar.end();
}

template <class Ar>
void Access::logs(Ar& ar, kernel::Kernel& k) {
  ar.begin("log");
  u32 n = static_cast<u32>(k.klog_.size());
  ar.value("lines", n);
  if constexpr (Ar::reading) k.klog_.resize(n);
  for (u32 i = 0; i < n; ++i) ar.value("line", k.klog_[i]);
  u32 nd = static_cast<u32>(k.detections_.size());
  ar.value("detections", nd);
  if constexpr (Ar::reading) k.detections_.resize(nd);
  for (u32 i = 0; i < nd; ++i) {
    kernel::DetectionEvent& d = k.detections_[i];
    ar.begin("detection");
    ar.value("pid", d.pid);
    ar.value("process", d.process);
    ar.value("eip", d.eip);
    ar.value("cycles", d.cycles);
    ar.value("mode", d.mode);
    ar.value("shellcode", d.shellcode);
    ar.value("disassembly", d.disassembly);
    ar.end();
  }
  ar.end();
}

template <class Ar>
void Access::trace_state(Ar& ar, kernel::Kernel& k) {
  ar.begin("trace");
  bool present = k.trace_ptr_ != nullptr;
  ar.value("present", present);
  if constexpr (Ar::reading) {
    // config.trace already matched, so in a well-formed snapshot `present`
    // equals whether this kernel has a sink; a disagreeing record is
    // malformed input.
    ar.check(present == (k.trace_ptr_ != nullptr),
             "trace sink presence disagrees with the config's trace flag");
  }
  if (present && k.trace_ptr_ != nullptr) {
    trace::TraceSink& ts = k.trace_;
    ar.value("pid", ts.pid_);

    u64 cap = ts.ring_.buf_.size();
    ar.value("ring_capacity", cap);
    ar.check(cap == ts.ring_.buf_.size(), "trace ring capacity mismatch");
    u64 size = ts.ring_.size_;
    ar.value("ring_size", size);
    ar.check(size <= cap, "ring size over capacity");
    ar.value("ring_dropped", ts.ring_.dropped_);
    // Events, canonicalized oldest-to-newest (head_ = 0 after restore —
    // rotation is unobservable through the ring's API).
    constexpr std::size_t kEvSize = 23;
    if constexpr (Ar::reading) {
      const std::span<const u8> blob = ar.bytes_view("events");
      ar.check(blob.size() == size * kEvSize, "event payload length");
      // The ring already has `cap` slots (checked above). Slots past size_
      // are written before they are read, so only live events are set.
      ts.ring_.head_ = 0;
      ts.ring_.size_ = static_cast<std::size_t>(size);
      for (u64 i = 0; i < size; ++i) {
        const u8* b = blob.data() + i * kEvSize;
        trace::Event e;
        u64 cyc = 0;
        for (int q = 7; q >= 0; --q) cyc = cyc << 8 | b[q];
        e.cycles = cyc;
        e.pid = b[8] | b[9] << 8 | b[10] << 16 | static_cast<u32>(b[11]) << 24;
        e.vaddr =
            b[12] | b[13] << 8 | b[14] << 16 | static_cast<u32>(b[15]) << 24;
        e.info =
            b[16] | b[17] << 8 | b[18] << 16 | static_cast<u32>(b[19]) << 24;
        ar.check(b[20] < static_cast<u8>(trace::EventKind::kCount),
                 "event kind out of range");
        e.kind = static_cast<trace::EventKind>(b[20]);
        e.arg = b[21];
        e.core = b[22];
        ts.ring_.buf_[static_cast<std::size_t>(i)] = e;
      }
    } else {
      std::vector<u8> blob;
      blob.reserve(static_cast<std::size_t>(size) * kEvSize);
      for (u64 i = 0; i < size; ++i) {
        const trace::Event& e = ts.ring_[static_cast<std::size_t>(i)];
        for (int q = 0; q < 8; ++q) {
          blob.push_back(static_cast<u8>(e.cycles >> (q * 8)));
        }
        for (int q = 0; q < 4; ++q) {
          blob.push_back(static_cast<u8>(e.pid >> (q * 8)));
        }
        for (int q = 0; q < 4; ++q) {
          blob.push_back(static_cast<u8>(e.vaddr >> (q * 8)));
        }
        for (int q = 0; q < 4; ++q) {
          blob.push_back(static_cast<u8>(e.info >> (q * 8)));
        }
        blob.push_back(static_cast<u8>(e.kind));
        blob.push_back(e.arg);
        blob.push_back(e.core);
      }
      ar.bytes("events", blob);
    }

    // Profiler. Unordered maps serialize in sorted key order so
    // save -> restore -> save is byte-identical.
    trace::Profiler& pf = ts.prof_;
    {
      std::vector<std::pair<u64, u64>> sorted;
      if constexpr (!Ar::reading) {
        sorted.assign(pf.buckets_.begin(), pf.buckets_.end());
        std::ranges::sort(sorted);
      }
      u32 nb = static_cast<u32>(sorted.size());
      ar.value("buckets", nb);
      if constexpr (Ar::reading) {
        pf.buckets_.clear();
        for (u32 i = 0; i < nb; ++i) {
          ar.begin("bucket");
          u64 key = 0, cycles = 0;
          ar.value("key", key);
          ar.value("cycles", cycles);
          ar.check(pf.buckets_.emplace(key, cycles).second,
                   "duplicate profile bucket");
          ar.end();
        }
      } else {
        for (auto& [key, cycles] : sorted) {
          ar.begin("bucket");
          ar.value("key", key);
          ar.value("cycles", cycles);
          ar.end();
        }
      }
    }
    {
      std::vector<std::pair<u64, trace::Profiler::Fill>> sorted;
      if constexpr (!Ar::reading) {
        sorted.assign(pf.fills_.begin(), pf.fills_.end());
        std::ranges::sort(sorted, {}, [](const auto& kv) { return kv.first; });
      }
      u32 nf = static_cast<u32>(sorted.size());
      ar.value("fills", nf);
      if constexpr (Ar::reading) {
        pf.fills_.clear();
        for (u32 i = 0; i < nf; ++i) {
          ar.begin("fill");
          u64 key = 0;
          trace::Profiler::Fill f;
          ar.value("key", key);
          ar.value("epoch", f.epoch);
          ar.value("invalidated", f.invalidated);
          ar.check(pf.fills_.emplace(key, f).second, "duplicate fill record");
          ar.end();
        }
      } else {
        for (auto& [key, f] : sorted) {
          ar.begin("fill");
          u64 kk = key;
          ar.value("key", kk);
          ar.value("epoch", f.epoch);
          ar.value("invalidated", f.invalidated);
          ar.end();
        }
      }
    }
    {
      // The Algorithm-2 trace-scope hand-off: attribution for the debug
      // trap that will close each open single-step window. Must survive
      // serialization for mid-window snapshots to bill identically.
      std::vector<std::pair<u32, std::pair<trace::Category, trace::Cause>>>
          sorted;
      if constexpr (!Ar::reading) {
        sorted.assign(pf.pending_step_.begin(), pf.pending_step_.end());
        std::ranges::sort(sorted, {}, [](const auto& kv) { return kv.first; });
      }
      u32 np = static_cast<u32>(sorted.size());
      ar.value("pending_steps", np);
      if constexpr (Ar::reading) {
        pf.pending_step_.clear();
        for (u32 i = 0; i < np; ++i) {
          ar.begin("pending_step");
          u32 pid = 0;
          auto cat = trace::Category::kOther;
          auto cause = trace::Cause::kNone;
          ar.value("pid", pid);
          enum_u8(ar, "category", cat,
                  static_cast<u8>(trace::Category::kCount));
          enum_u8(ar, "cause", cause, static_cast<u8>(trace::Cause::kCount));
          ar.check(pf.pending_step_.emplace(pid, std::pair{cat, cause}).second,
                   "duplicate pending step");
          ar.end();
        }
      } else {
        for (auto& [pid, cc] : sorted) {
          ar.begin("pending_step");
          u32 pp = pid;
          ar.value("pid", pp);
          enum_u8(ar, "category", cc.first,
                  static_cast<u8>(trace::Category::kCount));
          enum_u8(ar, "cause", cc.second,
                  static_cast<u8>(trace::Cause::kCount));
          ar.end();
        }
      }
    }
    u64_array(ar, "event_counts",
              std::span<u64>(pf.event_counts_.data(), pf.event_counts_.size()));
    ar.value("flush_epoch", pf.flush_epoch_);
    ar.value("total_cycles", pf.total_cycles_);
    bool scope_active = pf.scope_.active;
    ar.value("scope_active", scope_active);
    ar.check(!scope_active, "snapshot taken inside an open trace scope");
    if constexpr (Ar::reading) pf.scope_ = trace::Profiler::Scope{};
  }
  ar.end();
}

template <class Ar>
void Access::injector(Ar& ar, kernel::Kernel& k, inject::FaultInjector* inj) {
  ar.begin("injector");
  bool present = inj != nullptr;
  ar.value("present", present);
  if constexpr (Ar::reading) {
    ar.check(present == (inj != nullptr),
             "fault-injector attachment mismatch: attach the same hooks "
             "before restoring");
  }
  if (present && inj != nullptr) {
    if constexpr (Ar::reading) {
      ar.check(inj->kernel_ == &k, "injector not attached to this kernel");
    }
    ar.value("seed", inj->schedule_.seed);
    u32 n = static_cast<u32>(inj->schedule_.faults.size());
    ar.value("faults", n);
    if constexpr (Ar::reading) {
      ar.check(n < (1u << 24), "implausible fault count");
      inj->schedule_.faults.resize(n);
      inj->records_.assign(n, inject::FaultInjector::Record{});
    }
    for (u32 i = 0; i < n; ++i) {
      inject::ScheduledFault& f = inj->schedule_.faults[i];
      ar.begin("fault");
      ar.value("after", f.after_instruction);
      enum_u8(ar, "kind", f.kind, static_cast<u8>(inject::FaultKind::kCount));
      ar.value("arg", f.arg);
      ar.end();
      if constexpr (Ar::reading) inj->records_[i].fault = f;
    }
    for (u32 i = 0; i < n; ++i) {
      inject::FaultInjector::Record& r = inj->records_[i];
      ar.begin("record");
      ar.value("fired", r.fired);
      ar.value("fired_at", r.fired_at);
      bool has_outcome = r.outcome.has_value();
      ar.value("has_outcome", has_outcome);
      if (has_outcome) {
        auto o = Ar::reading ? inject::Outcome::kRecovered : *r.outcome;
        enum_u8(ar, "outcome", o, 3);
        if constexpr (Ar::reading) r.outcome = o;
      } else {
        if constexpr (Ar::reading) r.outcome.reset();
      }
      ar.end();
    }
    ar.value("next", inj->next_);
    ar.check(inj->next_ <= n, "schedule cursor past the end");
    const auto armed = [&](const char* name, std::vector<u32>& q) {
      u32_seq(ar, name, q);
      if constexpr (Ar::reading) {
        for (const u32 i : q) ar.check(i < n, "armed index out of range");
      }
    };
    armed("armed_drop_flush", inj->armed_drop_flush_);
    armed("armed_drop_invlpg", inj->armed_drop_invlpg_);
    armed("armed_alloc_fail", inj->armed_alloc_fail_);
    armed("armed_lost_trap", inj->armed_lost_trap_);
    armed("armed_dup_trap", inj->armed_dup_trap_);
    armed("armed_preempt", inj->armed_preempt_);
    armed("armed_tf_clear", inj->armed_tf_clear_);
    armed("armed_drop_ipi", inj->armed_drop_ipi_);
    armed("armed_ack_no_flush", inj->armed_ack_no_flush_);
    armed("armed_stall", inj->armed_stall_);
    armed("armed_drop_conn", inj->armed_drop_conn_);
  }
  ar.end();
}

template <class Ar>
void Access::watchdog(Ar& ar, invariant::InvariantWatchdog* wd) {
  ar.begin("watchdog");
  bool present = wd != nullptr;
  ar.value("present", present);
  if constexpr (Ar::reading) {
    ar.check(present == (wd != nullptr),
             "watchdog attachment mismatch: attach the same hooks before "
             "restoring");
  }
  if (present && wd != nullptr) {
    // Per-core TLB version counters at the last audit (lazily sized in
    // pre_step, so the vectors may legitimately be empty or short).
    const auto version_vec = [&](const char* name, std::vector<u64>& v) {
      u32 nc = static_cast<u32>(v.size());
      ar.value(name, nc);
      if constexpr (Ar::reading) {
        ar.check(nc <= 32, "implausible watchdog core count");
        v.assign(nc, 0);
      }
      for (u32 i = 0; i < nc; ++i) ar.value("version", v[i]);
    };
    version_vec("itlb_versions", wd->core_itlb_versions_);
    version_vec("dtlb_versions", wd->core_dtlb_versions_);
    ar.value("last_pid", wd->last_pid_);
    ar.value("steps_since_audit", wd->steps_since_audit_);
    ar.value("degraded_since_resolve", wd->degraded_since_resolve_);
    u32 n = static_cast<u32>(wd->repairs_.size());
    ar.value("repairs", n);
    if constexpr (Ar::reading) {
      wd->repairs_.clear();
      for (u32 i = 0; i < n; ++i) {
        ar.begin("repair");
        u64 key = 0;
        u32 count = 0;
        ar.value("key", key);
        ar.value("count", count);
        ar.check(wd->repairs_.emplace(key, count).second, "duplicate repair");
        ar.end();
      }
      wd->scan_vpns_.clear();
    } else {
      for (auto& [key, count] : wd->repairs_) {
        ar.begin("repair");
        u64 kk = key;
        ar.value("key", kk);
        ar.value("count", count);
        ar.end();
      }
    }
    ar.value("violations", wd->violations_);
    ar.value("recoveries", wd->recoveries_);
    ar.value("degradations", wd->degradations_);
    ar.value("breaches", wd->breaches_);
  }
  ar.end();
}

// --- whole-machine schema + restore safety ---------------------------------

template <class Ar>
void Access::machine(Ar& ar, kernel::Kernel& k, inject::FaultInjector* inj,
                     invariant::InvariantWatchdog* wd) {
  ar.begin("machine");
  config(ar, k);
  if constexpr (Ar::reading) {
    // Teardown: release the old state into the OLD (still consistent)
    // physical memory before frames are overwritten.
    k.procs_.clear();
    for (auto& cp : k.cores_) {
      cp->runqueue = kernel::Kernel::RunQueue{};
      cp->runqueue.core_id = cp->id;
      cp->current.reset();
      cp->last_running.reset();
      cp->slice_used = 0;
    }
    k.active_core_ = 0;
    k.quantum_used_ = 0;
    k.pending_shootdowns_.clear();
    k.channel_waiters_.clear();
    k.timers_.clear();
    k.listen_ports_.clear();
    k.images_.clear();
    k.fs_ = kernel::FileSystem{};
    k.klog_.clear();
    k.detections_.clear();
    k.live_procs_ = 0;
  }
  phys(ar, k.pm_);
  // One machine group per core: its private MMU (both TLBs) and register
  // file. The config "cores" key already guaranteed matching counts.
  for (auto& cp : k.cores_) {
    ar.begin("core");
    u32 id = cp->id;
    ar.value("id", id);
    ar.check(id == cp->id, "core id mismatch");
    mmu(ar, cp->mmu);
    ar.begin("cpu");
    regs(ar, cp->cpu.regs());
    ar.end();
    ar.end();
  }
  stats(ar, k.stats_);
  Tables t;
  if constexpr (!Ar::reading) t = collect(k);
  objects(ar, t);
  fs(ar, k, t);
  images(ar, k);
  procs(ar, k, t);
  if constexpr (Ar::reading) {
    // Rebuild the derived kernel indexes the snapshot deliberately omits:
    // the port registry (every live ListenSock is held by >=1 fd, so the
    // object table is complete) and the timer wheel (wait_deadline is the
    // per-process authority).
    for (const auto& s : t.socks) {
      ar.check(k.listen_ports_.emplace(s->port, s).second,
               "duplicate listen port");
    }
    for (const auto& up : k.procs_) {
      if (up->wait_deadline != 0) {
        k.timers_.insert({up->wait_deadline, up->pid});
      }
    }
  }
  sched(ar, k);
  logs(ar, k);
  trace_state(ar, k);
  injector(ar, k, inj);
  watchdog(ar, wd);
  ar.end();
  if constexpr (Ar::reading) {
    // Host-side decode/block caches restart cold; the billing-identity
    // contract (fuzz-oracle enforced) makes a cold resume bit-identical in
    // simulated figures — only host wall-clock re-warms.
    for (auto& cp : k.cores_) {
      cp->cpu.decode_cache().clear();
      cp->cpu.block_cache().clear();
    }
  }
}

void Access::validate_consistency(kernel::Kernel& k) {
  // Every frame's restored refcount must equal exactly the references the
  // address spaces will release on teardown (root + second-level tables +
  // one per non-split mapping + both frames of each split pair). Equality
  // proves ~AddressSpace can never double-unref — i.e. a structurally
  // valid but semantically corrupt snapshot still can't break teardown.
  // Only frames below the watermark can hold a reference (phys() checked
  // that every serialized frame lies there), so a pfn at or above it is
  // out of range here as much as one beyond memory.
  const arch::PhysicalMemory& pm = k.pm_;
  const u32 fresh = pm.fresh_;
  std::vector<u32> expected(fresh, 0);
  const auto count = [&](u32 pfn, const char* what) {
    if (pfn >= fresh) throw SnapshotError(std::string(what) + " out of range");
    ++expected[pfn];
  };
  const auto entry = [](std::span<const u8> table, u32 i) {
    u32 v;
    std::memcpy(&v, table.data() + i * 4, 4);  // as PhysicalMemory::read32
    return arch::Pte{v};
  };
  try {
    for (const auto& up : k.procs_) {
      if (!up->as) continue;
      kernel::AddressSpace& as = *up->as;
      count(as.root_, "page-directory frame");
      const std::span<const u8> dir = pm.frame_bytes(as.root_);
      for (u32 di = 0; di < 1024; ++di) {
        const arch::Pte pde = entry(dir, di);
        if (!pde.present()) continue;
        count(pde.pfn(), "page-table frame");
        const std::span<const u8> table = pm.frame_bytes(pde.pfn());
        for (u32 ti = 0; ti < 1024; ++ti) {
          const arch::Pte pte = entry(table, ti);
          if (!pte.present()) continue;
          const u32 vpn = (di << 10) | ti;
          if (!as.split_pages_.contains(vpn)) {
            count(pte.pfn(), "mapped frame");
          }
        }
      }
      for (const auto& [vpn, pair] : as.split_pages_) {
        count(pair.code_frame, "split code frame");
        count(pair.data_frame, "split data frame");
      }
    }
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("restored page tables unreadable: ") +
                        e.what());
  }
  for (u32 p = 0; p < fresh; ++p) {
    if (expected[p] != pm.refcounts_[p]) {
      throw SnapshotError(
          "frame refcounts inconsistent with restored page tables (frame " +
          std::to_string(p) + ": expected " + std::to_string(expected[p]) +
          ", recorded " + std::to_string(pm.refcounts_[p]) + ")");
    }
  }
  // Listen-socket refcounts must equal the FdListen slots that reference
  // them — the count release_fd will decrement on teardown.
  std::map<const kernel::ListenSock*, int> listen_refs;
  for (const auto& up : k.procs_) {
    for (const kernel::FdEntry& e : up->fds) {
      if (const auto* l = std::get_if<kernel::FdListen>(&e)) {
        ++listen_refs[l->sock.get()];
      }
    }
  }
  for (const auto& [port, sock] : k.listen_ports_) {
    if (sock->refs != listen_refs[sock.get()]) {
      throw SnapshotError("listen-sock refcount inconsistent with fd table "
                          "(port " +
                          std::to_string(port) + ")");
    }
  }
}

void Access::neutralize(kernel::Kernel& k) {
  // A half-restored machine is unusable; make it safely destructible by
  // leaking simulated frames instead of walking possibly-corrupt tables.
  for (auto& up : k.procs_) {
    if (up && up->as) up->as->destroyed_ = true;
  }
  k.procs_.clear();
  for (auto& cp : k.cores_) {
    cp->runqueue = kernel::Kernel::RunQueue{};
    cp->runqueue.core_id = cp->id;
    cp->current.reset();
    cp->last_running.reset();
    cp->slice_used = 0;
  }
  k.active_core_ = 0;
  k.quantum_used_ = 0;
  k.pending_shootdowns_.clear();
  k.channel_waiters_.clear();
  k.timers_.clear();
  k.listen_ports_.clear();
  k.live_procs_ = 0;
}

void Access::save(std::ostream& os, kernel::Kernel& k,
                  inject::FaultInjector* inj, invariant::InvariantWatchdog* wd) {
  Writer ar(os);
  machine(ar, k, inj, wd);
  os.flush();
  if (!os) throw SnapshotError("write failed (stream error)");
}

void Access::restore(std::istream& is, kernel::Kernel& k,
                     inject::FaultInjector* inj,
                     invariant::InvariantWatchdog* wd) {
  try {
    Reader ar(is);
    machine(ar, k, inj, wd);
    validate_consistency(k);
  } catch (...) {
    neutralize(k);
    throw;
  }
}

void save_system(std::ostream& os, kernel::Kernel& k,
                 inject::FaultInjector* injector,
                 invariant::InvariantWatchdog* watchdog) {
  Access::save(os, k, injector, watchdog);
}

void restore_system(std::istream& is, kernel::Kernel& k,
                    inject::FaultInjector* injector,
                    invariant::InvariantWatchdog* watchdog) {
  Access::restore(is, k, injector, watchdog);
}

}  // namespace sm::snapshot

// --- Kernel member faces (defined here so the hook types are complete) -----

namespace sm::kernel {

void Kernel::save(std::ostream& os) {
  snapshot::Access::save(os, *this,
                         dynamic_cast<inject::FaultInjector*>(fault_source_),
                         dynamic_cast<invariant::InvariantWatchdog*>(
                             step_observer_));
}

void Kernel::restore(std::istream& is) {
  snapshot::Access::restore(is, *this,
                            dynamic_cast<inject::FaultInjector*>(fault_source_),
                            dynamic_cast<invariant::InvariantWatchdog*>(
                                step_observer_));
}

}  // namespace sm::kernel
