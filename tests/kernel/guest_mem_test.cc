// Page-granular kernel copies (GuestMem) and the per-page exit digest
// (Kernel::final_memory_digest, DESIGN.md §10).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kernel/address_space.h"
#include "kernel/guest_mem.h"
#include "support/guest_runner.h"

namespace sm::kernel {
namespace {

using arch::kPageSize;
using arch::PhysicalMemory;
using arch::Pte;
using arch::u8;

constexpr u32 kLo = 0x10000;  // two adjacent split pages: kLo, kLo + 4 KiB
constexpr u32 kEdge = kLo + kPageSize - 8;

// Two adjacent memory-split pages, every frame zeroed.
struct SplitFixture {
  PhysicalMemory pm{64};
  AddressSpace as{pm};
  SplitPair pairs[2];

  SplitFixture() {
    Vma v;
    v.start = kLo;
    v.end = kLo + 2 * kPageSize;
    v.prot = 3;
    as.add_vma(v);
    for (u32 i = 0; i < 2; ++i) {
      pairs[i] = {pm.alloc_frame(), pm.alloc_frame()};
      const u32 va = kLo + i * kPageSize;
      as.pt().set(va,
                  Pte::make(pairs[i].code_frame, Pte::kPresent | Pte::kSplit));
      as.register_split(arch::vpn_of(va), pairs[i]);
    }
  }

  // The 8 bytes at each side of the page edge in one view's frames.
  std::vector<u8> edge_bytes(bool code) {
    std::vector<u8> out;
    for (u32 i = 0; i < 2; ++i) {
      const u32 f = code ? pairs[i].code_frame : pairs[i].data_frame;
      const auto bytes = std::as_const(pm).frame_bytes(f);
      const auto first = i == 0 ? bytes.end() - 8 : bytes.begin();
      out.insert(out.end(), first, first + 8);
    }
    return out;
  }
};

std::vector<u8> pattern(u8 seed) {
  std::vector<u8> p(16);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<u8>(seed + i);
  return p;
}

TEST(GuestMemPages, CrossPageWriteAndReadPerView) {
  const std::vector<u8> zero(16, 0);
  for (View view : {View::kData, View::kCode, View::kBoth}) {
    SplitFixture fx;
    GuestMem gm(fx.as);
    const std::vector<u8> in = pattern(0xA0);
    ASSERT_TRUE(gm.write(kEdge, in, view));
    const bool to_data = view != View::kCode;
    const bool to_code = view != View::kData;
    EXPECT_EQ(fx.edge_bytes(false), to_data ? in : zero);
    EXPECT_EQ(fx.edge_bytes(true), to_code ? in : zero);

    std::vector<u8> out(16);
    ASSERT_TRUE(gm.read(kEdge, out, View::kData));
    EXPECT_EQ(out, to_data ? in : zero);
    ASSERT_TRUE(gm.read(kEdge, out, View::kCode));
    EXPECT_EQ(out, to_code ? in : zero);
    // kBoth reads the data view.
    ASSERT_TRUE(gm.read(kEdge, out, View::kBoth));
    EXPECT_EQ(out, to_data ? in : zero);
  }
}

TEST(GuestMemPages, WriteBumpsEachTouchedFrameOnce) {
  SplitFixture fx;
  GuestMem gm(fx.as);
  const u32 d0 = fx.pairs[0].data_frame;
  const u32 d1 = fx.pairs[1].data_frame;
  const u32 c0 = fx.pairs[0].code_frame;
  const arch::u64 g0 = fx.pm.generation(d0);
  const arch::u64 g1 = fx.pm.generation(d1);
  const arch::u64 gc = fx.pm.generation(c0);
  ASSERT_TRUE(gm.write(kEdge, pattern(1), View::kData));
  EXPECT_EQ(fx.pm.generation(d0), g0 + 1);
  EXPECT_EQ(fx.pm.generation(d1), g1 + 1);
  EXPECT_EQ(fx.pm.generation(c0), gc);  // code view untouched
}

TEST(GuestMemPages, WriteIntoUnmappedSecondPageChangesNothing) {
  SplitFixture fx;
  fx.as.unmap_page(kLo + kPageSize);
  GuestMem gm(fx.as);
  const u32 d0 = fx.pairs[0].data_frame;
  const u32 c0 = fx.pairs[0].code_frame;
  const std::vector<u8> before_data(fx.pm.frame_bytes(d0).begin(),
                                    fx.pm.frame_bytes(d0).end());
  const arch::u64 gd = fx.pm.generation(d0);
  const arch::u64 gc = fx.pm.generation(c0);
  for (View view : {View::kData, View::kCode, View::kBoth}) {
    EXPECT_FALSE(gm.write(kEdge, pattern(0xEE), view));
  }
  const auto after = std::as_const(fx.pm).frame_bytes(d0);
  EXPECT_TRUE(std::ranges::equal(after, before_data));
  EXPECT_TRUE(std::ranges::all_of(std::as_const(fx.pm).frame_bytes(c0),
                                  [](u8 b) { return b == 0; }));
  EXPECT_EQ(fx.pm.generation(d0), gd);
  EXPECT_EQ(fx.pm.generation(c0), gc);
  std::vector<u8> out(16);
  EXPECT_FALSE(gm.read(kEdge, out));
}

TEST(GuestMemPages, ReadCstrAcrossPageEdge) {
  SplitFixture fx;
  GuestMem gm(fx.as);
  const std::string s = "split-memory";  // 12 chars: 8 before the edge
  std::vector<u8> bytes(s.begin(), s.end());
  bytes.push_back(0);
  ASSERT_TRUE(gm.write(kEdge, bytes, View::kData));
  // The code view holds different bytes; read_cstr reads the data view.
  const std::vector<u8> junk(bytes.size(), 'x');
  ASSERT_TRUE(gm.write(kEdge, junk, View::kCode));
  const auto got = gm.read_cstr(kEdge);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, s);
  // max_len bounds the scan on the far side of the edge too.
  EXPECT_FALSE(gm.read_cstr(kEdge, 12).has_value());
  EXPECT_EQ(gm.read_cstr(kEdge, 13), s);
}

TEST(GuestMemPages, ReadCstrUnterminatedAtUnmappedPage) {
  SplitFixture fx;
  fx.as.unmap_page(kLo + kPageSize);
  GuestMem gm(fx.as);
  const std::vector<u8> text(8, 'a');
  ASSERT_TRUE(gm.write(kEdge, text, View::kData));
  EXPECT_FALSE(gm.read_cstr(kEdge).has_value());
  // Terminated before the edge is still found.
  const u8 nul = 0;
  ASSERT_TRUE(gm.write(kEdge + 7, {&nul, 1}, View::kData));
  EXPECT_EQ(gm.read_cstr(kEdge), std::string(7, 'a'));
}

// --- exit digest -------------------------------------------------------------

// Touches one bss byte, then blocks reading the channel; exits once the
// host sends a byte. The bss is 64 KiB and mostly never touched, and the
// .data tail leaves its last page only partly covered by backing bytes.
constexpr const char* kBssHeavy = R"(
_start:
  movi r4, big+8192
  movi r2, 0x5A
  storeb [r4], r2
  movi r0, SYS_READ
  movi r1, 0
  movi r2, inbuf
  movi r3, 1
  syscall
  movi r1, 0
  movi r0, SYS_EXIT
  syscall
.data
pad: .space 4100
tail: .byte 7, 8, 9
.bss
inbuf: .space 4
big: .space 65536
)";

testing::GuestRun start_blocked(core::ProtectionMode mode,
                                bool eager = false) {
  KernelConfig cfg;
  cfg.eager_load = eager;
  auto r = testing::start_guest(kBssHeavy, mode, core::ResponseMode::kBreak,
                                cfg);
  EXPECT_EQ(r.k->run(10'000'000), Kernel::RunResult::kAllBlocked);
  return r;
}

const Vma& last_vma_of(Process& p, VmaKind kind) {
  const Vma* found = nullptr;
  for (const Vma& v : p.as->vmas()) {
    if (v.kind == kind && (found == nullptr || v.start > found->start)) {
      found = &v;
    }
  }
  if (found == nullptr) throw std::runtime_error("no VMA of the asked kind");
  return *found;
}

bool present(Process& p, u32 va) { return p.as->pt().get(va).present(); }

TEST(ExitDigest, EagerAndDemandPagedAgreeOnBssHeavyProgram) {
  for (auto mode : {core::ProtectionMode::kSplitAll,
                    core::ProtectionMode::kNone}) {
    image::Digest d[2];
    for (bool eager : {false, true}) {
      auto r = start_blocked(mode, eager);
      r.chan->host_write(std::string("x"));
      EXPECT_EQ(r.k->run(10'000'000), Kernel::RunResult::kAllExited);
      ASSERT_TRUE(r.final_digest().has_value());
      d[eager] = *r.final_digest();
    }
    EXPECT_EQ(d[0], d[1]) << "mode " << static_cast<int>(mode);
  }
}

TEST(ExitDigest, PresentZeroPageEqualsAbsentPage) {
  auto r = start_blocked(core::ProtectionMode::kSplitAll);
  Process& p = r.proc();
  const Vma& bss = last_vma_of(p, VmaKind::kBss);
  const u32 last = bss.end - kPageSize;
  ASSERT_FALSE(present(p, last));
  const image::Digest absent = r.k->final_memory_digest(p);
  ASSERT_TRUE(r.k->ensure_mapped(p, last, 1));
  ASSERT_TRUE(present(p, last));
  EXPECT_EQ(r.k->final_memory_digest(p), absent);
}

TEST(ExitDigest, OneByteInLastBssOrStackPageChangesDigest) {
  auto r = start_blocked(core::ProtectionMode::kSplitAll);
  Process& p = r.proc();
  for (VmaKind kind : {VmaKind::kBss, VmaKind::kStack}) {
    const Vma& vma = last_vma_of(p, kind);
    const u32 va = vma.end - 1;
    ASSERT_TRUE(r.k->ensure_mapped(p, va, 1));
    const image::Digest base = r.k->final_memory_digest(p);
    GuestMem gm = r.k->mem_of(p);
    u8 b = 0;
    ASSERT_TRUE(gm.read(va, {&b, 1}));
    const u8 flipped = b ^ 1;
    ASSERT_TRUE(gm.write(va, {&flipped, 1}));
    EXPECT_NE(r.k->final_memory_digest(p), base) << vma.name;
    ASSERT_TRUE(gm.write(va, {&b, 1}));
    EXPECT_EQ(r.k->final_memory_digest(p), base) << vma.name;
  }
}

TEST(ExitDigest, PartlyBackedPageHashesAsItsInitialBytes) {
  auto r = start_blocked(core::ProtectionMode::kSplitAll);
  Process& p = r.proc();
  const Vma& data = last_vma_of(p, VmaKind::kData);
  ASSERT_NE(data.backing, nullptr);
  const u32 backed_end = data.start + static_cast<u32>(data.backing->size()) -
                         data.backing_offset;
  ASSERT_NE(backed_end % kPageSize, 0u) << "backing must end mid-page";
  const u32 page = arch::page_floor(backed_end);
  ASSERT_LT(page, data.end);
  ASSERT_TRUE(data.backed(page));
  ASSERT_FALSE(data.backed(page + kPageSize));
  ASSERT_FALSE(present(p, page));
  const image::Digest absent = r.k->final_memory_digest(p);
  ASSERT_TRUE(r.k->ensure_mapped(p, page, 1));
  ASSERT_TRUE(present(p, page));
  EXPECT_EQ(r.k->final_memory_digest(p), absent);
  // The tail bytes are non-zero, so hashing the page as all-zero (as an
  // unbacked absent page) would have to differ.
  std::vector<u8> bytes(kPageSize);
  ASSERT_TRUE(r.k->mem_of(p).read(page, bytes));
  EXPECT_FALSE(std::ranges::all_of(bytes, [](u8 b) { return b == 0; }));
}

}  // namespace
}  // namespace sm::kernel
