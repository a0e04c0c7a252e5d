// Snapshot round-trip fidelity and hostile-input hardening (ISSUE
// satellite): save→restore→save must be byte-identical, and a damaged
// stream — truncated anywhere, any single bit flipped, wrong magic or
// version, config mismatch — must be rejected with snapshot::SnapshotError
// carrying a useful message, never undefined behaviour. The ci preset
// runs this file under ASan/UBSan, which is what makes "never UB" a
// checked claim rather than a hope.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "snapshot/replay_support.h"
#include "snapshot/serializer.h"

namespace sm {
namespace {

using arch::u32;
using arch::u64;
using arch::u8;
using core::ProtectionMode;
using core::ResponseMode;
using testing::restore_bytes;
using testing::save_bytes;
using testing::snapshot_test_cfg;
using testing::start_guest;

// Fork + pipe + console traffic: a mid-run snapshot of this program
// carries a rich object graph (two processes, shared COW pages, a pipe
// with a blocked reader, fd tables with shared refs).
const char* kForkPipeBody = R"(
_start:
  movi r0, SYS_PIPE
  movi r1, fds
  syscall
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  movi r4, fds
  load r1, [r4]
  movi r0, SYS_READ
  movi r2, buf
  movi r3, 4
  syscall
  movi r0, SYS_WRITE
  movi r1, 1
  movi r2, buf
  movi r3, 4
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
child:
  movi r0, SYS_YIELD
  syscall
  movi r5, 0x6b6f6b6f
  movi r4, buf
  store [r4], r5
  movi r4, fds
  load r1, [r4+4]
  movi r0, SYS_WRITE
  movi r2, buf
  movi r3, 4
  syscall
  movi r0, SYS_EXIT
  movi r1, 7
  syscall
.bss
fds: .space 8
buf: .space 4
)";

testing::GuestRun boot(const kernel::KernelConfig& cfg) {
  return start_guest(kForkPipeBody, ProtectionMode::kSplitAll,
                     ResponseMode::kBreak, cfg);
}

// A mid-run snapshot with both processes alive and the pipe in play.
std::string mid_run_blob(const kernel::KernelConfig& cfg, u64 at = 40) {
  auto r = boot(cfg);
  r.k->run(at);
  return save_bytes(*r.k);
}

TEST(SnapshotRoundtrip, SaveRestoreSaveIsByteIdentical) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  // Sweep several machine states, from boot through mid-fork to exited.
  for (u64 at : {u64{0}, u64{10}, u64{40}, u64{100'000}}) {
    const std::string first = mid_run_blob(cfg, at);
    auto r = boot(cfg);
    restore_bytes(*r.k, first);
    const std::string second = save_bytes(*r.k);
    EXPECT_EQ(first, second) << "snapshot@" << at
                             << ": restore lost or re-derived state";
  }
}

// The generic walkers must traverse a real snapshot and agree a snapshot
// differs from itself in zero fields — and pinpoint a field when two
// genuinely different machines are compared.
TEST(SnapshotRoundtrip, DumpWalksAndDiffPinpoints) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string a = mid_run_blob(cfg, 10);
  const std::string b = mid_run_blob(cfg, 40);

  std::istringstream ia(a);
  const auto lines = snapshot::dump(ia);
  EXPECT_GT(lines.size(), 100u);  // a whole machine is not a handful of fields

  std::istringstream a1(a), a2(a);
  EXPECT_TRUE(snapshot::diff(a1, a2).empty());

  std::istringstream da(a), db(b);
  const auto d = snapshot::diff(da, db);
  EXPECT_FALSE(d.empty()) << "different machines diffed equal";
}

TEST(SnapshotRoundtrip, TruncationAlwaysRejected) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);
  ASSERT_GT(blob.size(), 64u);

  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < 24; ++i) cuts.push_back(i);  // header region
  for (std::size_t i = 1; i < 24; ++i)
    cuts.push_back(i * blob.size() / 24);  // spread through the body
  cuts.push_back(blob.size() - 1);

  for (std::size_t cut : cuts) {
    auto r = boot(cfg);
    std::istringstream is(blob.substr(0, cut));
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError)
        << "truncation at byte " << cut << " was not rejected";
  }
}

TEST(SnapshotRoundtrip, SingleBitFlipsNeverUndefined) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);

  // Every bit of the header plus a deterministic spread through the body.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 16; ++i) offsets.push_back(i);
  for (std::size_t i = 1; i < 48; ++i)
    offsets.push_back(i * blob.size() / 48);

  int rejected = 0, accepted = 0;
  for (std::size_t off : offsets) {
    std::string bad = blob;
    bad[off] = static_cast<char>(bad[off] ^ (1u << (off % 8)));
    auto r = boot(cfg);
    std::istringstream is(bad);
    // A flip may land in a value payload and yield a different-but-valid
    // machine (restore succeeds), or break structure/consistency
    // (SnapshotError). Anything else — any other exception type, or a
    // sanitizer report — is the bug this test exists to catch.
    try {
      r.k->restore(is);
      ++accepted;
    } catch (const snapshot::SnapshotError&) {
      ++rejected;
    }
  }
  // Structural bytes dominate the stream (tags + field names), so most
  // flips must be caught structurally.
  EXPECT_GT(rejected, 0);
  SUCCEED() << rejected << " flips rejected, " << accepted
            << " landed in value payloads";
}

TEST(SnapshotRoundtrip, BadMagicAndVersionRejected) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);

  {
    std::string bad = blob;
    bad[0] = 'X';
    auto r = boot(cfg);
    std::istringstream is(bad);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
  {
    std::string bad = blob;
    bad[8] = static_cast<char>(snapshot::kFormatVersion + 1);  // version LE
    auto r = boot(cfg);
    std::istringstream is(bad);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
  {
    // An older stream (its zombies' exit digests have another definition)
    // is refused too, never resumed.
    std::string old = blob;
    old[8] = static_cast<char>(snapshot::kFormatVersion - 1);
    auto r = boot(cfg);
    std::istringstream is(old);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
  {
    auto r = boot(cfg);
    std::istringstream is("");
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
}

// restore() is an in-place reset of a kernel with the SAME configuration
// and engine; a mismatched machine must be refused, not coerced.
TEST(SnapshotRoundtrip, MismatchedMachineRejected) {
  const std::string blob = mid_run_blob(snapshot_test_cfg());

  {
    kernel::KernelConfig other = snapshot_test_cfg();
    other.phys_frames = 1024;  // different RAM size
    auto r = boot(other);
    std::istringstream is(blob);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
  {
    auto r = start_guest(kForkPipeBody, ProtectionMode::kNone,
                         ResponseMode::kBreak, snapshot_test_cfg());
    std::istringstream is(blob);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError)
        << "snapshot of a split-protected machine restored into an "
           "unprotected kernel";
  }
}

// The kernel's trace record says whether a sink was saved. The config
// record (already matched) fixes whether this kernel has one, so a trace
// record that disagrees with it is malformed input, traced or not.
TEST(SnapshotRoundtrip, TraceRecordDisagreeingWithConfigRejected) {
  for (const bool traced : {false, true}) {
    const kernel::KernelConfig cfg = snapshot_test_cfg(traced);
    std::string blob = mid_run_blob(cfg);
    // Group "trace", then its first field: the bool "present".
    const std::string field("\x07\x05trace\x04\x07present", 16);
    const std::size_t at = blob.find(field);
    ASSERT_NE(at, std::string::npos);
    blob[at + field.size()] ^= 1;
    auto r = boot(cfg);
    std::istringstream is(blob);
    try {
      r.k->restore(is);
      ADD_FAILURE() << "restored a trace record that contradicts the config"
                    << " (traced=" << traced << ")";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("trace sink presence"),
                std::string::npos)
          << e.what();
    }
  }
}

// A child that dirties pages and exits, reaped by a parent that then
// demand-pages three more: a snapshot taken once the child has exited
// holds its frames on the recycled stack, and the suffix allocates them.
const char* kReapBody = R"(
_start:
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  mov r1, r0
  movi r0, SYS_WAITPID
  syscall
  movi r4, buf
  movi r5, 1
  store [r4], r5
  addi r4, 4096
  store [r4], r5
  addi r4, 4096
  store [r4], r5
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
child:
  movi r4, buf
  movi r5, 2
  store [r4], r5
  addi r4, 4096
  store [r4], r5
  movi r0, SYS_EXIT
  movi r1, 3
  syscall
.bss
buf: .space 16384
)";

bool child_exited(kernel::Kernel& k) {
  const kernel::Process* c = k.process(2);
  return c != nullptr && c->state == kernel::ProcState::kZombie;
}

// Offset of the first element of the packed u32 sequence `name` in a
// snapshot, with its element count; npos when the field is absent.
std::size_t u32_seq_at(const std::string& blob, const std::string& name,
                       std::size_t& count) {
  const std::string tag = std::string(1, '\x06') +
                          static_cast<char>(name.size()) + name;
  const std::size_t at = blob.find(tag);
  if (at == std::string::npos) return at;
  const std::size_t len = at + tag.size();
  count = (static_cast<u8>(blob[len]) | static_cast<u8>(blob[len + 1]) << 8 |
           static_cast<u8>(blob[len + 2]) << 16 |
           static_cast<std::size_t>(static_cast<u8>(blob[len + 3])) << 24) /
          4;
  return len + 4;
}

void put32(std::string& blob, std::size_t at, u32 v) {
  for (int i = 0; i < 4; ++i) blob[at + i] = static_cast<char>(v >> (8 * i));
}

u32 get32(const std::string& blob, std::size_t at) {
  u32 v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | static_cast<u8>(blob[at + i]);
  return v;
}

// Every free-pool index must name one frame below the watermark, once.
// A repeated index passed every check of the v4 free list, and the
// suffix run then handed one frame to two owners and died unreffing it.
TEST(SnapshotRoundtrip, RecycledIndicesMustNameOneFrameOnce) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const auto boot_reap = [&] {
    return start_guest(kReapBody, ProtectionMode::kSplitAll,
                       ResponseMode::kBreak, cfg);
  };
  auto src = boot_reap();
  // Step until the child has exited and freed its address space.
  for (int i = 0; i < 1000 && !child_exited(*src.k); ++i) src.k->run(1);
  ASSERT_TRUE(child_exited(*src.k));
  const std::string blob = save_bytes(*src.k);
  std::size_t n = 0;
  const std::size_t at = u32_seq_at(blob, "recycled", n);
  ASSERT_NE(at, std::string::npos);
  ASSERT_GE(n, 2u);
  const std::string fresh_tag("\x02\x05" "fresh", 7);
  const std::size_t fresh_pos = blob.find(fresh_tag);
  ASSERT_NE(fresh_pos, std::string::npos);
  const u32 fresh = get32(blob, fresh_pos + fresh_tag.size());

  {
    // The intact stream restores, and the parent runs to its clean exit.
    auto r = boot_reap();
    restore_bytes(*r.k, blob);
    r.k->run(100'000);
    EXPECT_EQ(r.proc().exit_code, 0u);
  }
  const auto rejected = [&](const std::string& bad, const char* why) {
    auto r = boot_reap();
    std::istringstream is(bad);
    try {
      r.k->restore(is);
      ADD_FAILURE() << "restored a recycled stack with " << why;
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("recycled"), std::string::npos)
          << e.what();
    }
  };
  {
    // The entry below the top takes the top's value.
    std::string bad = blob;
    put32(bad, at + (n - 2) * 4, get32(blob, at + (n - 1) * 4));
    rejected(bad, "a repeated entry");
  }
  {
    std::string bad = blob;
    put32(bad, at, fresh);
    rejected(bad, "an entry at the watermark");
  }
  {
    std::string bad = blob;
    put32(bad, at + (n - 1) * 4, cfg.phys_frames - 1);
    rejected(bad, "an entry above the watermark");
  }
}

// The free pool is stored as a watermark plus the freed frames, so a
// machine's snapshot does not grow with RAM it never touched.
TEST(SnapshotRoundtrip, SizeDoesNotDependOnRamSize) {
  kernel::KernelConfig small = snapshot_test_cfg();
  small.phys_frames = 1024;
  kernel::KernelConfig large = snapshot_test_cfg();
  large.phys_frames = kernel::KernelConfig{}.phys_frames;
  ASSERT_EQ(large.phys_frames, 16384u);
  for (u64 at : {u64{0}, u64{40}}) {
    EXPECT_EQ(mid_run_blob(small, at).size(), mid_run_blob(large, at).size())
        << "snapshot@" << at;
  }
}

}  // namespace
}  // namespace sm
