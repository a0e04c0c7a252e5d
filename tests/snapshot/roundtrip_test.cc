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

using arch::u64;
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

}  // namespace
}  // namespace sm
