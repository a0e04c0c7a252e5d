// Versioned, self-describing binary archive for machine snapshots.
//
// The stream is a flat sequence of tagged fields — [kind][name][payload] —
// wrapped in named groups, preceded by an 8-byte magic and a format
// version. Self-description buys three things at once:
//
//   1. save/restore share ONE schema function per component (Writer and
//      Reader expose the same `value(name, T&)` signature, so the schema
//      is a template over the archive type and cannot drift between the
//      two directions);
//   2. `smsnap dump`/`smsnap diff` walk a snapshot generically, field by
//      field, with no schema at all — every field carries its own name;
//   3. corruption is detected structurally: a flipped kind byte, a
//      mismatched field name, a length running past the end of the stream
//      or over its cap all throw SnapshotError with the offending field's
//      path — never undefined behaviour (the round-trip tests run this
//      under ASan/UBSan).
//
// Integers are little-endian fixed width. Deliberately NO floating-point
// field kind: doubles are stored as their IEEE-754 bit pattern (u64) so
// snapshots are bit-exact and text dumps never round.
#pragma once

#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "arch/types.h"

namespace sm::snapshot {

using arch::u32;
using arch::u64;
using arch::u8;

// Any structural problem with a snapshot stream: bad magic, wrong version,
// field kind/name mismatch, truncation, or a length over its cap.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

inline constexpr char kMagic[8] = {'S', 'M', 'S', 'N', 'A', 'P', '\x1a', 0};
// v2: SMP — per-core machine groups (MMU/TLBs, regs, runqueue, scheduler
// slice state), active core, pending shootdowns, per-core watchdog version
// vectors, a core byte on trace events, and the cores/ipi-cost config keys.
// v3: a zombie's exit_digest is the per-page digest (SHA-256 over each
// page's va and SHA-256 of its bytes), so v2 digests no longer compare.
// v4: the stats record carries the SMP counters (ipi_sends, ipi_acks,
// tlb_shootdowns, work_steals); v3 restores reset them to zero.
// v5: physical memory stores its free pool as a watermark ("fresh") plus
// the stack of freed frames ("recycled") instead of a whole free list, so
// a snapshot's size no longer grows with the machine's RAM.
inline constexpr u32 kFormatVersion = 5;

// Field kinds on the wire.
enum class FieldKind : u8 {
  kU8 = 1,
  kU32 = 2,
  kU64 = 3,
  kBool = 4,
  kStr = 5,    // u32 length + bytes
  kBytes = 6,  // u32 length + raw bytes
  kGroupBegin = 7,
  kGroupEnd = 8,
};

// Hard caps a well-formed snapshot never exceeds; a corrupt length field
// fails fast instead of asking the allocator for garbage.
inline constexpr u32 kMaxStrLen = 1u << 20;
inline constexpr u32 kMaxBytesLen = 1u << 28;  // 256 MiB

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(&os) {
    os_->write(kMagic, sizeof kMagic);
    raw32(kFormatVersion);
  }

  static constexpr bool reading = false;

  void begin(const char* name) { tag(FieldKind::kGroupBegin, name); }
  void end() { tag(FieldKind::kGroupEnd, ""); }

  void value(const char* name, u8& v) {
    tag(FieldKind::kU8, name);
    os_->put(static_cast<char>(v));
  }
  void value(const char* name, u32& v) {
    tag(FieldKind::kU32, name);
    raw32(v);
  }
  void value(const char* name, u64& v) {
    tag(FieldKind::kU64, name);
    raw64(v);
  }
  void value(const char* name, bool& v) {
    tag(FieldKind::kBool, name);
    os_->put(v ? 1 : 0);
  }
  void value(const char* name, std::string& v) {
    tag(FieldKind::kStr, name);
    raw32(static_cast<u32>(v.size()));
    os_->write(v.data(), static_cast<std::streamsize>(v.size()));
  }
  void value(const char* name, std::vector<u8>& v) {
    bytes(name, v);
  }
  // Bulk payload (frame contents, packed event arrays).
  void bytes(const char* name, std::span<const u8> v) {
    tag(FieldKind::kBytes, name);
    raw32(static_cast<u32>(v.size()));
    os_->write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size()));
  }

  // Writer-side check is a no-op: the live state is trusted.
  void check(bool, const char*) {}

 private:
  void tag(FieldKind k, const char* name);
  void raw32(u32 v) {
    char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                 static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
    os_->write(b, 4);
  }
  void raw64(u64 v) {
    raw32(static_cast<u32>(v));
    raw32(static_cast<u32>(v >> 32));
  }

  std::ostream* os_;
};

// One dumped field: the dotted group path + name, and a printable value.
struct DumpLine {
  std::string key;    // e.g. "snapshot.procs.proc[2].regs.pc"
  std::string value;  // e.g. "0x00401038" or "bytes[4096] sha256=ab12..."
};

// Restore side. The constructor reads the whole stream into one buffer;
// every field is then parsed in place from memory, with a bounds check on
// each access, so a truncated or corrupt stream is a SnapshotError, never
// a read past the end.
class Reader {
 public:
  // Reads `is` to its end, then validates magic + version.
  explicit Reader(std::istream& is);

  static constexpr bool reading = true;

  void begin(const char* name) { expect(FieldKind::kGroupBegin, name); }
  void end() { expect(FieldKind::kGroupEnd, ""); }

  void value(const char* name, u8& v) {
    expect(FieldKind::kU8, name);
    v = get8();
  }
  void value(const char* name, u32& v) {
    expect(FieldKind::kU32, name);
    v = raw32();
  }
  void value(const char* name, u64& v) {
    expect(FieldKind::kU64, name);
    v = raw64();
  }
  void value(const char* name, bool& v) {
    expect(FieldKind::kBool, name);
    v = get8() != 0;
  }
  void value(const char* name, std::string& v);
  void value(const char* name, std::vector<u8>& v) {
    const std::span<const u8> b = bytes_view(name);
    v.assign(b.begin(), b.end());
  }
  // A bytes field as a view into the reader's buffer, valid while the
  // Reader lives.
  std::span<const u8> bytes_view(const char* name);
  // Reads a bytes field that must be exactly out.size() long (fixed-size
  // payloads like a physical frame).
  void bytes_into(const char* name, std::span<u8> out);

  // Validation helper for schema-level constraints (counts, ranges).
  void check(bool ok, const char* what) {
    if (!ok) fail(std::string("validation failed: ") + what);
  }

  [[noreturn]] void fail(const std::string& why);

  // The little-endian u32 at b (the wire's integer encoding).
  static u32 load32(const u8* b) {
    return static_cast<u32>(b[0]) | (static_cast<u32>(b[1]) << 8) |
           (static_cast<u32>(b[2]) << 16) | (static_cast<u32>(b[3]) << 24);
  }

 private:
  friend std::vector<DumpLine> dump(std::istream& is);

  // The next n bytes, or nullptr (consuming nothing) if fewer remain.
  const u8* take(std::size_t n) {
    if (n > static_cast<std::size_t>(end_ - pos_)) return nullptr;
    const u8* p = pos_;
    pos_ += n;
    return p;
  }
  const u8* need(std::size_t n, const char* what) {
    const u8* p = take(n);
    if (p == nullptr) fail(std::string("truncated stream reading ") + what);
    return p;
  }
  // The tag is [kind][name length][name]; a match consumes it in place.
  void expect(FieldKind k, const char* name) {
    const std::size_t n = std::strlen(name);
    if (static_cast<std::size_t>(end_ - pos_) >= 2 + n &&
        pos_[0] == static_cast<u8>(k) && pos_[1] == n &&
        std::memcmp(pos_ + 2, name, n) == 0) {
      last_field_ = {reinterpret_cast<const char*>(pos_ + 2), n};
      pos_ += 2 + n;
      return;
    }
    expect_slow(k, name);
  }
  void expect_slow(FieldKind k, const char* name);
  u8 get8() { return *need(1, "value"); }
  u32 raw32() { return load32(need(4, "value")); }
  u64 raw64() {
    const u64 lo = raw32();
    const u64 hi = raw32();
    return lo | (hi << 32);
  }

  std::unique_ptr<u8[]> buf_;
  const u8* pos_ = nullptr;
  const u8* end_ = nullptr;
  std::string_view last_field_;  // for error context; points into buf_
};

// Generic schema-free walk of a whole snapshot stream (smsnap dump).
// Throws SnapshotError on any structural problem.
std::vector<DumpLine> dump(std::istream& is);

// Field-by-field comparison of two snapshot streams (smsnap diff):
// returns human-readable difference lines, empty when byte-equivalent at
// the field level. Fields present in only one snapshot are reported too.
std::vector<std::string> diff(std::istream& a, std::istream& b);

}  // namespace sm::snapshot
