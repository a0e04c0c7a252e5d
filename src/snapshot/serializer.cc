#include "snapshot/serializer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "image/sha256.h"

namespace sm::snapshot {

namespace {

const char* kind_name(FieldKind k) {
  switch (k) {
    case FieldKind::kU8: return "u8";
    case FieldKind::kU32: return "u32";
    case FieldKind::kU64: return "u64";
    case FieldKind::kBool: return "bool";
    case FieldKind::kStr: return "str";
    case FieldKind::kBytes: return "bytes";
    case FieldKind::kGroupBegin: return "group";
    case FieldKind::kGroupEnd: return "end";
  }
  return "?";
}

std::string hex64(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void Writer::tag(FieldKind k, const char* name) {
  const std::size_t n = std::strlen(name);
  os_->put(static_cast<char>(k));
  os_->put(static_cast<char>(n));  // field names are short by construction
  os_->write(name, static_cast<std::streamsize>(n));
}

Reader::Reader(std::istream& is) {
  // One pass over the stream into one buffer. A stream that knows its
  // remaining length (string and blob streams do) is read in one go.
  const std::streamsize avail = is.rdbuf() ? is.rdbuf()->in_avail() : 0;
  std::size_t cap = avail > 0 ? static_cast<std::size_t>(avail) : 1u << 16;
  std::size_t size = 0;
  buf_ = std::make_unique_for_overwrite<u8[]>(cap);
  for (;;) {
    is.read(reinterpret_cast<char*>(buf_.get() + size),
            static_cast<std::streamsize>(cap - size));
    size += static_cast<std::size_t>(is.gcount());
    if (size < cap || is.peek() == std::istream::traits_type::eof()) break;
    auto grown = std::make_unique_for_overwrite<u8[]>(cap * 2);
    std::memcpy(grown.get(), buf_.get(), size);
    buf_ = std::move(grown);
    cap *= 2;
  }
  pos_ = buf_.get();
  end_ = pos_ + size;

  if (std::memcmp(need(sizeof kMagic, "magic"), kMagic, sizeof kMagic) != 0) {
    fail("bad magic (not a snapshot file)");
  }
  const u32 version = raw32();
  if (version != kFormatVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (expected " + std::to_string(kFormatVersion) + ")");
  }
}

void Reader::fail(const std::string& why) {
  std::string ctx = why;
  if (!last_field_.empty()) {
    ctx += " (after field '" + std::string(last_field_) + "')";
  }
  throw SnapshotError(ctx);
}

void Reader::expect_slow(FieldKind k, const char* name) {
  const u8 got_kind = *need(1, "field kind");
  const u8 name_len = *need(1, "field name length");
  const std::string_view got_name(
      reinterpret_cast<const char*>(need(name_len, "field name")), name_len);
  if (got_kind != static_cast<u8>(k) || got_name != name) {
    fail("expected " + std::string(kind_name(k)) + " '" + name + "', found " +
         kind_name(static_cast<FieldKind>(got_kind)) + " '" +
         std::string(got_name) + "'");
  }
  last_field_ = got_name;
}

void Reader::value(const char* name, std::string& v) {
  expect(FieldKind::kStr, name);
  const u32 n = raw32();
  if (n > kMaxStrLen) fail("string length " + std::to_string(n) + " over cap");
  v.assign(reinterpret_cast<const char*>(need(n, "string payload")), n);
}

std::span<const u8> Reader::bytes_view(const char* name) {
  expect(FieldKind::kBytes, name);
  const u32 n = raw32();
  if (n > kMaxBytesLen) fail("bytes length " + std::to_string(n) + " over cap");
  return {need(n, "bytes payload"), n};
}

void Reader::bytes_into(const char* name, std::span<u8> out) {
  expect(FieldKind::kBytes, name);
  const u32 n = raw32();
  if (n != out.size()) {
    fail("bytes field '" + std::string(name) + "' length " +
         std::to_string(n) + " != expected " + std::to_string(out.size()));
  }
  std::memcpy(out.data(), need(n, "bytes payload"), n);
}

std::vector<DumpLine> dump(std::istream& is) {
  // Walks the wire without a schema: every field carries its own kind and
  // name, so the only shared knowledge is the TLV layout.
  Reader r(is);  // reads the stream and validates magic + version
  std::vector<DumpLine> lines;
  std::vector<std::string> path{"snapshot_root"};
  // Sibling-name disambiguation: repeated names within one parent group
  // get a [i] suffix so dump keys are unique and diff can align on them.
  std::vector<std::map<std::string, u32>> seen(1);

  for (;;) {
    const u8* kind_b = r.take(1);
    if (kind_b == nullptr) {
      if (path.size() == 1) break;  // clean EOF at top level
      throw SnapshotError("truncated stream: " +
                          std::to_string(path.size() - 1) +
                          " unclosed group(s)");
    }
    const u8* name_len = r.take(1);
    if (name_len == nullptr) throw SnapshotError("truncated field name");
    const u8* nbuf = r.take(*name_len);
    if (nbuf == nullptr) throw SnapshotError("truncated field name");
    std::string name(reinterpret_cast<const char*>(nbuf), *name_len);
    const auto kind = static_cast<FieldKind>(*kind_b);

    if (kind == FieldKind::kGroupEnd) {
      if (path.size() == 1) throw SnapshotError("unbalanced group end");
      path.pop_back();
      seen.pop_back();
      continue;
    }

    const u32 idx = seen.back()[name]++;
    if (idx > 0) name += "[" + std::to_string(idx) + "]";
    std::string key;
    for (std::size_t i = 1; i < path.size(); ++i) key += path[i] + ".";
    key += name;

    const auto take = [&](std::size_t n, const char* kind_label) {
      const u8* p = r.take(n);
      if (p == nullptr) {
        throw SnapshotError(std::string("truncated ") + kind_label + " " + key);
      }
      return p;
    };
    switch (kind) {
      case FieldKind::kGroupBegin:
        path.push_back(name);
        seen.emplace_back();
        break;
      case FieldKind::kU8:
        lines.push_back({key, std::to_string(*take(1, "u8"))});
        break;
      case FieldKind::kU32:
        lines.push_back({key, std::to_string(Reader::load32(take(4, "u32")))});
        break;
      case FieldKind::kU64: {
        const u8* b = take(8, "u64");
        lines.push_back(
            {key, hex64(static_cast<u64>(Reader::load32(b + 4)) << 32 |
                        Reader::load32(b))});
        break;
      }
      case FieldKind::kBool:
        lines.push_back({key, *take(1, "bool") ? "true" : "false"});
        break;
      case FieldKind::kStr: {
        const u32 n = Reader::load32(take(4, "str"));
        if (n > kMaxStrLen) throw SnapshotError("str over cap at " + key);
        const u8* p = take(n, "str");
        lines.push_back(
            {key, "\"" + std::string(reinterpret_cast<const char*>(p), n) +
                      "\""});
        break;
      }
      case FieldKind::kBytes: {
        const u32 n = Reader::load32(take(4, "bytes"));
        if (n > kMaxBytesLen) throw SnapshotError("bytes over cap at " + key);
        const std::span<const u8> v(take(n, "bytes"), n);
        std::string rendered;
        if (n <= 32) {
          // Short payloads inline as hex so diffs show the actual bytes.
          char b[3];
          rendered = "hex:";
          for (const u8 c : v) {
            std::snprintf(b, sizeof b, "%02x", c);
            rendered += b;
          }
        } else {
          rendered = "bytes[" + std::to_string(n) + "] sha256=" +
                     image::hex_digest(image::sha256(v)).substr(0, 16);
        }
        lines.push_back({key, rendered});
        break;
      }
      default:
        throw SnapshotError("unknown field kind " +
                            std::to_string(*kind_b) + " at " + key);
    }
  }
  return lines;
}

std::vector<std::string> diff(std::istream& a, std::istream& b) {
  const std::vector<DumpLine> la = dump(a);
  const std::vector<DumpLine> lb = dump(b);
  std::map<std::string, std::string> ma, mb;
  std::vector<std::string> order;  // first-appearance order across both
  for (const DumpLine& l : la) {
    if (ma.emplace(l.key, l.value).second) order.push_back(l.key);
  }
  for (const DumpLine& l : lb) {
    if (mb.emplace(l.key, l.value).second && !ma.contains(l.key)) {
      order.push_back(l.key);
    }
  }
  std::vector<std::string> out;
  for (const std::string& key : order) {
    const auto ia = ma.find(key);
    const auto ib = mb.find(key);
    if (ia == ma.end()) {
      out.push_back("only in B: " + key + " = " + ib->second);
    } else if (ib == mb.end()) {
      out.push_back("only in A: " + key + " = " + ia->second);
    } else if (ia->second != ib->second) {
      out.push_back(key + ": " + ia->second + " != " + ib->second);
    }
  }
  return out;
}

}  // namespace sm::snapshot
