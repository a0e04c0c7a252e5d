#include "kernel/guest_mem.h"

#include <algorithm>
#include <cstring>

namespace sm::kernel {

using arch::kPageShift;
using arch::kPageSize;
using arch::page_offset;
using arch::u64;
using arch::vpn_of;

namespace {

// Walks [va, va + n) one page-bounded piece at a time, calling
// fn(piece_va, offset_into_range, piece_len); stops early (returning
// false) as soon as fn returns false. Addresses wrap like u32 arithmetic.
template <typename Fn>
bool for_each_page(u32 va, std::size_t n, Fn&& fn) {
  for (std::size_t done = 0; done < n;) {
    const u32 addr = va + static_cast<u32>(done);
    const std::size_t len =
        std::min<std::size_t>(n - done, kPageSize - page_offset(addr));
    if (!fn(addr, done, len)) return false;
    done += len;
  }
  return true;
}

}  // namespace

std::optional<u64> GuestMem::phys_of(u32 va, View view) const {
  const Pte pte = const_cast<AddressSpace*>(as_)->pt().get(va);
  if (!pte.present()) return std::nullopt;
  u32 pfn = pte.pfn();
  if (const SplitPair* pair = as_->split_pair(vpn_of(va))) {
    pfn = view == View::kCode ? pair->code_frame : pair->data_frame;
  }
  return static_cast<u64>(pfn) * kPageSize + page_offset(va);
}

bool GuestMem::mapped(u32 va) const {
  return phys_of(va, View::kData).has_value();
}

bool GuestMem::read(u32 va, std::span<u8> out, View view) const {
  const PhysicalMemory& pm = as_->phys();
  const View v = view == View::kBoth ? View::kData : view;
  return for_each_page(va, out.size(),
                       [&](u32 addr, std::size_t off, std::size_t len) {
                         const auto pa = phys_of(addr, v);
                         if (!pa) return false;
                         pm.read(*pa, out.subspan(off, len));
                         return true;
                       });
}

bool GuestMem::write(u32 va, std::span<const u8> in, View view) {
  PhysicalMemory& pm = as_->phys();
  // Pre-check the whole range so partial writes don't happen.
  if (!for_each_page(va, in.size(), [&](u32 addr, std::size_t, std::size_t) {
        return mapped(addr);
      })) {
    return false;
  }
  for_each_page(va, in.size(), [&](u32 addr, std::size_t off, std::size_t len) {
    const std::span<const u8> piece = in.subspan(off, len);
    if (view != View::kCode) pm.write(*phys_of(addr, View::kData), piece);
    if (view != View::kData) pm.write(*phys_of(addr, View::kCode), piece);
    return true;
  });
  return true;
}

std::optional<u32> GuestMem::read32(u32 va, View view) const {
  u8 b[4];
  if (!read(va, b, view)) return std::nullopt;
  return static_cast<u32>(b[0]) | (static_cast<u32>(b[1]) << 8) |
         (static_cast<u32>(b[2]) << 16) | (static_cast<u32>(b[3]) << 24);
}

bool GuestMem::write32(u32 va, u32 v, View view) {
  const u8 b[4] = {static_cast<u8>(v), static_cast<u8>(v >> 8),
                   static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
  return write(va, b, view);
}

std::optional<std::string> GuestMem::read_cstr(u32 va, u32 max_len) const {
  const PhysicalMemory& pm = as_->phys();
  std::string out;
  bool terminated = false;
  for_each_page(va, max_len, [&](u32 addr, std::size_t, std::size_t len) {
    const auto pa = phys_of(addr, View::kData);
    if (!pa) return false;
    const u8* p = pm.frame_bytes(static_cast<u32>(*pa >> kPageShift)).data() +
                  page_offset(addr);
    const u8* nul = static_cast<const u8*>(std::memchr(p, 0, len));
    out.append(reinterpret_cast<const char*>(p), nul ? nul - p : len);
    terminated = nul != nullptr;
    return !terminated;
  });
  if (!terminated) return std::nullopt;
  return out;
}

}  // namespace sm::kernel
