#include "arch/phys_mem.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace sm::arch {

PhysicalMemory::PhysicalMemory(u32 num_frames)
    : num_frames_(num_frames),
      size_(static_cast<u64>(num_frames) * kPageSize),
      bytes_(static_cast<u8*>(std::calloc(size_, 1))),
      generations_(num_frames, 0),
      refcounts_(num_frames, 0) {
  if (bytes_ == nullptr && size_ != 0) throw std::bad_alloc();
}

void PhysicalMemory::check_pa(u64 pa, u64 len) const {
  if (pa + len > size_ || pa + len < pa) {
    throw std::out_of_range("physical address out of range");
  }
}

u8 PhysicalMemory::read8(u64 pa) const {
  check_pa(pa, 1);
  return bytes_[pa];
}

u32 PhysicalMemory::read32(u64 pa) const {
  check_pa(pa, 4);
  u32 v = 0;
  std::memcpy(&v, &bytes_[pa], 4);
  return v;
}

void PhysicalMemory::bump_generation(u64 pa, u64 len) {
  if (len == 0) return;
  const u64 first = pa >> kPageShift;
  const u64 last = (pa + len - 1) >> kPageShift;
  for (u64 f = first; f <= last; ++f) ++generations_[f];
}

void PhysicalMemory::write8(u64 pa, u8 v) {
  check_pa(pa, 1);
  ++generations_[pa >> kPageShift];
  bytes_[pa] = v;
}

void PhysicalMemory::write32(u64 pa, u32 v) {
  check_pa(pa, 4);
  bump_generation(pa, 4);
  std::memcpy(&bytes_[pa], &v, 4);
}

void PhysicalMemory::read(u64 pa, std::span<u8> out) const {
  check_pa(pa, out.size());
  std::memcpy(out.data(), &bytes_[pa], out.size());
}

void PhysicalMemory::write(u64 pa, std::span<const u8> in) {
  check_pa(pa, in.size());
  bump_generation(pa, in.size());
  std::memcpy(&bytes_[pa], in.data(), in.size());
}

std::span<u8> PhysicalMemory::frame_bytes(u32 pfn) {
  check_pa(static_cast<u64>(pfn) * kPageSize, kPageSize);
  ++generations_[pfn];
  return {&bytes_[static_cast<u64>(pfn) * kPageSize], kPageSize};
}

u64 PhysicalMemory::generation(u32 pfn) const {
  if (pfn >= num_frames_) throw std::out_of_range("bad pfn");
  return generations_[pfn];
}

std::span<const u8> PhysicalMemory::frame_bytes(u32 pfn) const {
  check_pa(static_cast<u64>(pfn) * kPageSize, kPageSize);
  return {&bytes_[static_cast<u64>(pfn) * kPageSize], kPageSize};
}

u32 PhysicalMemory::alloc_frame() {
  if (fault_hooks_ != nullptr && fault_hooks_->fail_frame_alloc())
      [[unlikely]] {
    throw OutOfMemoryError{};  // injected transient exhaustion
  }
  u32 pfn;
  if (!recycled_.empty()) {
    pfn = recycled_.back();
    recycled_.pop_back();
  } else if (fresh_ < num_frames_) {
    pfn = fresh_++;
  } else {
    throw OutOfMemoryError{};
  }
  refcounts_[pfn] = 1;
  ++frames_in_use_;
  std::ranges::fill(frame_bytes(pfn), u8{0});
  return pfn;
}

void PhysicalMemory::ref_frame(u32 pfn) {
  if (pfn >= num_frames_ || refcounts_[pfn] == 0) {
    throw std::logic_error("ref of unallocated frame");
  }
  ++refcounts_[pfn];
}

void PhysicalMemory::unref_frame(u32 pfn) {
  if (pfn >= num_frames_ || refcounts_[pfn] == 0) {
    throw std::logic_error("unref of unallocated frame");
  }
  if (--refcounts_[pfn] == 0) {
    recycled_.push_back(pfn);
    --frames_in_use_;
  }
}

u32 PhysicalMemory::refcount(u32 pfn) const {
  if (pfn >= num_frames_) throw std::out_of_range("bad pfn");
  return refcounts_[pfn];
}

}  // namespace sm::arch
