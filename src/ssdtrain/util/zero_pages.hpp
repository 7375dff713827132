#pragma once

/// \file zero_pages.hpp
/// One run of anonymous zero pages, carved into typed tables. Every page
/// reads as zero and stays unbacked until it is first written, so tables
/// whose all-zero value means "nothing here" cost no time to build, hold
/// resident memory only where they have been written, and unmap in time
/// proportional to the pages they touched, all of them with one munmap.
/// std::vector value-initialises (and so touches) every element, and a large
/// calloc can come from the heap and be memset once glibc has raised its
/// mmap threshold; neither gives that.

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::util {

/// Move-only owner of one mapping. Tables are handed out front to back by
/// take(); size the mapping with the sum of their footprint()s.
class ZeroPages {
 public:
  /// Maps nothing.
  ZeroPages() = default;

  /// Maps \p bytes of zero pages; throws std::bad_alloc when the kernel
  /// refuses.
  explicit ZeroPages(std::size_t bytes) : bytes_(bytes) {
    if (bytes == 0) return;
    void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::byte*>(pages);
  }

  ZeroPages(ZeroPages&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)),
        taken_(std::exchange(other.taken_, 0)) {}
  ZeroPages& operator=(ZeroPages&& other) noexcept {
    if (this != &other) {
      unmap();
      data_ = std::exchange(other.data_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
      taken_ = std::exchange(other.taken_, 0);
    }
    return *this;
  }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;
  ~ZeroPages() { unmap(); }

  /// Bytes a table of \p count T takes from the mapping: its size, rounded
  /// up so the table after it stays aligned.
  template <typename T>
  static constexpr std::size_t footprint(std::size_t count) {
    return (count * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  }

  /// The next \p count zero-valued T of the mapping, after every table taken
  /// before it. T must be trivially copyable and destructible, with all-zero
  /// bytes a valid value.
  template <typename T>
  std::span<T> take(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "zero pages hold plain data whose zero bytes are a value");
    static_assert(alignof(T) <= kAlign, "table alignment exceeds the carve");
    util::check(footprint<T>(count) <= bytes_ - taken_,
                "table overruns its zero-page mapping");
    auto* table = reinterpret_cast<T*>(data_ + taken_);
    taken_ += footprint<T>(count);
    return {table, count};
  }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  void unmap() {
    if (data_ != nullptr) ::munmap(data_, bytes_);
  }

  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t taken_ = 0;
};

}  // namespace ssdtrain::util
