#pragma once

/// \file zero_pages.hpp
/// A fixed-size array on anonymous zero pages. Every page of the array reads
/// as zero and stays unbacked until it is first written, so a table whose
/// all-zero value means "nothing here" costs no time to build, holds
/// resident memory only where it has been written, and unmaps in time
/// proportional to the pages it touched. std::vector value-initialises (and
/// so touches) every element, and a large calloc can come from the heap and
/// be memset once glibc has raised its mmap threshold; neither gives that.

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ssdtrain::util {

/// Move-only owner of \p count zero-valued T. T must be trivially copyable
/// and destructible, with all-zero bytes a valid value.
template <typename T>
class ZeroPages {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroPages holds plain data whose zero bytes are a value");

 public:
  /// Maps the array; throws std::bad_alloc when the kernel refuses.
  explicit ZeroPages(std::size_t count) : size_(count) {
    if (count == 0) return;
    void* pages = ::mmap(nullptr, count * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(pages);
  }

  ZeroPages(ZeroPages&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroPages& operator=(ZeroPages&& other) noexcept {
    if (this != &other) {
      unmap();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;
  ~ZeroPages() { unmap(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void unmap() {
    if (data_ != nullptr) ::munmap(data_, size_ * sizeof(T));
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ssdtrain::util
