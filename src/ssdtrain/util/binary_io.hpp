#pragma once

/// \file binary_io.hpp
/// The primitives both binary formats (serialized StepPrograms and
/// checkpoint manifests) are built from: the FNV-1a checksum, append-only
/// little-endian writers, and a bounds-checked little-endian reader.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ssdtrain::util {

/// 64-bit FNV-1a over \p data.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data);

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
/// A u32 byte count, then the bytes.
void put_str(std::string& out, std::string_view s);

/// Reads what the put_* writers wrote. A read past the end sets failed()
/// and returns zero (or an empty string) rather than touching out-of-range
/// memory; every later read fails too, so a decoder checks once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Marks the buffer corrupt (a decoded value out of its range).
  void fail() { failed_ = true; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  /// An element count claiming more than the remaining bytes could hold
  /// (at \p min_element_bytes each) marks the buffer corrupt before any
  /// allocation is attempted.
  std::uint32_t count(std::size_t min_element_bytes);

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace ssdtrain::util
