#include "ssdtrain/util/binary_io.hpp"

#include <bit>

namespace ssdtrain::util {

std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    put_u8(out, static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    put_u8(out, static_cast<std::uint8_t>(v >> shift));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

std::uint8_t ByteReader::u8() {
  if (failed_ || pos_ == data_.size()) {
    failed_ = true;
    return 0;
  }
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  std::uint16_t v = u8();
  v |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(u8()) << 8);
  return v;
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(u8()) << shift;
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(u8()) << shift;
  }
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t size = u32();
  if (size > remaining()) {
    failed_ = true;
    return {};
  }
  std::string out(data_.substr(pos_, size));
  pos_ += size;
  return out;
}

std::uint32_t ByteReader::count(std::size_t min_element_bytes) {
  const std::uint32_t n = u32();
  if (!failed_ &&
      static_cast<std::uint64_t>(n) * min_element_bytes > remaining()) {
    failed_ = true;
    return 0;
  }
  return n;
}

}  // namespace ssdtrain::util
