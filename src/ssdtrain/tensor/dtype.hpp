#pragma once

/// \file dtype.hpp
/// Element types for simulated tensors. Contents are never materialised —
/// only sizes matter — but dtype is tracked so activation byte counts match
/// the paper's FP16 setting (and dropout masks are 1 byte/element, which is
/// where the odd "1 * s*b*h" terms in the activation-memory formula come
/// from).

#include <cstdint>

#include "ssdtrain/util/units.hpp"

namespace ssdtrain::tensor {

enum class DType : std::uint8_t { fp16, bf16, fp32, int8, int32, int64 };

constexpr util::Bytes element_size(DType dtype) {
  switch (dtype) {
    case DType::fp16:
    case DType::bf16:
      return 2;
    case DType::fp32:
    case DType::int32:
      return 4;
    case DType::int8:
      return 1;
    case DType::int64:
      return 8;
  }
  return 0;
}

}  // namespace ssdtrain::tensor
