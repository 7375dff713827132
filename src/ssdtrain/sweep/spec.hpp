#pragma once

/// \file spec.hpp
/// Declarative sweep-space description. A SweepSpec is an ordered list of
/// named axes (integers, doubles, or strings); its cartesian product is the
/// set of SweepPoints a SweepRunner shards across worker threads. Points
/// are enumerated row-major with the last-declared axis varying fastest, so
/// point order — and therefore result order and CSV row order — is
/// independent of how the sweep executes.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ssdtrain::sweep {

using AxisValue = std::variant<std::int64_t, double, std::string>;

/// "12288", "0.25", or the string itself — used for labels and CSV cells.
[[nodiscard]] std::string to_string(const AxisValue& value);

class SweepPoint;

/// The point's coordinates in axis order, each rendered with to_string: the
/// CSV key cells of a bench that writes its axes that way.
[[nodiscard]] std::vector<std::string> axis_cells(const SweepPoint& point);

/// One cell of the grid: a deterministic index plus named coordinates.
class SweepPoint {
 public:
  SweepPoint(std::size_t index,
             std::vector<std::pair<std::string, AxisValue>> coordinates)
      : index_(index), coordinates_(std::move(coordinates)) {}

  /// Position in the row-major enumeration of the grid.
  [[nodiscard]] std::size_t index() const { return index_; }

  /// Typed coordinate accessors; unknown axis names or mismatched types
  /// are contract violations. f64 also accepts integer axes.
  [[nodiscard]] std::int64_t i64(std::string_view axis) const;
  [[nodiscard]] double f64(std::string_view axis) const;
  [[nodiscard]] const std::string& str(std::string_view axis) const;
  [[nodiscard]] const AxisValue& value(std::string_view axis) const;

  [[nodiscard]] const std::vector<std::pair<std::string, AxisValue>>&
  coordinates() const {
    return coordinates_;
  }

  /// "hidden=12288 batch=16" — for logs, error messages, and CSV.
  [[nodiscard]] std::string label() const;

 private:
  std::size_t index_;
  std::vector<std::pair<std::string, AxisValue>> coordinates_;
};

/// Cartesian grid builder. Axes enumerate in declaration order; the last
/// axis varies fastest.
class SweepSpec {
 public:
  SweepSpec& axis(std::string name, std::vector<std::int64_t> values);
  SweepSpec& axis(std::string name, std::vector<double> values);
  SweepSpec& axis(std::string name, std::vector<std::string> values);
  SweepSpec& axis_values(std::string name, std::vector<AxisValue> values);

  [[nodiscard]] std::size_t axis_count() const { return axes_.size(); }
  [[nodiscard]] std::vector<std::string> axis_names() const;

  /// Number of points in the grid (0 for an empty spec).
  [[nodiscard]] std::size_t size() const;

  /// Materializes the grid in row-major order.
  [[nodiscard]] std::vector<SweepPoint> points() const;

 private:
  struct Axis {
    std::string name;
    std::vector<AxisValue> values;
  };
  std::vector<Axis> axes_;
};

}  // namespace ssdtrain::sweep
