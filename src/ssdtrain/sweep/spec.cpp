#include "ssdtrain/sweep/spec.hpp"

#include <sstream>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sweep {

std::string to_string(const AxisValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    std::ostringstream out;
    out << *d;  // shortest round-ish representation, no trailing zeros
    return out.str();
  }
  return std::get<std::string>(value);
}

const AxisValue& SweepPoint::value(std::string_view axis) const {
  for (const auto& [name, v] : coordinates_) {
    if (name == axis) return v;
  }
  util::check(false, "sweep point has no axis named '" + std::string(axis) +
                         "' (point: " + label() + ")");
  return coordinates_.front().second;  // unreachable
}

std::int64_t SweepPoint::i64(std::string_view axis) const {
  const AxisValue& v = value(axis);
  const auto* i = std::get_if<std::int64_t>(&v);
  util::check(i != nullptr,
              "axis '" + std::string(axis) + "' is not an integer axis");
  return *i;
}

double SweepPoint::f64(std::string_view axis) const {
  const AxisValue& v = value(axis);
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  const auto* d = std::get_if<double>(&v);
  util::check(d != nullptr,
              "axis '" + std::string(axis) + "' is not a numeric axis");
  return *d;
}

const std::string& SweepPoint::str(std::string_view axis) const {
  const AxisValue& v = value(axis);
  const auto* s = std::get_if<std::string>(&v);
  util::check(s != nullptr,
              "axis '" + std::string(axis) + "' is not a string axis");
  return *s;
}

std::vector<std::string> axis_cells(const SweepPoint& point) {
  std::vector<std::string> cells;
  for (const auto& [name, value] : point.coordinates()) {
    (void)name;
    cells.push_back(to_string(value));
  }
  return cells;
}

std::string SweepPoint::label() const {
  std::string out;
  for (const auto& [name, v] : coordinates_) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += sweep::to_string(v);
  }
  return out;
}

SweepSpec& SweepSpec::axis_values(std::string name,
                                  std::vector<AxisValue> values) {
  util::expects(!values.empty(), "sweep axis must have at least one value");
  for (const Axis& existing : axes_) {
    util::expects(existing.name != name, "duplicate sweep axis name");
  }
  axes_.push_back(Axis{std::move(name), std::move(values)});
  return *this;
}

SweepSpec& SweepSpec::axis(std::string name, std::vector<std::int64_t> values) {
  std::vector<AxisValue> cast(values.begin(), values.end());
  return axis_values(std::move(name), std::move(cast));
}

SweepSpec& SweepSpec::axis(std::string name, std::vector<double> values) {
  std::vector<AxisValue> cast(values.begin(), values.end());
  return axis_values(std::move(name), std::move(cast));
}

SweepSpec& SweepSpec::axis(std::string name, std::vector<std::string> values) {
  std::vector<AxisValue> cast;
  cast.reserve(values.size());
  for (auto& v : values) cast.emplace_back(std::move(v));
  return axis_values(std::move(name), std::move(cast));
}

std::vector<std::string> SweepSpec::axis_names() const {
  std::vector<std::string> names;
  names.reserve(axes_.size());
  for (const Axis& a : axes_) names.push_back(a.name);
  return names;
}

std::size_t SweepSpec::size() const {
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const Axis& a : axes_) n *= a.values.size();
  return n;
}

std::vector<SweepPoint> SweepSpec::points() const {
  const std::size_t total = size();
  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    std::vector<std::pair<std::string, AxisValue>> coords;
    coords.reserve(axes_.size());
    // Row-major: decompose the index with the last axis varying fastest.
    std::size_t stride = total;
    std::size_t rest = index;
    for (const Axis& a : axes_) {
      stride /= a.values.size();
      const std::size_t pick = rest / stride;
      rest %= stride;
      coords.emplace_back(a.name, a.values[pick]);
    }
    points.emplace_back(index, std::move(coords));
  }
  return points;
}

}  // namespace ssdtrain::sweep
