#include "ssdtrain/sweep/resume.hpp"

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"

namespace ssdtrain::sweep {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"' && cell.empty()) {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

CsvResume::CsvResume(const std::string& path,
                     std::vector<std::string> key_columns)
    : key_columns_(std::move(key_columns)) {
  util::expects(!key_columns_.empty(), "resume needs at least one key column");
  // Complete lines only: counting a torn tail as completed would skip the
  // interrupted point forever. The writer's append mode truncates the tail;
  // record the repair so callers can surface it.
  const util::CsvLines file = util::read_csv_lines(path);
  repaired_tail_ = file.torn_tail;
  const std::vector<std::string>& lines = file.lines;
  if (lines.empty()) return;  // no file, or not even a finished header
  const std::vector<std::string> header = split_csv_line(lines.front());
  util::check(header.size() >= key_columns_.size(),
              "existing CSV '" + path + "' has fewer columns than the "
              "sweep's key columns — refusing to resume into it");
  for (std::size_t i = 0; i < key_columns_.size(); ++i) {
    util::check(header[i] == key_columns_[i],
                "existing CSV '" + path + "' key column " +
                    std::to_string(i) + " is '" + header[i] +
                    "', expected '" + key_columns_[i] +
                    "' — refusing to resume into a different sweep's file");
  }
  resuming_ = true;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    std::vector<std::string> cells = split_csv_line(lines[i]);
    // Second completeness gate: a terminated row that still lost cells
    // (torn write) must not mark its point done either.
    if (cells.size() < header.size()) {
      ++torn_rows_;
      continue;
    }
    cells.resize(key_columns_.size());
    seen_.insert(std::move(cells));
  }
}

std::vector<SweepPoint> CsvResume::remaining(
    std::vector<SweepPoint> points,
    const std::function<std::vector<std::string>(const SweepPoint&)>& key)
    const {
  if (!resuming_) return points;
  std::vector<SweepPoint> todo;
  for (SweepPoint& point : points) {
    const std::vector<std::string> cells = key(point);
    util::expects(cells.size() == key_columns_.size(),
                  "resume key must yield one cell per key column");
    if (!contains(cells)) todo.push_back(std::move(point));
  }
  return todo;
}

}  // namespace ssdtrain::sweep
