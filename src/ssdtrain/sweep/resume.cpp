#include "ssdtrain/sweep/resume.hpp"

#include <fstream>
#include <sstream>

#include "ssdtrain/util/check.hpp"

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
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return;  // nothing to resume from
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  // Complete ('\n'-terminated) lines only: a run killed mid-write leaves an
  // unterminated tail that may hold the right number of commas with a
  // truncated final cell — getline would hand it over looking whole, and
  // counting it as completed would skip the interrupted point forever.
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = content.find('\n', start);
       nl != std::string::npos; nl = content.find('\n', start)) {
    lines.emplace_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  // The unterminated remainder (if any) is the torn tail the writer's
  // append mode will truncate; record the repair so callers can surface it.
  repaired_tail_ = start < content.size();
  if (lines.empty()) return;  // empty file, or not even a finished header
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
