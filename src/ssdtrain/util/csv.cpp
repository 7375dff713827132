#include "ssdtrain/util/csv.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::util {

CsvLines read_csv_lines(const std::string& path) {
  CsvLines file;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return file;
  file.exists = true;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  std::size_t start = 0;
  for (std::size_t nl = content.find('\n', start); nl != std::string::npos;
       nl = content.find('\n', start)) {
    file.lines.emplace_back(content, start, nl - start);
    start = nl + 1;
  }
  file.torn_tail = start < content.size();
  return file;
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header, bool append)
    : columns_(header.size()) {
  expects(!header.empty(), "CSV needs at least one column");
  bool resume = false;
  if (append) {
    const CsvLines existing = read_csv_lines(path);
    resume = !existing.lines.empty();  // else not even the header survived
    if (existing.torn_tail) {
      // A run killed mid-write can leave an unterminated partial row (which
      // a resume scan must not count as done, and which must not survive
      // into the resumed file — the repaired file has to be byte-identical
      // to a clean run's). Truncate it away; the interrupted point re-runs.
      std::size_t keep = 0;
      for (const std::string& line : existing.lines) keep += line.size() + 1;
      std::filesystem::resize_file(path, keep);
    }
  }
  out_.open(path, resume ? std::ios::out | std::ios::app : std::ios::out);
  if (!out_) throw std::runtime_error("cannot open CSV file: " + path);
  if (!resume) write_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  expects(cells.size() == columns_, "CSV row width != header width");
  write_row(cells);
}

void CsvWriter::flush() {
  if (out_.is_open()) out_.flush();
}

void CsvWriter::close() {
  if (out_.is_open()) out_.close();
}

CsvWriter::~CsvWriter() { close(); }

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ",";
    out_ << escape(cells[i]);
  }
  out_ << "\n";
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += "\"";
  return out;
}

}  // namespace ssdtrain::util
