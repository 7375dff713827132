#include "ssdtrain/orchestrate/merge.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "ssdtrain/sweep/resume.hpp"
#include "ssdtrain/util/csv.hpp"

namespace ssdtrain::orchestrate {

namespace {

struct ShardFile {
  std::string path;
  std::string header;             ///< first line, without the newline
  std::vector<std::string> rows;  ///< data lines, without the newlines
};

/// Reads one shard; on any problem records an issue instead of returning a
/// file, so the caller can keep scanning the remaining shards.
[[nodiscard]] bool read_shard(std::size_t index, const std::string& path,
                              ShardFile& shard,
                              std::vector<ShardIssue>& issues) {
  const auto fail = [&](std::string problem) {
    issues.push_back(ShardIssue{index, path, std::move(problem)});
    return false;
  };
  util::CsvLines file = util::read_csv_lines(path);
  if (!file.exists) {
    return fail("missing — the shard never started or its file was removed; "
                "run the shard (or re-run the orchestrator) to produce it");
  }
  if (file.lines.empty() && !file.torn_tail) {
    return fail("empty — the shard was killed before writing its header; "
                "re-run it to completion before merging");
  }
  if (file.torn_tail) {
    return fail(
        "torn tail (does not end in a newline) — the shard was interrupted "
        "mid-write; re-run it to completion (its --csv resume repairs the "
        "tail and skips finished points) before merging");
  }
  shard.path = path;
  shard.header = std::move(file.lines.front());
  shard.rows.assign(std::make_move_iterator(file.lines.begin() + 1),
                    std::make_move_iterator(file.lines.end()));
  if (shard.header.empty()) return fail("has no header line");
  const std::size_t columns =
      ssdtrain::sweep::split_csv_line(shard.header).size();
  for (std::size_t i = 0; i < shard.rows.size(); ++i) {
    const std::size_t cells =
        ssdtrain::sweep::split_csv_line(shard.rows[i]).size();
    if (cells != columns) {
      return fail("row " + std::to_string(i + 1) + " has " +
                  std::to_string(cells) + " cells, header has " +
                  std::to_string(columns) +
                  " — torn shard file; re-run the shard before merging");
    }
  }
  return true;
}

}  // namespace

std::vector<std::size_t> MergeReport::bad_shards() const {
  std::vector<std::size_t> out;
  out.reserve(issues.size());
  for (const ShardIssue& issue : issues) out.push_back(issue.shard);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

MergeReport merge_shards(const std::vector<std::string>& shard_paths,
                         const std::string& out_path) {
  MergeReport report;
  if (shard_paths.empty()) {
    report.issues.push_back(
        ShardIssue{0, out_path, "no shard files to merge"});
    return report;
  }
  std::vector<ShardFile> shards(shard_paths.size());
  std::size_t first_good = shard_paths.size();
  for (std::size_t i = 0; i < shard_paths.size(); ++i) {
    if (read_shard(i, shard_paths[i], shards[i], report.issues) &&
        first_good == shard_paths.size()) {
      first_good = i;
    }
  }
  if (first_good < shard_paths.size()) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].header.empty()) continue;  // already reported
      if (shards[i].header != shards[first_good].header) {
        report.issues.push_back(ShardIssue{
            i, shard_paths[i],
            "header differs from shard " + std::to_string(first_good) +
                " ('" + shard_paths[first_good] +
                "') — shards of different sweeps?"});
      }
    }
  }
  if (!report.ok()) return report;

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    report.issues.push_back(
        ShardIssue{0, out_path, "cannot open the merge output for writing"});
    return report;
  }
  out << shards.front().header << '\n';
  // Round k emits row k of shard 0, then row k of shard 1, ..., skipping
  // shards that ran out (the tail rounds when the grid size is not a
  // multiple of N) — the exact inverse of the j-mod-N partition.
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    for (const ShardFile& shard : shards) {
      if (round >= shard.rows.size()) continue;
      out << shard.rows[round] << '\n';
      ++report.rows;
      any = true;
    }
    if (!any) break;
  }
  out.flush();
  if (!out.good()) {
    report.issues.push_back(
        ShardIssue{0, out_path, "write to the merge output failed"});
  }
  return report;
}

CsvScan scan_csv(const std::string& path) {
  const util::CsvLines file = util::read_csv_lines(path);
  CsvScan scan;
  scan.exists = file.exists;
  // The first complete line is the header.
  scan.rows = file.lines.empty() ? 0 : file.lines.size() - 1;
  scan.torn_tail = file.torn_tail;
  return scan;
}

std::string describe(const MergeReport& report) {
  std::string out;
  for (const ShardIssue& issue : report.issues) {
    if (!out.empty()) out += '\n';
    out += "shard " + std::to_string(issue.shard) + " ('" + issue.path +
           "'): " + issue.problem;
  }
  if (!report.issues.empty()) {
    out += "\nunusable shard indexes:";
    for (std::size_t index : report.bad_shards()) {
      out += ' ' + std::to_string(index);
    }
  }
  return out;
}

}  // namespace ssdtrain::orchestrate
