#include "ssdtrain/sweep/progress.hpp"

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sweep {

CsvProgress::CsvProgress(std::string path,
                         const std::vector<std::string>& header,
                         ChaosExec chaos)
    : path_(std::move(path)),
      writer_(path_, header, /*append=*/true),
      chaos_(chaos) {}

void CsvProgress::commit(std::size_t index,
                         std::vector<std::vector<std::string>> rows) {
  std::lock_guard<std::mutex> lock(mu_);
  util::expects(index >= next_ && !pending_.contains(index),
                "CsvProgress: point index committed twice");
  pending_.emplace(index, std::move(rows));
  for (auto it = pending_.find(next_); it != pending_.end();
       it = pending_.find(next_)) {
    for (const std::vector<std::string>& row : it->second) {
      writer_.add_row(row);
      // Flush per row, not per point: the heartbeat advances and the torn
      // tail a kill can leave is at most one row, never a block.
      writer_.flush();
      ++committed_;
      chaos_.maybe_enact(committed_, path_);
    }
    pending_.erase(it);
    ++next_;
  }
}

void CsvProgress::commit(std::size_t index, std::vector<std::string> row) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back(std::move(row));
  commit(index, std::move(rows));
}

}  // namespace ssdtrain::sweep
