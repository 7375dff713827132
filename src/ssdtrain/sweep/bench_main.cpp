#include "ssdtrain/sweep/bench_main.hpp"

#include <iostream>

#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/session_options.hpp"
#include "ssdtrain/sweep/chaos_exec.hpp"
#include "ssdtrain/sweep/resume.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"

namespace ssdtrain::sweep {

BenchMain::BenchMain(int argc, char** argv, Shape shape,
                     std::initializer_list<std::string_view> modes)
    : BenchMain(argc, argv, shape, OwnPositionals{}) {
  reject_positionals(cli_, modes);
}

BenchMain::BenchMain(int argc, char** argv, Shape shape, OwnPositionals)
    : cli_(parse_cli(argc, argv)) {
  if (shape == Shape::streamed) {
    util::expects(cli_.chaos_exec.empty() || cli_.csv_enabled(),
                  "--chaos-exec needs --csv: chaos fires at committed rows");
  } else {
    reject_flags(cli_, {"--points", "--shard", "--chaos-exec"},
                 "this binary renders its grid as a whole (only the streamed "
                 "benches take --points, --shard and --chaos-exec)");
  }
  if (shape == Shape::analytic) {
    reject_flags(cli_,
                 {"--no-replay", "--pp", "--tp", "--dp", "--zero", "--faults",
                  "--fault-seed", "--ckpt-interval", "--ckpt-auto",
                  "--program-cache", "--no-program-cache"},
                 "this binary builds no training session");
  } else if (cli_.program_cache_enabled()) {
    cache_ = std::make_unique<runtime::ProgramCache>(
        runtime::ProgramCacheConfig{cli_.program_cache_dir});
  }
}

BenchMain::~BenchMain() = default;

bool BenchMain::mode(std::string_view name) const {
  return !cli_.positional.empty() && cli_.positional.front() == name;
}

void BenchMain::configure(runtime::SessionOptions& options) const {
  if (cli_.no_replay) options.use_replay = false;
  cli_.apply_parallel(options.parallel);
  if (cli_.faults_enabled()) {
    options.faults = cli_.fault_config();
  } else if (cli_.fault_seed != 0) {
    options.faults.seed = cli_.fault_seed;
  }
  if (cli_.checkpoint_enabled()) {
    options.checkpoint = cli_.checkpoint_policy();
  }
  options.program_cache = cache_.get();
}

void BenchMain::write_csv(const Cells& header,
                          const std::vector<Cells>& rows) const {
  if (!cli_.csv_enabled()) return;
  util::CsvWriter csv(cli_.csv_path, header);
  for (const Cells& row : rows) csv.add_row(row);
}

SweepRunner& BenchMain::runner() {
  if (!runner_) runner_.emplace(cli_.workers);
  return *runner_;
}

void BenchMain::report(const std::string& label, const std::string& error) {
  std::cerr << label << " failed: " << error << "\n";
  failed_ = true;
}

void BenchMain::open_stream(
    const SweepSpec& spec, const Cells& header,
    const std::function<Cells(const SweepPoint&)>& key) {
  util::expects(!progress_ && todo_.empty(), "stream() runs once per binary");
  const std::size_t keys = spec.axis_count();
  util::expects(header.size() > keys,
                "a streamed header names one key cell per axis, then the "
                "result cells");
  todo_ = select_points(spec, cli_);
  if (!cli_.csv_enabled()) return;

  // Resume: skip the cells an earlier run already wrote, matched on the
  // bench's own key cells.
  const CsvResume resume(cli_.csv_path,
                         Cells(header.begin(), header.begin() + keys));
  const std::size_t before = todo_.size();
  todo_ = resume.remaining(std::move(todo_), key);
  if (resume.resuming()) {
    std::cout << "resuming: " << before - todo_.size() << "/" << before
              << " grid cells already in " << cli_.csv_path;
    if (resume.repaired_tail()) std::cout << " (repaired a torn tail)";
    std::cout << "\n";
  }
  // Streaming commits: rows reach the file in grid order as soon as every
  // earlier point has finished, so the row count is the heartbeat
  // sweep_orchestrate watches, a killed run loses at most its in-flight
  // points, and --chaos-exec can kill or stall this worker at an exact row.
  progress_ = std::make_unique<CsvProgress>(
      cli_.csv_path, header, ChaosExec::parse(cli_.chaos_exec));
}

}  // namespace ssdtrain::sweep
