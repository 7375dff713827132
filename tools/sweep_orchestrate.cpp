/// \file sweep_orchestrate.cpp
/// Fault-tolerant sweep driver: partitions a sweep across N worker
/// processes (--shard I/N), babysits them — heartbeats via shard-CSV row
/// counts, dead-worker detection via waitpid, hung-worker detection via a
/// stall timeout, SIGKILL + exponential-backoff relaunch with a cap — and
/// reassembles a verified merged CSV that is byte-identical to the
/// single-process run. Relaunched workers resume from their (tail-
/// repaired) CSVs, so completed points never re-run; shards that exhaust
/// their relaunch budget degrade into an explicit failed-shards report
/// instead of poisoning the merge.
///
///   sweep_orchestrate --shard-count N --out merged.csv
///       [--workdir DIR] [--stall-timeout S] [--poll-interval S]
///       [--max-relaunch K] [--backoff S] [--backoff-max S]
///       [--chaos "kill:rate=0.3,stall:rate=0.1"] [--chaos-seed N]
///       [--launcher-template 'ssh {host} {cmd}'] [--hosts h1,h2]
///       -- WORKER_CMD [WORKER_ARGS...]
///
/// Everything after `--` is the worker command; the driver appends
/// `--csv <workdir>/shard-I.csv --shard I/N` (and a --chaos-exec spec when
/// seeded chaos draws one) per launch. Workers must be streamed
/// sweep::BenchMain binaries (bench_moe_offload, bench_cluster_scale,
/// bench_resilience, bench_checkpoint, example_pipeline_bubbles): they take
/// --shard and --chaos-exec, commit CSV rows in grid order and resume from
/// their CSVs. A batch bench rejects --shard, so every launch fails and the
/// run exits 1 instead of merging a duplicated grid.
///
/// Exit codes: 0 merged and verified, 1 shards failed or the merge was
/// refused, 2 usage error.

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ssdtrain/orchestrate/chaos.hpp"
#include "ssdtrain/orchestrate/launcher.hpp"
#include "ssdtrain/orchestrate/supervisor.hpp"
#include "ssdtrain/util/check.hpp"

namespace orc = ssdtrain::orchestrate;

namespace {

void usage(std::ostream& out) {
  out << "usage: sweep_orchestrate --shard-count N --out merged.csv\n"
         "         [--workdir DIR]          (default: <out>.shards)\n"
         "         [--stall-timeout S]      (default 60; no new CSV row for "
         "S seconds => hung)\n"
         "         [--poll-interval S]      (default 0.2)\n"
         "         [--max-relaunch K]       (default 5 extra launches per "
         "shard)\n"
         "         [--backoff S]            (default 0.5; doubles per "
         "relaunch)\n"
         "         [--backoff-max S]        (default 8)\n"
         "         [--chaos SPEC]           (seeded worker kills/stalls, "
         "e.g. kill:rate=0.3,stall:rate=0.1)\n"
         "         [--chaos-seed N]         (default 0)\n"
         "         [--launcher-template T]  (run workers through a shell "
         "template, e.g. 'ssh {host} {cmd}')\n"
         "         [--hosts h1,h2]          (round-robin {host} values)\n"
         "         -- WORKER_CMD [ARGS...]\n";
}

double parse_seconds(std::string_view flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double s = std::strtod(text, &end);
  ssdtrain::util::expects(end != text && *end == '\0' && errno != ERANGE &&
                              s > 0.0,
                          std::string(flag) +
                              " expects a positive number of seconds, got '" +
                              std::string(text) + "'");
  return s;
}

long parse_int(std::string_view flag, const char* text, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(text, &end, 10);
  ssdtrain::util::expects(end != text && *end == '\0' && errno != ERANGE &&
                              n >= lo && n <= hi,
                          std::string(flag) + " expects an integer in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "], got '" + std::string(text) + "'");
  return n;
}

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    if (comma > start) out.emplace_back(text.substr(start, comma - start));
    if (comma == text.size()) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  orc::SupervisorConfig config;
  std::string launcher_template;
  std::vector<std::string> hosts;
  config.shard_count = 0;  // required

  int i = 1;
  try {
    for (; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto value = [&]() -> const char* {
        ssdtrain::util::expects(i + 1 < argc,
                                std::string(arg) + " requires a value");
        return argv[++i];
      };
      if (arg == "--") {
        ++i;
        break;
      } else if (arg == "--shard-count") {
        config.shard_count = static_cast<int>(parse_int(arg, value(), 1, 4096));
      } else if (arg == "--out") {
        config.out_csv = value();
      } else if (arg == "--workdir") {
        config.workdir = value();
      } else if (arg == "--stall-timeout") {
        config.stall_timeout = parse_seconds(arg, value());
      } else if (arg == "--poll-interval") {
        config.poll_interval = parse_seconds(arg, value());
      } else if (arg == "--max-relaunch") {
        config.max_relaunch = static_cast<int>(parse_int(arg, value(), 0, 1000));
      } else if (arg == "--backoff") {
        config.backoff_initial = parse_seconds(arg, value());
      } else if (arg == "--backoff-max") {
        config.backoff_max = parse_seconds(arg, value());
      } else if (arg == "--chaos") {
        config.chaos = orc::parse_chaos(value());
      } else if (arg == "--chaos-seed") {
        config.chaos_seed = static_cast<std::uint64_t>(
            parse_int(arg, value(), 0, std::numeric_limits<long>::max()));
      } else if (arg == "--launcher-template") {
        launcher_template = value();
      } else if (arg == "--hosts") {
        hosts = split_list(value());
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        ssdtrain::util::expects(
            false, "unknown flag: " + std::string(arg) +
                       " (worker arguments go after '--')");
      }
    }
    for (; i < argc; ++i) config.worker_command.emplace_back(argv[i]);
    ssdtrain::util::expects(config.shard_count >= 1,
                            "--shard-count is required");
    ssdtrain::util::expects(!config.out_csv.empty(), "--out is required");
    ssdtrain::util::expects(!config.worker_command.empty(),
                            "worker command after '--' is required");
    if (config.workdir.empty()) config.workdir = config.out_csv + ".shards";

    orc::LocalLauncher local;
    std::unique_ptr<orc::CommandTemplateLauncher> templated;
    if (!launcher_template.empty()) {
      templated = std::make_unique<orc::CommandTemplateLauncher>(
          launcher_template, hosts);
      config.launcher = templated.get();
    } else {
      ssdtrain::util::expects(hosts.empty(),
                              "--hosts needs --launcher-template");
      config.launcher = &local;
    }

    orc::Supervisor supervisor(std::move(config));
    const orc::SupervisorReport report = supervisor.run();
    if (!report.ok) {
      std::cerr << "sweep_orchestrate: " << report.error << "\n";
      return 1;
    }
    int relaunches = 0, stalls = 0, repairs = 0;
    for (const orc::ShardReport& s : report.shards) {
      relaunches += s.launches - 1;
      stalls += s.stalls;
      repairs += s.tail_repairs;
    }
    std::cout << "sweep_orchestrate: " << report.merged_rows << " rows from "
              << report.shards.size() << " shards -> ok";
    if (relaunches > 0) {
      std::cout << " (" << relaunches << " relaunches, " << stalls
                << " stall kills, " << repairs << " tail repairs)";
    }
    std::cout << "\n";
  } catch (const std::exception& e) {
    std::cerr << "sweep_orchestrate: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  return 0;
}
