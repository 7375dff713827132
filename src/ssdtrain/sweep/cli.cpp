#include "ssdtrain/sweep/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "ssdtrain/sweep/chaos_exec.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sweep {

namespace {

void parse_points_list(std::string_view list, CliOptions& options) {
  util::expects(!list.empty(), "--points requires a=1[,b=2...]");
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view item = list.substr(start, comma - start);
    const std::size_t eq = item.find('=');
    util::expects(eq != std::string_view::npos && eq > 0 &&
                      eq + 1 < item.size(),
                  "--points entries must look like axis=value, got '" +
                      std::string(item) + "'");
    options.point_filter.emplace_back(std::string(item.substr(0, eq)),
                                      std::string(item.substr(eq + 1)));
    start = comma + 1;
    if (comma == list.size()) break;
  }
}

// --pp/--tp/--dp values: a parallelism degree is a small positive integer.
int parse_degree(std::string_view flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(text, &end, 10);
  util::expects(end != text && *end == '\0' && errno != ERANGE && n >= 1 &&
                    n <= 4096,
                std::string(flag) + " expects an integer in [1, 4096], got '" +
                    std::string(text) + "'");
  return static_cast<int>(n);
}

parallel::ZeroStage parse_zero_stage(const char* text) {
  const std::string_view value = text;
  if (value == "none" || value == "0") return parallel::ZeroStage::none;
  if (value == "1" || value == "stage1") return parallel::ZeroStage::stage1;
  if (value == "2" || value == "stage2") return parallel::ZeroStage::stage2;
  if (value == "3" || value == "stage3") return parallel::ZeroStage::stage3;
  util::expects(false, "--zero expects none|1|2|3, got '" +
                           std::string(value) + "'");
  return parallel::ZeroStage::none;  // unreachable
}

// "I/N" with 0 <= I < N and N in [1, 4096].
void parse_shard(const char* text, CliOptions& options) {
  const std::string_view value = text;
  const std::size_t slash = value.find('/');
  util::expects(slash != std::string_view::npos && slash > 0 &&
                    slash + 1 < value.size(),
                "--shard expects I/N (e.g. 0/2), got '" + std::string(value) +
                    "'");
  const std::string index_text(value.substr(0, slash));
  const std::string count_text(value.substr(slash + 1));
  char* end = nullptr;
  errno = 0;
  const long index = std::strtol(index_text.c_str(), &end, 10);
  util::expects(end != index_text.c_str() && *end == '\0' &&
                    errno != ERANGE && index >= 0,
                "--shard index must be a non-negative integer, got '" +
                    index_text + "'");
  end = nullptr;
  errno = 0;
  const long count = std::strtol(count_text.c_str(), &end, 10);
  util::expects(end != count_text.c_str() && *end == '\0' &&
                    errno != ERANGE && count >= 1 && count <= 4096,
                "--shard count must be an integer in [1, 4096], got '" +
                    count_text + "'");
  util::expects(index < count, "--shard index " + index_text +
                                   " out of range for " + count_text +
                                   " shards");
  options.shard_index = static_cast<int>(index);
  options.shard_count = static_cast<int>(count);
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workers") {
      util::expects(i + 1 < argc, "--workers requires a value");
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      const long n = std::strtol(text, &end, 10);
      // 4096 bounds even absurd machines; anything larger is a typo, not a
      // core count.
      util::expects(end != text && *end == '\0' && errno != ERANGE &&
                        n >= 0 && n <= 4096,
                    "--workers expects an integer in [0, 4096], got '" +
                        std::string(text) + "'");
      options.workers = static_cast<std::size_t>(n);
    } else if (arg == "--csv") {
      util::expects(i + 1 < argc, "--csv requires a path");
      options.csv_path = argv[++i];
      util::expects(!options.csv_path.empty(), "--csv path is empty");
    } else if (arg == "--points") {
      util::expects(i + 1 < argc, "--points requires a=1[,b=2...]");
      parse_points_list(argv[++i], options);
    } else if (arg == "--no-replay") {
      options.no_replay = true;
    } else if (arg == "--pp") {
      util::expects(i + 1 < argc, "--pp requires a degree");
      options.pipeline_parallel = parse_degree(arg, argv[++i]);
    } else if (arg == "--tp") {
      util::expects(i + 1 < argc, "--tp requires a degree");
      options.tensor_parallel = parse_degree(arg, argv[++i]);
    } else if (arg == "--dp") {
      util::expects(i + 1 < argc, "--dp requires a degree");
      options.data_parallel = parse_degree(arg, argv[++i]);
    } else if (arg == "--zero") {
      util::expects(i + 1 < argc, "--zero requires none|1|2|3");
      options.zero = parse_zero_stage(argv[++i]);
    } else if (arg == "--faults") {
      util::expects(i + 1 < argc, "--faults requires a spec list");
      options.faults = argv[++i];
      util::expects(!options.faults.empty(), "--faults spec list is empty");
      // Parse eagerly so grammar errors surface at startup.
      (void)fault::parse_faults(options.faults);
    } else if (arg == "--fault-seed") {
      util::expects(i + 1 < argc, "--fault-seed requires a value");
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(text, &end, 10);
      // strtoull accepts a sign and wraps "-1" to 2^64-1: require a digit.
      util::expects(std::isdigit(static_cast<unsigned char>(text[0])) &&
                        end != text && *end == '\0' && errno != ERANGE,
                    "--fault-seed expects a non-negative integer, got '" +
                        std::string(text) + "'");
      options.fault_seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--ckpt-interval") {
      util::expects(i + 1 < argc, "--ckpt-interval requires a step count");
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      const long n = std::strtol(text, &end, 10);
      util::expects(end != text && *end == '\0' && errno != ERANGE &&
                        n >= 1 && n <= 1000000,
                    "--ckpt-interval expects an integer in [1, 1000000], "
                    "got '" +
                        std::string(text) + "'");
      options.ckpt_interval = static_cast<int>(n);
    } else if (arg == "--ckpt-auto") {
      options.ckpt_auto = true;
    } else if (arg == "--mtbf") {
      util::expects(i + 1 < argc, "--mtbf requires seconds");
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      const double seconds = std::strtod(text, &end);
      util::expects(end != text && *end == '\0' && errno != ERANGE &&
                        seconds > 0.0,
                    "--mtbf expects a positive number of seconds, got '" +
                        std::string(text) + "'");
      options.mtbf = seconds;
    } else if (arg == "--shard") {
      util::expects(i + 1 < argc, "--shard requires I/N");
      parse_shard(argv[++i], options);
    } else if (arg == "--program-cache") {
      util::expects(i + 1 < argc, "--program-cache requires a directory");
      options.program_cache_dir = argv[++i];
      util::expects(!options.program_cache_dir.empty(),
                    "--program-cache directory is empty");
    } else if (arg == "--no-program-cache") {
      options.no_program_cache = true;
    } else if (arg == "--chaos-exec") {
      util::expects(i + 1 < argc, "--chaos-exec requires a spec");
      options.chaos_exec = argv[++i];
      // Parse eagerly so grammar errors surface at startup.
      (void)ChaosExec::parse(options.chaos_exec);
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      util::expects(false,
                    "unknown flag: " + std::string(arg) +
                        " (supported: --workers N, --csv PATH, "
                        "--points a=1,b=2, --no-replay, --pp N, --tp N, "
                        "--dp N, --zero none|1|2|3, --faults SPECS, "
                        "--fault-seed N, --ckpt-interval N, --ckpt-auto, "
                        "--mtbf SECONDS, --shard I/N, "
                        "--program-cache DIR, --no-program-cache, "
                        "--chaos-exec SPEC)");
    } else {
      options.positional.emplace_back(arg);
    }
  }
  // Validate the checkpoint cadence eagerly so contradictions (both
  // cadences, --ckpt-auto without --mtbf) surface at startup.
  (void)options.checkpoint_policy();
  util::expects(options.mtbf == 0.0 || options.ckpt_auto,
                "--mtbf only applies with --ckpt-auto");
  util::expects(options.program_cache_dir.empty() || !options.no_program_cache,
                "--program-cache DIR contradicts --no-program-cache");
  return options;
}

namespace {

/// Every flag parse_cli accepts, with whether \p o carries a non-default
/// value for it.
std::vector<std::pair<std::string_view, bool>> given_flags(
    const CliOptions& o) {
  return {
      {"--workers", o.workers != 0},
      {"--csv", o.csv_enabled()},
      {"--points", o.points_enabled()},
      {"--no-replay", o.no_replay},
      {"--pp", o.pipeline_parallel > 0},
      {"--tp", o.tensor_parallel > 0},
      {"--dp", o.data_parallel > 0},
      {"--zero", o.zero.has_value()},
      {"--faults", o.faults_enabled()},
      {"--fault-seed", o.fault_seed != 0},
      {"--ckpt-interval", o.ckpt_interval > 0},
      {"--ckpt-auto", o.ckpt_auto},
      {"--mtbf", o.mtbf > 0.0},
      {"--shard", o.sharded()},
      {"--program-cache", !o.program_cache_dir.empty()},
      {"--no-program-cache", o.no_program_cache},
      {"--chaos-exec", !o.chaos_exec.empty()},
  };
}

bool contains(std::initializer_list<std::string_view> names,
              std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Rejects the first flag given on the command line that \p refused names.
template <typename Refused>
void reject_if(const CliOptions& options, Refused refused,
               std::string_view why) {
  for (const auto& [flag, given] : given_flags(options)) {
    util::expects(!given || !refused(flag),
                  std::string(flag) + " is not supported here: " +
                      std::string(why));
  }
}

}  // namespace

void reject_flags(const CliOptions& options,
                  std::initializer_list<std::string_view> flags,
                  std::string_view why) {
  reject_if(
      options, [flags](std::string_view f) { return contains(flags, f); },
      why);
}

void reject_flags_except(const CliOptions& options,
                         std::initializer_list<std::string_view> applied,
                         std::string_view why) {
  reject_if(
      options, [applied](std::string_view f) { return !contains(applied, f); },
      why);
}

void reject_positionals(const CliOptions& options,
                        std::initializer_list<std::string_view> modes) {
  for (std::size_t i = 0; i < options.positional.size(); ++i) {
    if (i == 0 && contains(modes, options.positional[i])) continue;
    std::string message = "unexpected argument '";
    message += options.positional[i];
    message += modes.size() == 0 ? "': this binary takes none"
                                 : "': this binary takes one mode at most:";
    for (const std::string_view mode : modes) {
      message += ' ';
      message += mode;
    }
    util::expects(false, message);
  }
}

bool matches_point_filter(const CliOptions& options,
                          const SweepPoint& point) {
  for (const auto& [axis, expected] : options.point_filter) {
    // value() rejects unknown axis names (typo protection).
    if (to_string(point.value(axis)) != expected) return false;
  }
  return true;
}

std::vector<SweepPoint> select_points(const SweepSpec& spec,
                                      const CliOptions& options) {
  std::vector<SweepPoint> selected = spec.points();
  if (options.points_enabled()) {
    const std::vector<std::string> names = spec.axis_names();
    for (const auto& [axis, value] : options.point_filter) {
      (void)value;
      util::expects(
          std::find(names.begin(), names.end(), axis) != names.end(),
          "--points names unknown axis '" + axis + "'");
    }
    std::vector<SweepPoint> filtered;
    for (SweepPoint& point : selected) {
      if (matches_point_filter(options, point)) {
        filtered.push_back(std::move(point));
      }
    }
    util::check(!filtered.empty(),
                "--points selection matches no grid cell");
    selected = std::move(filtered);
  }
  if (options.sharded()) {
    // Deterministic round-robin partition of the (filtered) selection:
    // sweep_merge's interleave is exactly the inverse, restoring the
    // canonical single-process order. A shard may come up empty when there
    // are more shards than points — it writes a header-only CSV.
    std::vector<SweepPoint> shard;
    for (std::size_t j = 0; j < selected.size(); ++j) {
      if (j % static_cast<std::size_t>(options.shard_count) ==
          static_cast<std::size_t>(options.shard_index)) {
        shard.push_back(std::move(selected[j]));
      }
    }
    selected = std::move(shard);
  }
  return selected;
}

}  // namespace ssdtrain::sweep
