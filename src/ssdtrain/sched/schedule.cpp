#include "ssdtrain/sched/schedule.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/label.hpp"

namespace ssdtrain::sched {

std::string to_string(const Command& command) {
  std::string out;
  switch (command.kind) {
    case CommandKind::forward:
      out = util::label("F", command.micro_batch);
      break;
    case CommandKind::backward:
      out = util::label("B", command.micro_batch);
      break;
    case CommandKind::optimizer_step:
      return "OPT";
    case CommandKind::recv_forward:
      out = util::label("RF", command.micro_batch);
      break;
    case CommandKind::send_forward:
      out = util::label("SF", command.micro_batch);
      break;
    case CommandKind::recv_backward:
      out = util::label("RB", command.micro_batch);
      break;
    case CommandKind::send_backward:
      out = util::label("SB", command.micro_batch);
      break;
  }
  // Chunk suffix only for interleaved streams, so plain schedules keep the
  // historical "F2" / "B0" spellings.
  if (command.chunk > 0) out += util::label("/", command.chunk);
  return out;
}

bool is_compute_command(const Command& command) {
  switch (command.kind) {
    case CommandKind::forward:
    case CommandKind::backward:
    case CommandKind::optimizer_step:
      return true;
    case CommandKind::recv_forward:
    case CommandKind::send_forward:
    case CommandKind::recv_backward:
    case CommandKind::send_backward:
      return false;
  }
  return false;
}

std::vector<Command> grad_accum_schedule(int micro_batches) {
  util::expects(micro_batches >= 1, "need at least one micro-batch");
  std::vector<Command> out;
  for (int mb = 0; mb < micro_batches; ++mb) {
    out.push_back({CommandKind::forward, mb});
    out.push_back({CommandKind::backward, mb});
  }
  out.push_back({CommandKind::optimizer_step, 0});
  return out;
}

std::vector<Command> schedule_1f1b(int micro_batches, int pipeline_stages,
                                   int stage) {
  util::expects(micro_batches >= 1, "need at least one micro-batch");
  util::expects(pipeline_stages >= 1, "need at least one stage");
  util::expects(stage >= 0 && stage < pipeline_stages, "stage out of range");

  const int warmup =
      std::min(pipeline_stages - stage - 1, micro_batches);
  std::vector<Command> out;
  int next_fwd = 0;
  int next_bwd = 0;
  for (int i = 0; i < warmup; ++i) {
    out.push_back({CommandKind::forward, next_fwd++});
  }
  // Steady state: one forward, one backward.
  while (next_fwd < micro_batches) {
    out.push_back({CommandKind::forward, next_fwd++});
    out.push_back({CommandKind::backward, next_bwd++});
  }
  // Cool-down: drain remaining backwards.
  while (next_bwd < micro_batches) {
    out.push_back({CommandKind::backward, next_bwd++});
  }
  out.push_back({CommandKind::optimizer_step, 0});
  return out;
}

std::vector<Command> schedule_gpipe(int micro_batches, int pipeline_stages,
                                    int stage) {
  util::expects(micro_batches >= 1, "need at least one micro-batch");
  util::expects(stage >= 0 && stage < pipeline_stages, "stage out of range");
  std::vector<Command> out;
  for (int mb = 0; mb < micro_batches; ++mb) {
    out.push_back({CommandKind::forward, mb});
  }
  for (int mb = micro_batches - 1; mb >= 0; --mb) {
    out.push_back({CommandKind::backward, mb});
  }
  out.push_back({CommandKind::optimizer_step, 0});
  return out;
}

std::vector<Command> schedule_interleaved_1f1b(int micro_batches,
                                               int pipeline_stages, int stage,
                                               int virtual_stages) {
  util::expects(virtual_stages >= 1, "need at least one virtual stage");
  if (virtual_stages == 1) {
    return schedule_1f1b(micro_batches, pipeline_stages, stage);
  }
  util::expects(micro_batches >= 1, "need at least one micro-batch");
  util::expects(pipeline_stages >= 1, "need at least one stage");
  util::expects(stage >= 0 && stage < pipeline_stages, "stage out of range");
  util::expects(micro_batches % pipeline_stages == 0,
                "interleaved 1F1B needs micro_batches % pipeline_stages == 0");

  // Megatron's interleaved schedule: micro-batches advance through chunks in
  // groups of pp, so position k maps to chunk (k/pp) mod v and micro-batch
  // (k/(pp*v))*pp + k mod pp. Backwards walk the chunks in reverse.
  const int pp = pipeline_stages;
  const int v = virtual_stages;
  const int total = micro_batches * v;
  const int warmup = std::min((pp - stage - 1) * 2 + (v - 1) * pp, total);

  auto fwd = [&](int k) {
    return Command{CommandKind::forward, (k / (pp * v)) * pp + k % pp,
                   (k / pp) % v};
  };
  auto bwd = [&](int k) {
    return Command{CommandKind::backward, (k / (pp * v)) * pp + k % pp,
                   v - 1 - (k / pp) % v};
  };

  std::vector<Command> out;
  out.reserve(static_cast<std::size_t>(2 * total + 1));
  for (int k = 0; k < warmup; ++k) out.push_back(fwd(k));
  for (int k = warmup; k < total; ++k) {
    out.push_back(fwd(k));
    out.push_back(bwd(k - warmup));
  }
  for (int k = total - warmup; k < total; ++k) out.push_back(bwd(k));
  out.push_back({CommandKind::optimizer_step, 0});
  return out;
}

double ideal_bubble_fraction(int micro_batches, int pipeline_stages) {
  util::expects(micro_batches >= 1 && pipeline_stages >= 1, "bad arguments");
  return static_cast<double>(pipeline_stages - 1) /
         static_cast<double>(micro_batches + pipeline_stages - 1);
}

double ideal_bubble_fraction_interleaved(int micro_batches,
                                         int pipeline_stages,
                                         int virtual_stages) {
  util::expects(virtual_stages >= 1, "bad arguments");
  return ideal_bubble_fraction(micro_batches * virtual_stages,
                               pipeline_stages);
}

bool backward_follows_immediately(const std::vector<Command>& schedule,
                                  std::size_t index) {
  util::expects(index < schedule.size(), "index out of range");
  const Command& cmd = schedule[index];
  if (cmd.kind != CommandKind::forward) return false;
  if (index + 1 >= schedule.size()) return false;
  const Command& next = schedule[index + 1];
  return next.kind == CommandKind::backward &&
         next.micro_batch == cmd.micro_batch && next.chunk == cmd.chunk;
}

int peak_in_flight_micro_batches(const std::vector<Command>& schedule) {
  std::set<std::pair<int, int>> in_flight;
  int peak = 0;
  for (const Command& cmd : schedule) {
    if (cmd.kind == CommandKind::forward) {
      in_flight.insert({cmd.chunk, cmd.micro_batch});
      peak = std::max(peak, static_cast<int>(in_flight.size()));
    } else if (cmd.kind == CommandKind::backward) {
      in_flight.erase({cmd.chunk, cmd.micro_batch});
    }
  }
  return peak;
}

std::string_view to_string(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::one_f_one_b:
      return "1f1b";
    case PipelineKind::gpipe:
      return "gpipe";
    case PipelineKind::interleaved_1f1b:
      return "interleaved";
  }
  return "?";
}

std::vector<Command> stage_schedule(PipelineKind kind, int micro_batches,
                                    int pipeline_stages, int stage,
                                    int virtual_stages) {
  switch (kind) {
    case PipelineKind::one_f_one_b:
      util::expects(virtual_stages == 1, "1F1B has no virtual stages");
      return schedule_1f1b(micro_batches, pipeline_stages, stage);
    case PipelineKind::gpipe:
      util::expects(virtual_stages == 1, "GPipe has no virtual stages");
      return schedule_gpipe(micro_batches, pipeline_stages, stage);
    case PipelineKind::interleaved_1f1b:
      return schedule_interleaved_1f1b(micro_batches, pipeline_stages, stage,
                                       virtual_stages);
  }
  util::check(false, "unknown pipeline kind");
  return {};
}

std::vector<Command> expand_cluster_commands(
    const std::vector<Command>& stage_commands,
    const std::vector<bool>& first_virtual,
    const std::vector<bool>& last_virtual) {
  util::expects(first_virtual.size() == last_virtual.size() &&
                    !first_virtual.empty(),
                "per-chunk stage-position flags required");
  std::vector<Command> out;
  out.reserve(stage_commands.size() * 3);
  for (const Command& cmd : stage_commands) {
    util::expects(is_compute_command(cmd),
                  "stage schedule already expanded");
    const auto chunk = static_cast<std::size_t>(cmd.chunk);
    util::expects(chunk < first_virtual.size(), "chunk out of range");
    switch (cmd.kind) {
      case CommandKind::forward:
        if (!first_virtual[chunk]) {
          out.push_back({CommandKind::recv_forward, cmd.micro_batch,
                         cmd.chunk});
        }
        out.push_back(cmd);
        if (!last_virtual[chunk]) {
          out.push_back({CommandKind::send_forward, cmd.micro_batch,
                         cmd.chunk});
        }
        break;
      case CommandKind::backward:
        if (!last_virtual[chunk]) {
          out.push_back({CommandKind::recv_backward, cmd.micro_batch,
                         cmd.chunk});
        }
        out.push_back(cmd);
        if (!first_virtual[chunk]) {
          out.push_back({CommandKind::send_backward, cmd.micro_batch,
                         cmd.chunk});
        }
        break;
      default:
        out.push_back(cmd);
        break;
    }
  }
  return out;
}

}  // namespace ssdtrain::sched
