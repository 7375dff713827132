#pragma once

/// \file schedule.hpp
/// Training-step schedules. SSDTrain adds hints to Megatron's and
/// DeepSpeed's schedulers (paper §III-A, Fig. 2 ③④): before and after each
/// command the tensor cache is notified of the upcoming stage so it can
/// switch micro-batch records, prefetch, or keep the activations of a
/// module whose backward follows immediately.
///
/// For cluster execution each pipeline stage runs its own command stream.
/// Commands carry a `chunk` index so one GPU can interleave several model
/// chunks (Megatron's interleaved 1F1B), and `expand_cluster_commands`
/// annotates a stage stream with the send/recv commands that exchange
/// boundary activations with the neighbouring stages.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ssdtrain::sched {

enum class CommandKind : std::uint8_t {
  forward,         ///< run forward for a micro-batch
  backward,        ///< run backward for a micro-batch
  optimizer_step,  ///< weight update (end of step)
  recv_forward,    ///< receive boundary activations from the previous stage
  send_forward,    ///< send boundary activations to the next stage
  recv_backward,   ///< receive boundary gradients from the next stage
  send_backward,   ///< send boundary gradients to the previous stage
};

struct Command {
  CommandKind kind = CommandKind::forward;
  int micro_batch = 0;
  /// Model chunk on this GPU (interleaved schedules); virtual stage =
  /// chunk * pipeline_stages + stage. Always 0 for plain schedules.
  int chunk = 0;

  friend bool operator==(const Command&, const Command&) = default;
};

std::string to_string(const Command& command);

/// True for forward/backward/optimizer — the kinds an Executor runs; the
/// send/recv kinds are handled by the cluster driver (flows on the fabric).
bool is_compute_command(const Command& command);

/// Gradient accumulation without pipeline parallelism: each micro-batch
/// finishes forward and backward before the next starts (paper §IV-A).
std::vector<Command> grad_accum_schedule(int micro_batches);

/// 1F1B (PipeDream-flush) schedule for one pipeline stage: `pp - stage - 1`
/// warm-up forwards, then alternating 1F1B, then the cool-down backwards.
std::vector<Command> schedule_1f1b(int micro_batches, int pipeline_stages,
                                   int stage);

/// GPipe: all forwards, then all backwards (higher activation pressure).
std::vector<Command> schedule_gpipe(int micro_batches, int pipeline_stages,
                                    int stage);

/// Megatron's interleaved 1F1B: each GPU hosts `virtual_stages` model
/// chunks; virtual stage chunk * pp + stage runs the layer range of that
/// chunk. Requires micro_batches % pipeline_stages == 0 (the Megatron
/// constraint). virtual_stages == 1 degenerates to plain 1F1B.
std::vector<Command> schedule_interleaved_1f1b(int micro_batches,
                                               int pipeline_stages, int stage,
                                               int virtual_stages);

/// Ideal pipeline bubble fraction (pp-1)/(mb+pp-1) — the quantity the
/// paper's Fig. 8(a) discussion ties to micro-batch size.
double ideal_bubble_fraction(int micro_batches, int pipeline_stages);

/// Interleaved-schedule ideal bubble (pp-1)/(mb*v + pp-1): v chunks shrink
/// the per-stage work unit, shrinking the bubble by the same factor.
double ideal_bubble_fraction_interleaved(int micro_batches,
                                         int pipeline_stages,
                                         int virtual_stages);

/// True when schedule[i] is a forward whose micro-batch's backward is the
/// next command — the condition under which the tensor cache keeps the
/// last module's activations in GPU memory (Fig. 2 ④).
bool backward_follows_immediately(const std::vector<Command>& schedule,
                                  std::size_t index);

/// Number of in-flight micro-batches (forwarded but not yet backwarded,
/// counted per chunk) at the worst point of the schedule — sizes the
/// per-micro-batch records and the per-stage planner budget.
int peak_in_flight_micro_batches(const std::vector<Command>& schedule);

/// Pipeline schedule families the cluster session can drive.
enum class PipelineKind : std::uint8_t {
  one_f_one_b,       ///< PipeDream-flush 1F1B
  gpipe,             ///< all-forward-then-all-backward
  interleaved_1f1b,  ///< Megatron interleaved 1F1B (virtual stages)
};

std::string_view to_string(PipelineKind kind);

/// Per-stage command stream for the given schedule family.
std::vector<Command> stage_schedule(PipelineKind kind, int micro_batches,
                                    int pipeline_stages, int stage,
                                    int virtual_stages = 1);

/// Expands a per-stage compute stream with the send/recv commands that move
/// boundary activations (and their gradients) between pipeline stages:
/// recv_forward precedes each forward on a non-first virtual stage,
/// send_forward follows each forward on a non-last one, and symmetrically
/// for backward. `first_virtual` / `last_virtual` report whether a given
/// chunk is virtual stage 0 / V-1 (the interleaved wrap-around means chunk 0
/// is only "first" on GPU 0).
std::vector<Command> expand_cluster_commands(
    const std::vector<Command>& stage_commands,
    const std::vector<bool>& first_virtual,
    const std::vector<bool>& last_virtual);

}  // namespace ssdtrain::sched
