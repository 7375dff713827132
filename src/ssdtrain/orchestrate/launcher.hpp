#pragma once

/// \file launcher.hpp
/// The sweep orchestrator's worker-process launcher. The supervisor needs
/// four verbs — spawn, poll, kill, wait. Without a command template a
/// worker is fork/exec'd on this machine; with one, remote execution (ssh,
/// a job queue) runs through the same verbs.
///
/// Handles are opaque ints (the child pid). Every launch runs a *local*
/// process; with a template, that local process is the transport (e.g.
/// `ssh host ...`), so killing the handle kills the transport and the
/// remote side is expected to die with its session.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace ssdtrain::orchestrate {

/// How a worker process ended.
struct ExitStatus {
  int code = 0;        ///< exit code when !signaled
  int signal = 0;      ///< terminating signal when signaled
  bool signaled = false;

  [[nodiscard]] bool ok() const { return !signaled && code == 0; }
  [[nodiscard]] std::string to_text() const;
};

/// Runs workers as processes on this machine (fork/exec), each in its own
/// process group so kill() takes out any helper processes it spawned.
///
/// An optional command template formats the worker command into a shell
/// command run through `/bin/sh -c`. Placeholders:
///   {cmd}    the worker argv, shell-quoted and space-joined
///   {host}   hosts[shard % hosts.size()] ("" with no host list)
///   {shard}  the shard index
/// e.g. --launcher-template 'ssh {host} {cmd}' --hosts gpu01,gpu02
///
/// Note: with a remote transport the worker's --csv path must live on a
/// filesystem the *orchestrator* can read (shared FS), because heartbeats
/// are CSV row counts.
class Launcher {
 public:
  /// An empty \p command_template execs the worker argv directly; a
  /// non-empty one must contain {cmd}, and \p hosts needs one with {host}.
  explicit Launcher(std::string command_template = {},
                    std::vector<std::string> hosts = {});

  /// The formatted shell command for a launch (exposed for tests/logs).
  [[nodiscard]] std::string format(int shard,
                                   const std::vector<std::string>& argv) const;

  /// Starts \p argv for shard \p shard with stdout+stderr appended to
  /// \p log_path. Returns an opaque handle. Throws std::runtime_error when
  /// the process cannot be started at all (fork failure); an exec failure
  /// inside the child surfaces as exit code 127 through poll().
  int spawn(int shard, const std::vector<std::string>& argv,
            const std::string& log_path);

  /// Non-blocking: the exit status if the worker has ended, else nullopt.
  [[nodiscard]] std::optional<ExitStatus> poll(int handle);

  /// SIGKILLs the worker's process group (a SIGSTOPped worker dies too —
  /// SIGKILL cannot be blocked or deferred by a stopped process).
  void kill(int handle);

  /// Blocks until the (killed) worker is reaped.
  ExitStatus wait(int handle);

 private:
  std::string template_;  ///< "" = exec the worker argv directly
  std::vector<std::string> hosts_;
};

/// 'a b'-safe single-quote shell quoting for {cmd} substitution.
std::string shell_quote(const std::string& word);

}  // namespace ssdtrain::orchestrate
