#include "ssdtrain/orchestrate/launcher.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::orchestrate {

namespace {

ExitStatus status_from(int wstatus) {
  ExitStatus status;
  if (WIFSIGNALED(wstatus)) {
    status.signaled = true;
    status.signal = WTERMSIG(wstatus);
  } else if (WIFEXITED(wstatus)) {
    status.code = WEXITSTATUS(wstatus);
  } else {
    // Neither exited nor signaled (should not reach poll/wait, which only
    // see terminal states); report it as a generic failure.
    status.code = -1;
  }
  return status;
}

}  // namespace

std::string ExitStatus::to_text() const {
  if (signaled) return "killed by signal " + std::to_string(signal);
  if (code == 0) return "exit 0";
  return "exit " + std::to_string(code);
}

std::string shell_quote(const std::string& word) {
  std::string out = "'";
  for (char c : word) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

Launcher::Launcher(std::string command_template,
                   std::vector<std::string> hosts)
    : template_(std::move(command_template)), hosts_(std::move(hosts)) {
  util::expects(template_.empty() ||
                    template_.find("{cmd}") != std::string::npos,
                "--launcher-template must contain {cmd}");
  util::expects(hosts_.empty() || !template_.empty(),
                "--hosts needs --launcher-template");
  util::expects(hosts_.empty() ||
                    template_.find("{host}") != std::string::npos,
                "--hosts given but --launcher-template has no {host}");
}

std::string Launcher::format(int shard,
                             const std::vector<std::string>& argv) const {
  std::string cmd;
  for (const std::string& arg : argv) {
    if (!cmd.empty()) cmd += ' ';
    cmd += shell_quote(arg);
  }
  const std::string host =
      hosts_.empty() ? std::string()
                     : hosts_[static_cast<std::size_t>(shard) %
                              hosts_.size()];
  std::string out = template_;
  const auto substitute = [&out](std::string_view key,
                                 const std::string& value) {
    for (std::size_t at = out.find(key); at != std::string::npos;
         at = out.find(key, at + value.size())) {
      out.replace(at, key.size(), value);
    }
  };
  substitute("{cmd}", cmd);
  substitute("{host}", host);
  substitute("{shard}", std::to_string(shard));
  return out;
}

int Launcher::spawn(int shard, const std::vector<std::string>& worker_argv,
                    const std::string& log_path) {
  util::expects(!worker_argv.empty(), "launcher: empty worker command");
  const std::vector<std::string> argv =
      template_.empty()
          ? worker_argv
          : std::vector<std::string>{"/bin/sh", "-c",
                                     format(shard, worker_argv)};
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("launcher: fork failed");
  }
  if (pid == 0) {
    // Child. Own process group so the supervisor's SIGKILL reaches any
    // helpers the worker spawns (ssh transports, shells).
    ::setpgid(0, 0);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    ::execvp(cargv[0], cargv.data());
    // exec failed: the conventional 127 ("command not found") lets the
    // supervisor distinguish a broken command from a crashing worker.
    ::_exit(127);
  }
  // Mirror the child's setpgid so kill(-pid) cannot race the exec.
  ::setpgid(pid, pid);
  return static_cast<int>(pid);
}

std::optional<ExitStatus> Launcher::poll(int handle) {
  int wstatus = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(handle), &wstatus, WNOHANG);
  if (r == 0) return std::nullopt;  // still running
  if (r < 0) {
    // Already reaped (or never ours): report a generic failure rather than
    // wedging the supervisor.
    ExitStatus status;
    status.code = -1;
    return status;
  }
  return status_from(wstatus);
}

void Launcher::kill(int handle) {
  // The whole process group; a SIGSTOPped process cannot defer SIGKILL.
  ::kill(-static_cast<pid_t>(handle), SIGKILL);
  ::kill(static_cast<pid_t>(handle), SIGKILL);
}

ExitStatus Launcher::wait(int handle) {
  int wstatus = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(handle), &wstatus, 0);
  if (r < 0) {
    ExitStatus status;
    status.code = -1;
    return status;
  }
  return status_from(wstatus);
}

}  // namespace ssdtrain::orchestrate
