#include "daemon_client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  close(in_pipe[0]);
  close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    close(to_child_);
    close(from_child_);
    throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(rc));
  }
  std::string ready;
  if (!read_line(ready) || ready.rfind("READY", 0) != 0) {
    throw std::runtime_error("daemon did not announce READY (got '" + ready +
                             "')");
  }
}

Daemon::~Daemon() {
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
  if (pid_ > 0) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
  }
}

void Daemon::send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = write(to_child_, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("write to daemon failed");
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

bool Daemon::read_line(std::string& line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line.assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      return true;
    }
    buf_.erase(0, pos_);
    pos_ = 0;
    char chunk[1 << 16];
    const ssize_t n = read(from_child_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      line = buf_;
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Daemon::ask(const std::string& line) {
  send(line + "\n");
  std::string reply;
  if (!read_line(reply)) throw std::runtime_error("daemon closed its output");
  return reply;
}

double Daemon::finish() {
  send("QUIT\n");
  close(to_child_);
  to_child_ = -1;
  std::string rest;
  while (read_line(rest)) {
  }
  int status = 0;
  rusage ru{};
  const pid_t got = wait4(pid_, &status, 0, &ru);
  pid_ = -1;
  if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
