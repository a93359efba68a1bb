// A bfly_serviced child process driven over its stdin/stdout pipes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Spawns `exe args...` and waits for its READY line. Throws
  /// std::runtime_error when the spawn fails or no READY arrives.
  Daemon(const std::string& exe, const std::vector<std::string>& args);
  /// Closes the pipes and reaps the child (kills it if still running).
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Writes all of `bytes` (one or more newline-terminated lines).
  void send(std::string_view bytes);
  /// Reads the next response line without its newline; false on EOF.
  bool read_line(std::string& line);
  /// Sends one line and returns the next response line.
  std::string ask(const std::string& line);

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Sends QUIT, waits for the child to exit and returns its peak
  /// resident set in MiB (0 when it did not exit cleanly).
  double finish();

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
