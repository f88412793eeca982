// One `mcbound serve` child process per benchmark phase: launched on a
// free loopback port with its own registry directory, stopped (and
// reaped) by the destructor on every exit path, and killed by the
// kernel if the benchmark itself dies first.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// A port nothing listens on right now (bound once on 127.0.0.1:0).
int free_port();
/// True when something accepts connections on 127.0.0.1:port.
bool port_in_use(int port);

/// Stop every server still running (for the fatal-signal handler).
void kill_all_servers() noexcept;

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launch `cli serve --trace T --port P --registry R --log-level warn`
  /// with stdout/stderr to `log_path`, then wait (up to 60 s) until
  /// GET /healthz answers 200. Refuses a port that is already held.
  /// Returns false with `error` set on any failure.
  bool start(const std::string& cli, const std::string& trace, const std::string& registry,
             const std::string& log_path, std::string& error);

  /// SIGTERM, up to 3 s grace, then SIGKILL; always reaps the child.
  void stop();

  int port() const noexcept { return port_; }

  /// utime + stime of the process so far, in seconds (/proc/<pid>/stat).
  double cpu_seconds() const;
  /// Peak resident set (VmHWM from /proc/<pid>/status), in MiB.
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench
