#include "server_process.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace perfbench {

namespace {

/// Pids of live children, for kill_all_servers() from a signal handler.
constexpr std::size_t kMaxServers = 8;
std::atomic<pid_t> g_live[kMaxServers];

void track(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = pid;
    slot.compare_exchange_strong(expected, 0);
  }
}

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

}  // namespace

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr = loopback(0);
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

bool port_in_use(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const sockaddr_in addr = loopback(port);
  const bool connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return connected;
}

void kill_all_servers() noexcept {
  for (auto& slot : g_live) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

bool ServerProcess::start(const std::string& cli, const std::string& trace,
                          const std::string& registry, const std::string& log_path,
                          std::string& error) {
  stop();
  port_ = free_port();
  if (port_ == 0) {
    error = "no free loopback port";
    return false;
  }
  if (port_in_use(port_)) {
    error = "port " + std::to_string(port_) + " is held by a stale server";
    return false;
  }
  const std::string port_text = std::to_string(port_);
  std::vector<std::string> args = {cli,      "serve",      "--trace",     trace,
                                   "--port", port_text,    "--registry",  registry,
                                   "--log-level", "warn"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Die with the benchmark, even when it is killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  track(pid);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      untrack(pid_);
      pid_ = -1;
      error = "server exited during start-up (status " + std::to_string(status) +
              "); see " + log_path;
      return false;
    }
    int code = 0;
    std::string body;
    if (mcb::http_request(port_, "GET", "/healthz", "", code, body) && code == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  error = "server did not answer /healthz within 60 s";
  stop();
  return false;
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 300 && !reaped; ++i) {
    reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  untrack(pid_);
  pid_ = -1;
}

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::stod(field);
    if (i == 13) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
