// A single-threaded HTTP/1.1 client over a few keep-alive loopback
// connections, driven by one epoll loop with a nanosecond timerfd so an
// open-loop schedule can wake exactly when the next request is due.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One finished exchange. `status` is 0 on a transport failure (reset,
/// early close, timeout); the connection is then reopened.
struct Exchange {
  std::size_t conn = 0;
  int status = 0;
  std::string body;
  std::uint64_t sent_ns = 0;        ///< first byte handed to the kernel
  std::uint64_t written_ns = 0;     ///< last request byte handed to the kernel
  std::uint64_t first_byte_ns = 0;  ///< first response byte read
  std::uint64_t done_ns = 0;        ///< whole response read
};

class LoopbackClient {
 public:
  /// Opens `connections` connections to 127.0.0.1:port; ok() says whether
  /// all of them connected.
  LoopbackClient(int port, std::size_t connections);
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  bool ok() const noexcept { return ok_; }
  std::size_t connections() const noexcept { return conns_.size(); }
  bool idle(std::size_t conn) const { return !conns_[conn].busy; }
  std::size_t in_flight() const;

  /// Send a whole request (`wire` must stay alive until its exchange
  /// completes) on an idle connection.
  void send(std::size_t conn, std::string_view wire);

  /// Wait until at least one exchange completes or `wake_ns` (steady
  /// clock) passes, and append finished exchanges to `out`. A wake_ns of
  /// 0 waits for a completion only. With `spin` the wait polls without
  /// sleeping: a sleeping vCPU can wake milliseconds late, which an
  /// open-loop schedule cannot afford. Exchanges older than the stall
  /// budget fail as transport errors.
  void poll(std::uint64_t wake_ns, std::vector<Exchange>& out, bool spin = false);

 private:
  struct Conn {
    int fd = -1;
    bool busy = false;
    std::string_view wire;
    std::size_t written = 0;
    std::string in;
    std::size_t head_len = 0;   ///< bytes up to and including CRLFCRLF, 0 = unknown
    std::size_t total_len = 0;  ///< head + Content-Length once known
    bool close_after = false;
    Exchange ex;
  };

  bool open(std::size_t index);  ///< connect and register with epoll
  void close_conn(Conn& conn);
  void flush(std::size_t index);
  void read_ready(std::size_t index, std::vector<Exchange>& out);
  void finish(std::size_t index, int status, std::vector<Exchange>& out);
  void set_write_interest(std::size_t index, bool want);

  int port_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  bool ok_ = true;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
