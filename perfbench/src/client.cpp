#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "bench_math.hpp"
#include "util/net.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTimerKey = std::numeric_limits<std::uint64_t>::max();
/// An exchange with no response after this long fails as a transport error.
constexpr std::uint64_t kStallNs = 30ULL * 1000 * 1000 * 1000;

bool iequals_prefix(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) != name[i]) return false;
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

}  // namespace

LoopbackClient::LoopbackClient(int port, std::size_t connections)
    : port_(port), conns_(connections) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    ok_ = false;
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (!open(i)) ok_ = false;
  }
}

LoopbackClient::~LoopbackClient() {
  for (Conn& c : conns_) close_conn(c);
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::size_t LoopbackClient::in_flight() const {
  std::size_t n = 0;
  for (const Conn& c : conns_) n += c.busy ? 1 : 0;
  return n;
}

bool LoopbackClient::open(std::size_t index) {
  Conn& conn = conns_[index];
  conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close_conn(conn);
    return false;
  }
  const int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = index;
  if (!mcb::set_nonblocking(conn.fd) || ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
    close_conn(conn);
    return false;
  }
  return true;
}

void LoopbackClient::close_conn(Conn& conn) {
  if (conn.fd >= 0) ::close(conn.fd);  // close() also drops it from the epoll set
  conn.fd = -1;
}

void LoopbackClient::set_write_interest(std::size_t index, bool want) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0U);
  ev.data.u64 = index;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conns_[index].fd, &ev);
}

void LoopbackClient::send(std::size_t index, std::string_view wire) {
  Conn& c = conns_[index];
  c.busy = true;
  c.wire = wire;
  c.written = 0;
  c.in.clear();
  c.head_len = 0;
  c.total_len = 0;
  c.close_after = false;
  c.ex = Exchange{};
  c.ex.conn = index;
  c.ex.sent_ns = now_ns();
  flush(index);
}

void LoopbackClient::flush(std::size_t index) {
  Conn& c = conns_[index];
  while (c.fd >= 0 && c.written < c.wire.size()) {
    const ssize_t n = ::send(c.fd, c.wire.data() + c.written, c.wire.size() - c.written,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      set_write_interest(index, true);
      return;
    }
    close_conn(c);  // the next poll() reports the failure
    return;
  }
  if (c.fd >= 0 && c.ex.written_ns == 0) {
    c.ex.written_ns = now_ns();
    set_write_interest(index, false);
  }
}

void LoopbackClient::read_ready(std::size_t index, std::vector<Exchange>& out) {
  Conn& c = conns_[index];
  char buffer[64 * 1024];
  for (;;) {
    if (c.fd < 0) break;
    const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      if (c.busy && c.in.empty()) c.ex.first_byte_ns = now_ns();
      c.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(c);  // EOF or error
    break;
  }
  if (!c.busy) {
    // Nothing outstanding: unsolicited bytes or a close. Reopen on close.
    c.in.clear();
    if (c.fd < 0) open(index);
    return;
  }
  if (c.head_len == 0) {
    const std::size_t end = c.in.find("\r\n\r\n");
    if (end != std::string::npos) {
      c.head_len = end + 4;
      std::size_t content_length = 0;
      std::string_view head(c.in.data(), end);
      std::size_t pos = head.find("\r\n");
      while (pos != std::string_view::npos) {
        const std::size_t next = head.find("\r\n", pos + 2);
        const std::string_view line =
            head.substr(pos + 2, next == std::string_view::npos ? head.npos : next - pos - 2);
        if (iequals_prefix(line, "content-length:")) {
          content_length = std::strtoull(std::string(trim(line.substr(15))).c_str(), nullptr, 10);
        } else if (iequals_prefix(line, "connection:")) {
          c.close_after = trim(line.substr(11)) == "close";
        }
        pos = next;
      }
      c.total_len = c.head_len + content_length;
    }
  }
  if (c.head_len != 0 && c.in.size() >= c.total_len) {
    int status = 0;
    if (c.in.size() > 12 && c.in.compare(0, 5, "HTTP/") == 0) {
      status = std::atoi(c.in.c_str() + 9);
    }
    c.ex.body.assign(c.in, c.head_len, c.total_len - c.head_len);
    finish(index, status, out);
  } else if (c.fd < 0) {
    finish(index, 0, out);
  }
}

void LoopbackClient::finish(std::size_t index, int status, std::vector<Exchange>& out) {
  Conn& c = conns_[index];
  c.ex.status = status;
  c.ex.done_ns = now_ns();
  out.push_back(std::move(c.ex));
  c.ex = Exchange{};
  c.busy = false;
  c.in.clear();
  if (status == 0 || c.close_after || c.fd < 0) {
    close_conn(c);
    open(index);
  }
}

void LoopbackClient::poll(std::uint64_t wake_ns, std::vector<Exchange>& out, bool spin) {
  itimerspec spec{};
  if (wake_ns != 0 && !spin) {
    spec.it_value.tv_sec = static_cast<time_t>(wake_ns / 1000000000ULL);
    spec.it_value.tv_nsec = static_cast<long>(wake_ns % 1000000000ULL);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) spec.it_value.tv_nsec = 1;
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);

  const std::size_t before = out.size();
  epoll_event events[16];
  for (;;) {
    // A send that failed outright closed its socket; report it now.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].busy && conns_[i].fd < 0) finish(i, 0, out);
    }
    if (out.size() > before) return;
    if (wake_ns != 0 && now_ns() >= wake_ns) return;
    const int n = ::epoll_wait(epoll_fd_, events, 16, spin ? 0 : 1000);
    bool timer_fired = false;
    for (int e = 0; e < n; ++e) {
      const std::uint64_t key = events[e].data.u64;
      if (key == kTimerKey) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r = ::read(timer_fd_, &expirations, sizeof(expirations));
        timer_fired = true;
        continue;
      }
      if (key >= conns_.size()) continue;
      if ((events[e].events & EPOLLOUT) != 0U) flush(key);
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0U) read_ready(key, out);
    }
    const std::uint64_t now = now_ns();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.busy && now - c.ex.sent_ns > kStallNs) {
        close_conn(c);
        finish(i, 0, out);
      }
    }
    if (out.size() > before || timer_fired) return;
  }
}

}  // namespace perfbench
