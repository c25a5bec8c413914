// TCP implementation of dist/transport.h: workers dial the coordinator and
// ship their final frame over a socket. See transport.h for the protocol
// (hello / hello-ack / frame / fin-ack) and the determinism argument.

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "dist/transport.h"
#include "util/check.h"

namespace streamkc {
namespace {

void SetNonBlocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  CHECK_GE(flags, 0);
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  CHECK_EQ(::fcntl(fd, F_SETFL, flags), 0);
}

// ---- Address helpers (IPv4 "host:port") ----------------------------------

bool ParseHostPort(const std::string& spec, bool listen_side,
                   sockaddr_in* out, std::string* error) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    *error = "address '" + spec + "' is not host:port";
    return false;
  }
  const std::string host = spec.substr(0, colon);
  const std::string port_s = spec.substr(colon + 1);
  char* end = nullptr;
  errno = 0;
  const unsigned long port = std::strtoul(port_s.c_str(), &end, 10);
  if (port_s.empty() || errno != 0 || end != port_s.c_str() + port_s.size() ||
      port > 65535) {
    *error = "bad port in '" + spec + "'";
    return false;
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  if (host.empty() || host == "0.0.0.0") {
    if (!listen_side) {
      *error = "dial address '" + spec + "' needs a concrete host";
      return false;
    }
    out->sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) != 1) {
    *error = "bad IPv4 host in '" + spec + "'";
    return false;
  }
  return true;
}

std::string AddrToString(const sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool RecvAck(int fd) {
  char b = 0;
  for (;;) {
    ssize_t n = ::recv(fd, &b, 1, 0);
    if (n == 1) return b == kTransportAck;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error: the coordinator dropped us
  }
}

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(const TransportConfig& config) : config_(config) {}

  ~TcpTransport() override {
    for (const Pending& p : pending_) ::close(p.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  const char* name() const override { return "tcp"; }

  bool StartRun(std::string* error) override {
    IgnoreSigPipe();  // acks to a dead worker must not kill the coordinator
    sockaddr_in addr;
    if (!ParseHostPort(config_.listen_addr, /*listen_side=*/true, &addr,
                       error)) {
      return false;
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
      *error = "bind/listen " + config_.listen_addr + ": " +
               std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    CHECK_EQ(::getsockname(listen_fd_,
                           reinterpret_cast<sockaddr*>(&bound), &len),
             0);
    bound_addr_ = AddrToString(bound);
    if (!config_.connect_addr.empty()) {
      dial_addr_ = config_.connect_addr;
    } else if (bound.sin_addr.s_addr == htonl(INADDR_ANY)) {
      // Forked workers dial loopback; remote workers get --connect.
      dial_addr_ = "127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
    } else {
      dial_addr_ = bound_addr_;
    }
    sockaddr_in dial_check;
    if (!ParseHostPort(dial_addr_, /*listen_side=*/false, &dial_check,
                       error)) {
      return false;
    }
    SetNonBlocking(listen_fd_, true);
    return true;
  }

  void OnChildFork() override {
    // The child inherited the coordinator's reactor fds; drop them so a
    // long-running worker cannot hold the port or other workers'
    // half-open connections alive.
    for (const Pending& p : pending_) ::close(p.fd);
    pending_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }

  void AppendPollFds(std::vector<pollfd>* pfds) override {
    pfds->push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const Pending& p : pending_) {
      pfds->push_back(pollfd{p.fd, POLLIN, 0});
    }
  }

  void HandlePollFds(const pollfd* pfds, size_t n,
                     std::vector<Ready>* ready) override {
    CHECK_EQ(n, 1 + pending_.size());
    // Half-open connections first (reverse order: completed or dead ones
    // are swap-removed), then the accept queue.
    for (size_t i = pending_.size(); i-- > 0;) {
      if ((pfds[1 + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (PumpPending(&pending_[i], ready)) {
        pending_[i] = pending_.back();
        pending_.pop_back();
      }
    }
    if ((pfds[0].revents & POLLIN) != 0) AcceptNew(ready);
  }

  void FinishShipFd(int fd, bool acked) override {
    if (acked) {
      const char ack = kTransportAck;
      // Best-effort: a worker that died mid-ship cannot read its fin-ack,
      // and its exit pipe will classify the death.
      (void)SendAll(fd, &ack, 1);
    }
    ::close(fd);
  }

  bool ShipFinalFrame(int exit_fd, uint32_t worker, uint32_t generation,
                      const DegradationPolicy& policy,
                      WorkerCounters* counters,
                      const std::function<Frame(const WorkerCounters&)>&
                          make_frame) override {
    (void)exit_fd;
    IgnoreSigPipe();
    Backoff backoff(policy);
    for (;;) {
      int fd = DialAndHello(worker, generation);
      if (fd >= 0) {
        // Re-encode per attempt: connect_retries just changed, and the
        // shipped counters must describe the run that actually landed.
        const std::string bytes = EncodeFrame(make_frame(*counters));
        bool ok = SendAll(fd, bytes.data(), bytes.size());
        if (ok) {
          ::shutdown(fd, SHUT_WR);  // frame done; coordinator sees EOF
          ok = RecvAck(fd);         // fin-ack: the frame was decoded
        }
        ::close(fd);
        if (ok) return true;
      }
      if (!backoff.Wait()) return false;
      ++counters->connect_retries;
    }
  }

  Stats stats() const override { return stats_; }
  std::string bound_address() const override { return bound_addr_; }

 private:
  struct Pending {
    int fd = -1;
    std::string hello;  // bytes of the 12-byte hello read so far
  };

  void AcceptNew(std::vector<Ready>* ready) {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN/EWOULDBLOCK: queue drained
      }
      SetNonBlocking(fd, true);
      Pending p;
      p.fd = fd;
      // The hello is usually already in flight; try to finish it now so a
      // fast worker binds without another poll round-trip.
      if (!PumpPending(&p, ready)) pending_.push_back(p);
    }
  }

  // Reads hello bytes; returns true when the pending entry is finished
  // (bound, dropped, or dead) and must be removed from pending_.
  bool PumpPending(Pending* p, std::vector<Ready>* ready) {
    while (p->hello.size() < kHelloBytes) {
      char buf[kHelloBytes];
      ssize_t n = ::read(p->fd, buf, kHelloBytes - p->hello.size());
      if (n > 0) {
        p->hello.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      ::close(p->fd);  // EOF or error before the hello completed
      return true;
    }
    uint32_t worker = 0;
    uint32_t generation = 0;
    if (!DecodeHello(p->hello.data(), &worker, &generation)) {
      std::fprintf(stderr, "dist: tcp connection with bad hello dropped\n");
      ::close(p->fd);
      return true;
    }
    const uint64_t ordinal = connection_ordinal_[worker]++;
    if (drop_hook_ && drop_hook_(worker, ordinal)) {
      // socket-drop fault: close without the hello-ack. The worker
      // observes the drop at a fixed protocol point and redials.
      ++stats_.socket_drops;
      ::close(p->fd);
      return true;
    }
    const char ack = kTransportAck;
    if (!SendAll(p->fd, &ack, 1)) {
      ::close(p->fd);
      return true;
    }
    SetNonBlocking(p->fd, false);  // the reactor's drain loop expects
                                   // blocking reads, same as a pipe fd
    ++stats_.connections_accepted;
    ready->push_back(Ready{worker, generation, p->fd});
    return true;
  }

  int DialAndHello(uint32_t worker, uint32_t generation) {
    sockaddr_in addr;
    std::string error;
    if (!ParseHostPort(dial_addr_, /*listen_side=*/false, &addr, &error)) {
      return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    int r;
    do {
      r = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr));
    } while (r != 0 && errno == EINTR);
    char hello[kHelloBytes];
    EncodeHello(worker, generation, hello);
    if (r != 0 || !SendAll(fd, hello, kHelloBytes) || !RecvAck(fd)) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  TransportConfig config_;
  int listen_fd_ = -1;
  std::string bound_addr_;
  std::string dial_addr_;
  std::vector<Pending> pending_;
  std::unordered_map<uint32_t, uint64_t> connection_ordinal_;
  Stats stats_;
};

}  // namespace

namespace internal {
std::unique_ptr<Transport> MakeTcpTransport(const TransportConfig& config) {
  return std::make_unique<TcpTransport>(config);
}
}  // namespace internal

}  // namespace streamkc
