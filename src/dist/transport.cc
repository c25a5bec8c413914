#include "dist/transport.h"

#include <signal.h>
#include <unistd.h>

#include <cstring>

#include "util/check.h"

namespace streamkc {

namespace internal {
// Defined in socket_transport.cc.
std::unique_ptr<Transport> MakeTcpTransport(const TransportConfig& config);
}  // namespace internal

void IgnoreSigPipe() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = SIG_IGN;
  CHECK_EQ(::sigaction(SIGPIPE, &sa, nullptr), 0);
}

const char* TransportKindName(TransportKind kind) {
  return kind == TransportKind::kTcp ? "tcp" : "pipe";
}

bool ParseTransportKind(const std::string& name, TransportKind* out) {
  if (name == "pipe") {
    *out = TransportKind::kPipe;
    return true;
  }
  if (name == "tcp") {
    *out = TransportKind::kTcp;
    return true;
  }
  return false;
}

void EncodeHello(uint32_t worker, uint32_t generation,
                 char out[kHelloBytes]) {
  auto put32 = [&](size_t off, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out[off + static_cast<size_t>(i)] = static_cast<char>(v >> (8 * i));
    }
  };
  put32(0, kHelloMagic);
  put32(4, worker);
  put32(8, generation);
}

bool DecodeHello(const char* bytes, uint32_t* worker, uint32_t* generation) {
  auto get32 = [&](size_t off) {
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = v << 8 | static_cast<unsigned char>(bytes[off + static_cast<size_t>(i)]);
    }
    return v;
  };
  if (get32(0) != kHelloMagic) return false;
  *worker = get32(4);
  *generation = get32(8);
  return true;
}

void Transport::FinishShipFd(int fd, bool acked) {
  (void)acked;
  if (fd >= 0) ::close(fd);
}

namespace {

// The single-box transport: the worker writes its one frame into the exit
// pipe it already holds, so there are no reactor fds and no handshake.
class PipeTransport : public Transport {
 public:
  const char* name() const override { return "pipe"; }

  bool StartRun(std::string* error) override {
    (void)error;
    return true;
  }

  bool ShipFinalFrame(int exit_fd, uint32_t worker, uint32_t generation,
                      const DegradationPolicy& policy,
                      WorkerCounters* counters,
                      const std::function<Frame(const WorkerCounters&)>&
                          make_frame) override {
    (void)worker;
    (void)generation;
    (void)policy;
    // A coordinator that closed the read end must surface as a write
    // error (EPIPE) -> permanent failure, never a SIGPIPE death: a signal
    // death reads as a crash and burns respawns on a hopeless retry.
    IgnoreSigPipe();
    return WriteFrameToFd(exit_fd, make_frame(*counters));
  }
};

}  // namespace

std::unique_ptr<Transport> MakeTransport(const TransportConfig& config) {
  if (config.kind == TransportKind::kTcp) {
    return internal::MakeTcpTransport(config);
  }
  return std::make_unique<PipeTransport>();
}

}  // namespace streamkc
