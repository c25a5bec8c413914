// Transport: how a worker's final SKF1 frame travels to the coordinator.
//
// The frame format (dist/frame.h) is transport-agnostic; this interface
// isolates everything that is NOT — connection establishment, ack
// handshakes, and the transport's own coordinator fds. How the coordinator
// learns that a worker ended is not the transport's business: every worker
// holds the write end of an exit pipe the coordinator creates for it
// (dist/process_tree.h), so EOF on the read end means the process is gone,
// whatever carried its frame. Two implementations:
//
//   PipeTransport   the single-box path: the worker writes its one frame
//                   into that exit pipe, so it needs no fds of its own.
//
//   TcpTransport    workers dial the coordinator over TCP (loopback when
//                   forked, any host once workers run remotely — the dial
//                   address is plain host:port). Because a socket appears
//                   only when the worker is DONE ingesting, the coordinator
//                   runs an accept loop and identifies each connection by a
//                   12-byte hello; the worker keeps its exit pipe open and
//                   untouched until it exits.
//
// Ship protocol over TCP (every step bounded by DegradationPolicy's
// saturating backoff, so a dropped connection retries deterministically):
//
//   worker -> coord   hello: u32 'SKH1', u32 worker, u32 generation
//   coord  -> worker  hello-ack (1 byte) — or close, which the worker
//                     treats as a transient failure and redials
//   worker -> coord   SKF1 frame bytes, then shutdown(SHUT_WR)
//   coord  -> worker  fin-ack (1 byte) after decoding the frame (sent for
//                     CRC-rejected frames too: rejection is a verdict, not
//                     a transport failure); a close without fin-ack makes
//                     the worker redial and ship the frame again
//
// The hello-ack makes the `socket-drop=S` fault deterministic: the
// coordinator drops worker S's first connection before acking, the worker
// always observes the drop at the same protocol point, redials, and the
// run converges byte-identically to an undropped one.
//
// SIGPIPE discipline: workers ignore SIGPIPE (IgnoreSigPipe below) and
// socket sends use MSG_NOSIGNAL, so a coordinator that died mid-ship
// surfaces as EPIPE -> kWorkerPermanentErrorExit -> quarantine, never as a
// signal death that would burn respawns on a hopeless retry.

#ifndef STREAMKC_DIST_TRANSPORT_H_
#define STREAMKC_DIST_TRANSPORT_H_

#include <poll.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/frame.h"
#include "dist/worker_counters.h"
#include "runtime/degradation.h"

namespace streamkc {

// Sets SIGPIPE to SIG_IGN (idempotent). Called by the worker before
// shipping and by the coordinator before acking: a peer that died must
// surface as a write error, not kill the process.
void IgnoreSigPipe();

enum class TransportKind { kPipe, kTcp };

const char* TransportKindName(TransportKind kind);
bool ParseTransportKind(const std::string& name, TransportKind* out);

struct TransportConfig {
  TransportKind kind = TransportKind::kPipe;
  // TCP only. listen_addr is the coordinator's bind address ("host:port",
  // port 0 = ephemeral); connect_addr is what workers dial (empty = the
  // actual bound address, with a wildcard host rewritten to 127.0.0.1).
  std::string listen_addr = "127.0.0.1:0";
  std::string connect_addr;
};

// Worker hello, sent before the frame so the coordinator can bind the
// connection to a slot: u32 magic, u32 worker, u32 generation (LE).
inline constexpr uint32_t kHelloMagic = 0x534b4831;  // "SKH1"
inline constexpr size_t kHelloBytes = 12;
inline constexpr char kTransportAck = 0x06;

void EncodeHello(uint32_t worker, uint32_t generation, char out[kHelloBytes]);
bool DecodeHello(const char* bytes, uint32_t* worker, uint32_t* generation);

class Transport {
 public:
  // A connection the coordinator has identified (hello complete, acked)
  // and should bind to worker `worker`'s slot with a fresh FrameDecoder.
  struct Ready {
    uint32_t worker = 0;
    uint32_t generation = 0;
    int fd = -1;
  };
  struct Stats {
    uint64_t connections_accepted = 0;  // hellos bound to a slot
    uint64_t socket_drops = 0;          // connections dropped by fault plan
  };

  virtual ~Transport() = default;
  virtual const char* name() const = 0;

  // Coordinator setup before the first fork (TCP: bind/listen). Returns
  // false with *error on failure.
  virtual bool StartRun(std::string* error) = 0;

  // Child after fork: close the transport's coordinator-side fds (TCP: the
  // listen socket and pending connections).
  virtual void OnChildFork() {}

  // Reactor integration: transport-owned fds appended to the poll set
  // (listen fd, half-open connections), and the handler for their
  // revents. Completed handshakes land in *ready.
  virtual void AppendPollFds(std::vector<pollfd>* pfds) { (void)pfds; }
  virtual void HandlePollFds(const pollfd* pfds, size_t n,
                             std::vector<Ready>* ready) {
    (void)pfds;
    (void)n;
    (void)ready;
  }

  // Coordinator: finish a bound connection after its EOF. `acked` = a
  // complete frame (valid or CRC-rejected) was decoded and the worker may
  // exit; false = torn connection, the worker should redial.
  virtual void FinishShipFd(int fd, bool acked);

  // Child: ships the final frame. `exit_fd` is the write end of the
  // worker's exit pipe; the pipe transport writes the frame into it, TCP
  // leaves it alone. Transient transport failures (refused connect,
  // dropped connection, missing ack) retry with the policy's saturating
  // backoff; each retry bumps counters->connect_retries and make_frame
  // re-serializes the payload so the shipped counters are current.
  // Returns true once the coordinator acknowledged the frame; false =
  // permanent failure (the caller exits kWorkerPermanentErrorExit).
  virtual bool ShipFinalFrame(
      int exit_fd, uint32_t worker, uint32_t generation,
      const DegradationPolicy& policy, WorkerCounters* counters,
      const std::function<Frame(const WorkerCounters&)>& make_frame) = 0;

  // socket-drop hook: called once per completed hello with the worker id
  // and its 0-based connection ordinal; return true to drop (close without
  // hello-ack). Unset = never drop.
  void set_drop_hook(std::function<bool(uint32_t, uint64_t)> hook) {
    drop_hook_ = std::move(hook);
  }

  virtual Stats stats() const { return {}; }
  // TCP: the actual bound "host:port" after StartRun (tests read the
  // ephemeral port from here); empty for pipe.
  virtual std::string bound_address() const { return ""; }

 protected:
  std::function<bool(uint32_t, uint64_t)> drop_hook_;
};

std::unique_ptr<Transport> MakeTransport(const TransportConfig& config);

// The coordinator's poll timeout policy (unit-tested in
// dist_transport_test). With every exit observable through the poll set as
// exit-pipe EOF, an idle tree needs no wakeups at all, so auto (0) means
// infinite unless a timed deadline is pending (none exist today; the
// parameter keeps the contract explicit).
inline int ResolvePollTimeoutMs(int configured_ms, bool deadline_pending) {
  if (configured_ms > 0) return configured_ms;
  if (configured_ms < 0) return -1;
  return deadline_pending ? 1000 : -1;
}

}  // namespace streamkc

#endif  // STREAMKC_DIST_TRANSPORT_H_
