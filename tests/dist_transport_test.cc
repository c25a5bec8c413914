// Transport-layer lockdown (src/dist/transport.h): the hello codec, the
// poll-timeout policy, frame reassembly under adversarial delivery splits
// over both fd flavors the transports use (pipes and sockets), the
// pipe-vs-tcp differential (clean and under the fault matrix), the
// socket-drop redial path, the SIGPIPE regression — a worker shipping
// into a dead coordinator must exit kWorkerPermanentErrorExit, not die by
// signal (which would read as a crash and burn respawns on a hopeless
// retry) — and the exit path: a host's SIGCHLD handler stays installed
// through a run on either transport.

#include "dist/transport.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dist/frame.h"
#include "dist/process_tree.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "runtime/sketch_states.h"
#include "test_util.h"
#include "util/random.h"

namespace streamkc {
namespace {

TEST(TransportKindTest, ParsesAndNamesBothKinds) {
  TransportKind kind = TransportKind::kTcp;
  EXPECT_TRUE(ParseTransportKind("pipe", &kind));
  EXPECT_EQ(kind, TransportKind::kPipe);
  EXPECT_TRUE(ParseTransportKind("tcp", &kind));
  EXPECT_EQ(kind, TransportKind::kTcp);
  EXPECT_FALSE(ParseTransportKind("udp", &kind));
  EXPECT_FALSE(ParseTransportKind("", &kind));
  EXPECT_STREQ(TransportKindName(TransportKind::kPipe), "pipe");
  EXPECT_STREQ(TransportKindName(TransportKind::kTcp), "tcp");
}

TEST(TransportHelloTest, RoundTripsAndRejectsBadMagic) {
  char buf[kHelloBytes];
  EncodeHello(/*worker=*/7, /*generation=*/3, buf);
  uint32_t worker = 0, generation = 0;
  ASSERT_TRUE(DecodeHello(buf, &worker, &generation));
  EXPECT_EQ(worker, 7u);
  EXPECT_EQ(generation, 3u);
  EncodeHello(UINT32_MAX, UINT32_MAX, buf);
  ASSERT_TRUE(DecodeHello(buf, &worker, &generation));
  EXPECT_EQ(worker, UINT32_MAX);
  EXPECT_EQ(generation, UINT32_MAX);
  buf[0] ^= 0x01;  // magic LSB
  EXPECT_FALSE(DecodeHello(buf, &worker, &generation));
}

TEST(PollTimeoutTest, AutoIsInfiniteUnlessDeadlinePending) {
  // The satellite fix: with every worker exit observable through the poll
  // set, an idle tree must take ZERO wakeups — auto resolves to infinite.
  EXPECT_EQ(ResolvePollTimeoutMs(0, /*deadline_pending=*/false), -1);
  EXPECT_EQ(ResolvePollTimeoutMs(0, /*deadline_pending=*/true), 1000);
  EXPECT_EQ(ResolvePollTimeoutMs(-1, false), -1);
  EXPECT_EQ(ResolvePollTimeoutMs(-1, true), -1);   // explicit beats pending
  EXPECT_EQ(ResolvePollTimeoutMs(250, false), 250);
  EXPECT_EQ(ResolvePollTimeoutMs(250, true), 250);
}

// ---- Frame reassembly under adversarial delivery splits -----------------

Frame MakeTestFrame(uint64_t seed, size_t payload_size) {
  Frame f;
  f.fingerprint = SplitMix64(seed);
  f.payload.resize(payload_size);
  for (size_t i = 0; i < payload_size; ++i) {
    f.payload[i] = static_cast<char>(SplitMix64(seed + 1 + i));
  }
  return f;
}

// Pushes `bytes` through an fd pair in the given chunk sizes, reading each
// chunk back and feeding it to `decoder` — delivery exactly as a transport
// would see it, including the kernel's own short reads.
void DeliverThroughFds(int write_fd, int read_fd, const std::string& bytes,
                       const std::vector<size_t>& chunks,
                       FrameDecoder* decoder) {
  size_t off = 0;
  char buf[1 << 16];
  for (size_t chunk : chunks) {
    ASSERT_LE(off + chunk, bytes.size());
    ASSERT_EQ(::write(write_fd, bytes.data() + off, chunk),
              static_cast<ssize_t>(chunk));
    off += chunk;
    size_t got = 0;
    while (got < chunk) {
      ssize_t n = ::read(read_fd, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      decoder->Feed(buf, static_cast<size_t>(n));
      got += static_cast<size_t>(n);
    }
  }
  ASSERT_EQ(off, bytes.size());
}

// One fd pair per transport flavor: pipe(2) as PipeTransport uses, and an
// AF_UNIX socketpair as the closest in-process stand-in for a TCP stream
// (same SOCK_STREAM short-read/short-write semantics).
struct FdPair {
  int read_fd = -1;
  int write_fd = -1;
  std::string name;
};

std::vector<FdPair> MakeBothFdFlavors() {
  std::vector<FdPair> pairs;
  int p[2];
  EXPECT_EQ(::pipe(p), 0);
  pairs.push_back({p[0], p[1], "pipe"});
  int sp[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  pairs.push_back({sp[0], sp[1], "socket"});
  return pairs;
}

TEST(FrameReassemblyTest, OneByteDeliveryDecodesIdenticallyOnBothFlavors) {
  const Frame frame = MakeTestFrame(/*seed=*/11, /*payload_size=*/777);
  const std::string bytes = EncodeFrame(frame);
  const std::vector<size_t> one_byte(bytes.size(), 1);
  for (const FdPair& fds : MakeBothFdFlavors()) {
    FrameDecoder decoder;
    DeliverThroughFds(fds.write_fd, fds.read_fd, bytes, one_byte, &decoder);
    Frame out;
    std::string err;
    ASSERT_EQ(decoder.Next(&out, &err), FrameDecoder::Status::kFrame)
        << fds.name;
    EXPECT_EQ(out.fingerprint, frame.fingerprint) << fds.name;
    EXPECT_EQ(out.payload, frame.payload) << fds.name;
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << fds.name;
    ::close(fds.read_fd);
    ::close(fds.write_fd);
  }
}

TEST(FrameReassemblyTest, RandomSplitsDecodeIdenticallyOnBothFlavors) {
  // Two back-to-back frames per trial: splits land inside headers, across
  // frame boundaries, everywhere. Every delivery schedule must decode to
  // the same two frames a whole-buffer feed produces.
  const Frame a = MakeTestFrame(/*seed=*/21, /*payload_size=*/1500);
  const Frame b = MakeTestFrame(/*seed=*/22, /*payload_size=*/3);
  const std::string bytes = EncodeFrame(a) + EncodeFrame(b);
  for (uint64_t trial = 0; trial < 8; ++trial) {
    std::vector<size_t> chunks;
    size_t remaining = bytes.size();
    uint64_t rng = SplitMix64(trial + 1);
    while (remaining > 0) {
      rng = SplitMix64(rng);
      size_t chunk = 1 + rng % std::min(remaining, size_t{97});
      chunks.push_back(chunk);
      remaining -= chunk;
    }
    for (const FdPair& fds : MakeBothFdFlavors()) {
      FrameDecoder decoder;
      DeliverThroughFds(fds.write_fd, fds.read_fd, bytes, chunks, &decoder);
      Frame out;
      std::string err;
      ASSERT_EQ(decoder.Next(&out, &err), FrameDecoder::Status::kFrame)
          << fds.name << " trial=" << trial;
      EXPECT_EQ(out.payload, a.payload);
      ASSERT_EQ(decoder.Next(&out, &err), FrameDecoder::Status::kFrame);
      EXPECT_EQ(out.payload, b.payload);
      EXPECT_EQ(decoder.Next(&out, &err), FrameDecoder::Status::kNeedMore);
      ::close(fds.read_fd);
      ::close(fds.write_fd);
    }
  }
}

TEST(FrameReassemblyTest, CorruptMidDeliveryIsStickyOnBothFlavors) {
  const Frame frame = MakeTestFrame(/*seed=*/31, /*payload_size=*/900);
  const std::string good = EncodeFrame(frame);
  std::string bad = good;
  bad[bad.size() / 2] ^= 0x20;  // payload-region flip: CRC must catch it
  const std::string bytes = bad + good;  // a valid frame rides behind it
  for (const FdPair& fds : MakeBothFdFlavors()) {
    FrameDecoder decoder;
    DeliverThroughFds(fds.write_fd, fds.read_fd, bytes,
                      std::vector<size_t>(bytes.size(), 1), &decoder);
    Frame out;
    std::string err;
    EXPECT_EQ(decoder.Next(&out, &err), FrameDecoder::Status::kCorrupt)
        << fds.name;
    // Poisoned for good: the trailing valid frame must NOT resynchronize
    // the stream (rejection is a verdict on the whole connection).
    EXPECT_EQ(decoder.Next(&out, &err), FrameDecoder::Status::kCorrupt)
        << fds.name;
    ::close(fds.read_fd);
    ::close(fds.write_fd);
  }
}

// ---- SIGPIPE regression (satellite bugfix) ------------------------------

TEST(TransportSigPipeDeathTest, DeadCoordinatorIsPermanentErrorNotSignal) {
  // Pre-fix, the worker's first write after the coordinator closed the
  // read end died by SIGPIPE — the coordinator then classified it as a
  // crash and spent respawns re-running a worker that can never ship.
  // Post-fix ShipFinalFrame ignores SIGPIPE, sees EPIPE, and returns
  // false; the worker protocol turns that into kWorkerPermanentErrorExit.
  EXPECT_EXIT(
      {
        TransportConfig config;  // pipe transport
        std::unique_ptr<Transport> transport = MakeTransport(config);
        int exit_pipe[2];
        if (::pipe(exit_pipe) != 0) ::_exit(1);
        ::close(exit_pipe[0]);  // the coordinator is gone
        WorkerCounters counters;
        const bool shipped = transport->ShipFinalFrame(
            exit_pipe[1], /*worker=*/0, /*generation=*/0, DegradationPolicy{},
            &counters, [](const WorkerCounters&) {
              return MakeTestFrame(/*seed=*/41, /*payload_size=*/4096);
            });
        ::_exit(shipped ? kWorkerOkExit : kWorkerPermanentErrorExit);
      },
      ::testing::ExitedWithCode(kWorkerPermanentErrorExit), "");
}

// ---- Pipe-vs-TCP differential -------------------------------------------

constexpr size_t kEdges = 20000;
constexpr uint32_t kSegments = 16;

DistOptions TcpOptions(uint32_t workers) {
  DistOptions opt;
  opt.num_workers = workers;
  opt.transport.kind = TransportKind::kTcp;
  return opt;
}

TEST(TcpTransportDifferential, MatchesPipeAndInlineByteForByte) {
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/51), kSegments);
  ScopedWorkerHarness::Result inline_ref = harness.RunInline();
  DistOptions pipe_opt;
  pipe_opt.num_workers = 4;
  ScopedWorkerHarness::Result pipe = harness.RunDist(pipe_opt);
  ScopedWorkerHarness::Result tcp = harness.RunDist(TcpOptions(4));
  EXPECT_EQ(pipe.state_blob, inline_ref.state_blob);
  EXPECT_EQ(tcp.state_blob, inline_ref.state_blob);
  EXPECT_EQ(tcp.fingerprint, pipe.fingerprint);
  EXPECT_EQ(tcp.metrics.transport, "tcp");
  EXPECT_EQ(tcp.metrics.connections_accepted, 4u);
  EXPECT_EQ(tcp.metrics.socket_drops, 0u);
  EXPECT_EQ(tcp.metrics.TotalConnectRetries(), 0u);
  EXPECT_EQ(tcp.metrics.frames_received, 4u);
  EXPECT_EQ(tcp.metrics.TotalEdgesProcessed(), kEdges);
}

TEST(TcpTransportDifferential, FaultMatrixMatchesPipeVerdictForVerdict) {
  // The acceptance bar: kill-shard and corrupt-frame must produce the SAME
  // serialized state and the SAME quarantine/respawn ledger over TCP as
  // over pipes.
  for (const char* spec :
       {"seed=7,kill-shard=1@2", "seed=7,corrupt-frame=2"}) {
    ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/52),
                                kSegments);
    FaultInjector pipe_injector(FaultPlan::ParseOrDie(spec));
    DistOptions pipe_opt;
    pipe_opt.num_workers = 4;
    pipe_opt.fault_injector = &pipe_injector;
    ScopedWorkerHarness::Result pipe = harness.RunDist(pipe_opt);

    FaultInjector tcp_injector(FaultPlan::ParseOrDie(spec));
    DistOptions tcp_opt = TcpOptions(4);
    tcp_opt.fault_injector = &tcp_injector;
    ScopedWorkerHarness::Result tcp = harness.RunDist(tcp_opt);

    EXPECT_EQ(tcp.state_blob, pipe.state_blob) << spec;
    EXPECT_EQ(tcp.metrics.TotalRespawns(), pipe.metrics.TotalRespawns())
        << spec;
    EXPECT_EQ(tcp.metrics.WorkersQuarantined(),
              pipe.metrics.WorkersQuarantined())
        << spec;
    EXPECT_EQ(tcp.metrics.TotalCrcRejections(),
              pipe.metrics.TotalCrcRejections())
        << spec;
    for (uint32_t w = 0; w < 4; ++w) {
      EXPECT_EQ(tcp.metrics.workers[w].quarantined,
                pipe.metrics.workers[w].quarantined)
          << spec << " worker=" << w;
    }
  }
}

TEST(TcpTransportDifferential, SocketDropRedialsAndConvergesIdentically) {
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/53), kSegments);
  DistOptions clean_opt = TcpOptions(4);
  ScopedWorkerHarness::Result clean = harness.RunDist(clean_opt);

  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,socket-drop=1"),
                         &registry);
  DistOptions opt = TcpOptions(4);
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dropped = harness.RunDist(opt);

  EXPECT_EQ(dropped.state_blob, clean.state_blob);
  EXPECT_EQ(dropped.metrics.socket_drops, 1u);
  // The redial is recovery, not failure: the dropped dial lands in
  // socket_drops (never acked, so never "accepted"), the retry is charged
  // to worker 1, and nobody is respawned or quarantined.
  EXPECT_EQ(dropped.metrics.connections_accepted, 4u);
  EXPECT_EQ(dropped.metrics.workers[1].counters.connect_retries, 1u);
  EXPECT_EQ(dropped.metrics.TotalConnectRetries(), 1u);
  EXPECT_EQ(dropped.metrics.TotalRespawns(), 0u);
  EXPECT_EQ(dropped.metrics.WorkersQuarantined(), 0u);
  EXPECT_EQ(registry
                .GetCounter(LabeledName("faults_injected_total", "kind",
                                        FaultInjector::kFaultSocketDrop))
                ->Value(),
            1u);
}

TEST(TcpTransportDifferential, SocketDropWithZeroBudgetQuarantinesCleanly) {
  // With the dial budget at zero, a dropped connection is a permanent
  // transport failure: the worker must exit kWorkerPermanentErrorExit (not
  // die by SIGPIPE writing into the closed socket) and be quarantined
  // without burning a single respawn.
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/54), kSegments);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,socket-drop=2"));
  DistOptions opt = TcpOptions(4);
  opt.degradation.max_stream_retries = 0;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  const DistWorkerRow& w2 = dist.metrics.workers[2];
  EXPECT_TRUE(w2.quarantined);
  EXPECT_EQ(w2.respawns, 0u);  // permanent error, not a crash
  EXPECT_EQ(dist.metrics.WorkersQuarantined(), 1u);
  EXPECT_EQ(dist.metrics.frames_received, 3u);
  EXPECT_EQ(dist.metrics.socket_drops, 1u);
}

TEST(TcpTransportDifferential, ExplicitListenAddressAndPollTimeoutWork) {
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/55), kSegments);
  DistOptions opt = TcpOptions(2);
  opt.transport.listen_addr = "127.0.0.1:0";  // ephemeral, loopback
  opt.poll_timeout_ms = 50;                   // finite timeout still drains
  ScopedWorkerHarness::Result tcp = harness.RunDist(opt);
  EXPECT_EQ(tcp.state_blob, harness.RunInline().state_blob);
  EXPECT_GE(tcp.metrics.poll_wakeups, 1u);
}

// ---- The host's SIGCHLD disposition -------------------------------------

volatile sig_atomic_t g_sigchld_count = 0;

void CountSigchld(int) { g_sigchld_count = g_sigchld_count + 1; }

TEST(TransportExitPath, HostSigchldHandlerIsLeftAloneOnBothTransports) {
  // A worker's exit reaches the coordinator as EOF on its exit pipe, so
  // Run() needs no signal handler: the host's own SIGCHLD handler stays
  // installed for the whole run and sees the workers exit, over TCP as
  // over pipes (pre-fix the TCP transport swapped it out and it counted 0).
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/56), kSegments);
  const std::string inline_blob = harness.RunInline().state_blob;
  for (TransportKind kind : {TransportKind::kPipe, TransportKind::kTcp}) {
    const char* name = TransportKindName(kind);
    struct sigaction counting;
    std::memset(&counting, 0, sizeof(counting));
    counting.sa_handler = CountSigchld;
    counting.sa_flags = SA_RESTART;
    ::sigemptyset(&counting.sa_mask);
    struct sigaction host;
    ASSERT_EQ(::sigaction(SIGCHLD, &counting, &host), 0);
    g_sigchld_count = 0;

    DistOptions opt;
    opt.num_workers = 3;
    opt.transport.kind = kind;
    ScopedWorkerHarness::Result dist = harness.RunDist(opt);

    const int counted = g_sigchld_count;
    struct sigaction after;
    ASSERT_EQ(::sigaction(SIGCHLD, &host, &after), 0);
    EXPECT_GE(counted, 1) << name;  // signals coalesce: at least one lands
    EXPECT_EQ(after.sa_handler, &CountSigchld) << name;
    EXPECT_TRUE(dist.state_blob == inline_blob) << name;
    EXPECT_EQ(dist.metrics.frames_received, 3u) << name;
  }
}

}  // namespace
}  // namespace streamkc
