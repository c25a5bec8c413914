// Ship-path lockdown (src/dist/frame.h, src/dist/process_tree.h): frame
// reassembly under adversarial delivery splits over two stream fd flavors
// (pipes and sockets), the SIGPIPE regression — a worker shipping into a
// dead coordinator must exit kWorkerPermanentErrorExit, not die by signal
// (which would read as a crash and burn respawns on a hopeless retry) —
// and the exit path: a host's SIGCHLD handler stays installed through a
// run.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "dist/frame.h"
#include "dist/process_tree.h"
#include "runtime/sketch_states.h"
#include "test_util.h"
#include "util/random.h"

namespace streamkc {
namespace {

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

// One fd pair per stream flavor: pipe(2), as the exit pipe uses, and an
// AF_UNIX socketpair (SOCK_STREAM short-read/short-write semantics).
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
  // Post-fix the worker ignores SIGPIPE, WriteFrameToFd sees EPIPE and
  // returns false; the worker protocol turns that into
  // kWorkerPermanentErrorExit.
  EXPECT_EXIT(
      {
        int exit_pipe[2];
        if (::pipe(exit_pipe) != 0) ::_exit(1);
        ::close(exit_pipe[0]);  // the coordinator is gone
        IgnoreSigPipe();
        const bool shipped = WriteFrameToFd(
            exit_pipe[1], MakeTestFrame(/*seed=*/41, /*payload_size=*/4096));
        ::_exit(shipped ? kWorkerOkExit : kWorkerPermanentErrorExit);
      },
      ::testing::ExitedWithCode(kWorkerPermanentErrorExit), "");
}

constexpr size_t kEdges = 20000;
constexpr uint32_t kSegments = 16;

// ---- The host's SIGCHLD disposition -------------------------------------

volatile sig_atomic_t g_sigchld_count = 0;

void CountSigchld(int) { g_sigchld_count = g_sigchld_count + 1; }

TEST(TransportExitPath, HostSigchldHandlerIsLeftAloneOnBothTransports) {
  // A worker's exit reaches the coordinator as EOF on its exit pipe, so
  // Run() needs no signal handler: the host's own SIGCHLD handler stays
  // installed for the whole run and sees the workers exit.
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/56), kSegments);
  const std::string inline_blob = harness.RunInline().state_blob;
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
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);

  const int counted = g_sigchld_count;
  struct sigaction after;
  ASSERT_EQ(::sigaction(SIGCHLD, &host, &after), 0);
  EXPECT_GE(counted, 1);  // signals coalesce: at least one lands
  EXPECT_EQ(after.sa_handler, &CountSigchld);
  EXPECT_TRUE(dist.state_blob == inline_blob);
  EXPECT_EQ(dist.metrics.frames_received, 3u);
}

}  // namespace
}  // namespace streamkc
