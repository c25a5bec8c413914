// Wire framing for serialized estimator state shipped from worker
// processes to the coordinator (src/dist/process_tree.h).
//
// A frame wraps one util/serialize.h blob with enough envelope to survive a
// hostile transport: a length for reassembly from arbitrary pipe chunks, a
// CRC for corruption detection, and the sender's MergeFingerprint so the
// coordinator can run the same majority-vote merge-compatibility check the
// in-process pipeline uses. Layout (little-endian, serialize.h helpers):
//
//   u32 magic    'SKF1'
//   u32 version  1
//   u64 fingerprint   State::MergeFingerprint() of the sender
//   u64 payload_len   bounded by kMaxPayload (a corrupt length must not
//                     allocate the machine away)
//   u32 crc           CRC-32 (IEEE, reflected) over fingerprint,
//                     payload_len, and the payload bytes — a bit flip
//                     anywhere past the header kills the frame
//   u8  payload[payload_len]
//
// The decoder is incremental: pipes deliver frames in arbitrary chunks, so
// the coordinator feeds whatever read() returned and polls for complete
// frames. Any malformed envelope (bad magic/version, oversized length, CRC
// mismatch) is reported as kCorrupt, never CHECK-failed — a corrupted
// worker must degrade the run (quarantine), not kill the coordinator.

#ifndef STREAMKC_DIST_FRAME_H_
#define STREAMKC_DIST_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace streamkc {

// Incremental CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
// Chain calls by passing the previous return value as `crc` (start at 0).
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

struct Frame {
  uint64_t fingerprint = 0;
  std::string payload;
};

// Hard ceiling on payload_len: larger than any sketch blob this system
// ships by orders of magnitude, small enough that a corrupted length field
// cannot drive a giant allocation.
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 30;

// Serializes `frame` (header + CRC + payload) into a byte string.
std::string EncodeFrame(const Frame& frame);

// Writes the encoded frame to `fd`, looping over partial writes and EINTR.
// Returns false on a write error (e.g. the coordinator died and the pipe
// broke); the worker treats that as fatal.
bool WriteFrameToFd(int fd, const Frame& frame);

// Sets SIGPIPE to SIG_IGN (idempotent). A worker calls it before it ships:
// a coordinator that closed the read end must surface as a write error
// (EPIPE) -> permanent failure, never a SIGPIPE death, which would read as
// a crash and burn respawns on a hopeless retry.
void IgnoreSigPipe();

// Reassembles frames from a byte stream arriving in arbitrary chunks.
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // *out holds the next frame
    kCorrupt,   // envelope violated; the stream is poisoned from here on
  };

  void Feed(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  // Extracts the next complete frame. After kCorrupt every later call
  // returns kCorrupt again (a framed stream cannot resynchronize).
  Status Next(Frame* out, std::string* error);

  // Bytes fed but not yet consumed by a returned frame.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

  // Flips one payload-region bit of the buffered bytes — the coordinator's
  // corrupt-frame fault hook (simulated transport corruption; lands past
  // the magic/version so the CRC, not the envelope sanity checks, must
  // catch it). No-op when nothing is buffered.
  void CorruptForTest() {
    if (buffered_bytes() == 0) return;
    buf_[pos_ + buffered_bytes() / 2] ^= 0x10;
  }

 private:
  std::string buf_;
  size_t pos_ = 0;
  bool poisoned_ = false;
};

}  // namespace streamkc

#endif  // STREAMKC_DIST_FRAME_H_
