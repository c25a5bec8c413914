#include "dist/frame.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "util/check.h"
#include "util/serialize.h"

namespace streamkc {
namespace {

constexpr uint32_t kFrameMagic = 0x534b4631;  // "SKF1"
constexpr uint32_t kFrameVersion = 1;
// magic + version + fingerprint + payload_len + crc.
constexpr size_t kFrameHeaderBytes = 4 + 4 + 8 + 8 + 4;

const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// The CRC covers everything after the (magic, version) pair: fingerprint,
// payload_len, payload — serialized exactly as they appear on the wire.
uint32_t FrameCrc(uint64_t fingerprint, const std::string& payload) {
  unsigned char head[16];
  for (int i = 0; i < 8; ++i) {
    head[i] = static_cast<unsigned char>(fingerprint >> (8 * i));
  }
  uint64_t len = payload.size();
  for (int i = 0; i < 8; ++i) {
    head[8 + i] = static_cast<unsigned char>(len >> (8 * i));
  }
  uint32_t crc = Crc32(head, sizeof(head));
  return Crc32(payload.data(), payload.size(), crc);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  const uint32_t* table = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::string EncodeFrame(const Frame& frame) {
  std::ostringstream os;
  WriteHeader(os, kFrameMagic, kFrameVersion);
  WriteU64(os, frame.fingerprint);
  WriteU64(os, frame.payload.size());
  WriteU32(os, FrameCrc(frame.fingerprint, frame.payload));
  os.write(frame.payload.data(),
           static_cast<std::streamsize>(frame.payload.size()));
  return os.str();
}

void IgnoreSigPipe() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = SIG_IGN;
  CHECK_EQ(::sigaction(SIGPIPE, &sa, nullptr), 0);
}

bool WriteFrameToFd(int fd, const Frame& frame) {
  const std::string bytes = EncodeFrame(frame);
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

FrameDecoder::Status FrameDecoder::Next(Frame* out, std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = "frame stream already corrupt";
    return Status::kCorrupt;
  }
  auto corrupt = [&](const char* why) {
    poisoned_ = true;
    if (error != nullptr) *error = why;
    return Status::kCorrupt;
  };
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Status::kNeedMore;

  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  auto rd32 = [&p](size_t off) {
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = v << 8 | p[off + i];
    return v;
  };
  auto rd64 = [&p](size_t off) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | p[off + i];
    return v;
  };
  if (rd32(0) != kFrameMagic) return corrupt("bad frame magic");
  if (rd32(4) != kFrameVersion) return corrupt("bad frame version");
  const uint64_t fingerprint = rd64(8);
  const uint64_t payload_len = rd64(16);
  if (payload_len > kMaxFramePayload) return corrupt("frame length too large");
  const uint32_t crc = rd32(24);
  if (buf_.size() - pos_ < kFrameHeaderBytes + payload_len) {
    return Status::kNeedMore;
  }

  out->fingerprint = fingerprint;
  out->payload.assign(buf_, pos_ + kFrameHeaderBytes,
                      static_cast<size_t>(payload_len));
  if (FrameCrc(fingerprint, out->payload) != crc) {
    out->payload.clear();
    return corrupt("frame CRC mismatch");
  }
  pos_ += kFrameHeaderBytes + static_cast<size_t>(payload_len);
  // Compact once the consumed prefix dominates; frames are few and small,
  // so this is bookkeeping, not a hot path.
  if (pos_ > (buf_.size() >> 1)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return Status::kFrame;
}

}  // namespace streamkc
