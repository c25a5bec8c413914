#include "dist/checkpoint.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "dist/frame.h"
#include "util/check.h"
#include "util/serialize.h"

namespace streamkc {
namespace {

constexpr uint32_t kCkptMagic = 0x534b4331;  // "SKC1"
// Bumped with every body layout change, the WorkerCounters block's
// included, so an older file is rejected by its version, not its length.
constexpr uint32_t kCkptVersion = 2;
// u32 magic + u32 version + u64 body_len + u32 crc.
constexpr size_t kCkptHeaderBytes = 4 + 4 + 8 + 4;
// Fixed-width body prefix: u32 worker + u64 segments_done + counters +
// u64 fingerprint + u64 state_len. Everything past it is the state blob.
constexpr uint64_t kCkptFixedBodyBytes =
    4 + 8 + WorkerCounters::kSerializedBytes + 8 + 8;

bool Fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint32_t worker) {
  return dir + "/ckpt_w" + std::to_string(worker) + ".bin";
}

std::string EncodeCheckpoint(const Checkpoint& ckpt) {
  std::ostringstream body;
  WriteU32(body, ckpt.worker);
  WriteU64(body, ckpt.segments_done);
  ckpt.counters.Save(body);
  WriteU64(body, ckpt.fingerprint);
  WriteU64(body, ckpt.state_blob.size());
  body.write(ckpt.state_blob.data(),
             static_cast<std::streamsize>(ckpt.state_blob.size()));
  const std::string body_bytes = body.str();

  std::ostringstream os;
  WriteHeader(os, kCkptMagic, kCkptVersion);
  WriteU64(os, body_bytes.size());
  WriteU32(os, Crc32(body_bytes.data(), body_bytes.size()));
  os.write(body_bytes.data(),
           static_cast<std::streamsize>(body_bytes.size()));
  return os.str();
}

bool TryDecodeCheckpoint(const std::string& bytes, Checkpoint* out,
                         std::string* error) {
  if (bytes.size() < kCkptHeaderBytes) {
    return Fail(error, "truncated header");
  }
  uint32_t magic = 0, version = 0, crc = 0;
  uint64_t body_len = 0;
  std::memcpy(&magic, bytes.data(), 4);
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&body_len, bytes.data() + 8, 8);
  std::memcpy(&crc, bytes.data() + 16, 4);
  if (magic != kCkptMagic) return Fail(error, "bad magic");
  if (version != kCkptVersion) return Fail(error, "unsupported version");
  if (body_len > kMaxFramePayload) return Fail(error, "body length insane");
  // The whole blob is exactly header + body: a short read is truncation and
  // trailing slack is corruption too (a concatenated or overwritten file
  // must not load).
  if (bytes.size() != kCkptHeaderBytes + body_len) {
    return Fail(error, "truncated body or trailing garbage");
  }
  const char* body = bytes.data() + kCkptHeaderBytes;
  if (Crc32(body, static_cast<size_t>(body_len)) != crc) {
    return Fail(error, "crc mismatch");
  }
  if (body_len < kCkptFixedBodyBytes) return Fail(error, "body too short");

  // Lengths are fully validated, so the CHECK-hard stream readers below
  // cannot fire: the stream always has the bytes they ask for.
  std::istringstream bs(std::string(body, static_cast<size_t>(body_len)));
  Checkpoint ckpt;
  ckpt.worker = ReadU32(bs);
  ckpt.segments_done = ReadU64(bs);
  ckpt.counters = WorkerCounters::Load(bs);
  ckpt.fingerprint = ReadU64(bs);
  const uint64_t state_len = ReadU64(bs);
  if (state_len != body_len - kCkptFixedBodyBytes) {
    return Fail(error, "state length mismatch");
  }
  ckpt.state_blob.resize(static_cast<size_t>(state_len));
  bs.read(ckpt.state_blob.data(),
          static_cast<std::streamsize>(ckpt.state_blob.size()));
  *out = std::move(ckpt);
  return true;
}

Checkpoint DecodeCheckpoint(const std::string& bytes) {
  Checkpoint ckpt;
  std::string err;
  if (!TryDecodeCheckpoint(bytes, &ckpt, &err)) {
    std::fprintf(stderr, "checkpoint decode failed: %s\n", err.c_str());
    CHECK(false);
  }
  return ckpt;
}

void WriteCheckpointFile(const std::string& path, const Checkpoint& ckpt) {
  const std::string tmp = path + ".tmp";
  const std::string bytes = EncodeCheckpoint(ckpt);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  CHECK_GE(fd, 0);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      CHECK_EQ(errno, EINTR);
      continue;
    }
    off += static_cast<size_t>(n);
  }
  // fsync the data BEFORE the rename and the directory AFTER it: the
  // rename is only atomic against this process crashing. Against a host
  // crash, the filesystem may persist the rename ahead of the data blocks
  // (or lose the directory entry), resurrecting a zero-length or torn file
  // at the final path — which the Try-loader then rejects, but which must
  // stay a recoverable rarity rather than the normal post-crash state.
  CHECK_EQ(::fsync(fd), 0);
  CHECK_EQ(::close(fd), 0);
  CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  CHECK_GE(dfd, 0);
  CHECK_EQ(::fsync(dfd), 0);
  CHECK_EQ(::close(dfd), 0);
}

bool CheckpointFileExists(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return is.is_open();
}

bool TryLoadCheckpointFile(const std::string& path, Checkpoint* out,
                           std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return Fail(error, "cannot open checkpoint file");
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is.good() && !is.eof()) return Fail(error, "read error");
  return TryDecodeCheckpoint(buf.str(), out, error);
}

Checkpoint LoadCheckpointFile(const std::string& path) {
  Checkpoint ckpt;
  std::string err;
  if (!TryLoadCheckpointFile(path, &ckpt, &err)) {
    std::fprintf(stderr, "checkpoint load failed (%s): %s\n", path.c_str(),
                 err.c_str());
    CHECK(false);
  }
  return ckpt;
}

}  // namespace streamkc
