// Durable worker checkpoints: the restart half of the dist layer's
// crash-recovery story.
//
// A worker writes one checkpoint file after every --checkpoint-every
// committed segments. The blob records the committed segment prefix, the
// counters for exactly that prefix, and the serialized estimator state —
// so a respawned worker loads the file, re-opens the segments past
// `segments_done`, and converges on the identical final state a
// never-killed run produces (segments after the last checkpoint are simply
// re-ingested from scratch; the dead incarnation's uncommitted work died
// with its address space).
//
// Layout (little-endian, util/serialize.h helpers):
//
//   u32 magic    'SKC1'
//   u32 version  2
//   u64 body_len
//   u32 crc      CRC-32 over the body bytes
//   body:
//     u32 worker
//     u64 segments_done
//     WorkerCounters
//     u64 fingerprint   State::MergeFingerprint() at save time
//     u64 state_len + state blob (the State's own Save format)
//
// Durability: the blob lands in `<path>.tmp`, is fsync(2)ed, rename(2)d
// over `path`, and the directory is fsync(2)ed after the rename. The
// rename alone makes the write atomic against a crash of THIS process; the
// two fsyncs make it atomic against a crash of the HOST — without them the
// filesystem may persist the rename before the data blocks, and the
// machine comes back up with a zero-length or torn file at the final path.
//
// Corruption policy: the Try* loaders reject a bad blob (returning false
// with a reason) instead of aborting, because the dist respawn path must
// survive a torn checkpoint — the respawned worker discards it and
// re-ingests from scratch. DecodeCheckpoint/LoadCheckpointFile keep the
// CHECK-hard contract for callers where a bad blob is unambiguously a bug;
// the death-test battery in tests/dist_checkpoint_test.cc pins truncation,
// bit flips, and version bumps to a clean abort there.

#ifndef STREAMKC_DIST_CHECKPOINT_H_
#define STREAMKC_DIST_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "dist/worker_counters.h"

namespace streamkc {

struct Checkpoint {
  uint32_t worker = 0;
  uint64_t segments_done = 0;  // committed prefix of the owned segment list
  WorkerCounters counters;     // counters for exactly that prefix
  uint64_t fingerprint = 0;    // merge fingerprint of the saved state
  std::string state_blob;      // State::Save bytes
};

// Canonical per-worker checkpoint file name under `dir`.
std::string CheckpointPath(const std::string& dir, uint32_t worker);

// Serializes `ckpt` (header + CRC + body) into a byte string.
std::string EncodeCheckpoint(const Checkpoint& ckpt);

// Parses a blob produced by EncodeCheckpoint. Returns false (with a
// one-line reason in *error if non-null) on any corruption: bad
// magic/version, truncated or oversized body, CRC mismatch, trailing
// garbage, inconsistent state length.
bool TryDecodeCheckpoint(const std::string& bytes, Checkpoint* out,
                         std::string* error);

// CHECK-hard wrapper over TryDecodeCheckpoint for callers where a bad blob
// is a caller bug rather than a recoverable event.
Checkpoint DecodeCheckpoint(const std::string& bytes);

// Durably (tmp + fsync + rename + directory fsync) writes `ckpt` to
// `path`; CHECK-fails on IO errors (an unwritable checkpoint dir is a
// caller bug, not a degradation).
void WriteCheckpointFile(const std::string& path, const Checkpoint& ckpt);

bool CheckpointFileExists(const std::string& path);

// Reads and decodes `path`; returns false (with a reason) if the file is
// missing, unreadable, or corrupt. This is the loader the respawn path
// uses: a torn checkpoint means "re-ingest from scratch", not "abort".
bool TryLoadCheckpointFile(const std::string& path, Checkpoint* out,
                           std::string* error = nullptr);

// CHECK-hard wrapper: aborts if missing or corrupt.
Checkpoint LoadCheckpointFile(const std::string& path);

}  // namespace streamkc

#endif  // STREAMKC_DIST_CHECKPOINT_H_
