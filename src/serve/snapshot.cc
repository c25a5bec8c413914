#include "serve/snapshot.h"

#include <sstream>

#include "util/check.h"
#include "util/serialize.h"

namespace streamkc {

namespace {

// 'K''C''S''N' — streamkc coverage snapshot.
constexpr uint32_t kSnapshotMagic = 0x4B43534E;
// Version 2 dropped the quarantined-shard fraction from the metadata.
constexpr uint32_t kSnapshotVersion = 2;

void WriteString(std::ostream& os, const std::string& s) {
  WriteU64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string ReadString(std::istream& is) {
  uint64_t size = ReadU64(is);
  // Defensive cap, same discipline as ReadPodVector: a corrupt length must
  // not drive a huge allocation before the checksum would have caught it.
  CHECK_LT(size, uint64_t{1} << 20);
  std::string s(size, '\0');
  is.read(s.data(), static_cast<std::streamsize>(size));
  CHECK(is.good() || size == 0);
  return s;
}

}  // namespace

uint64_t SnapshotChecksum(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::shared_ptr<const CoverageSnapshot> CoverageSnapshot::Build(
    const ServingState& state, const SnapshotMeta& meta) {
  return Build(state, state.FinalizeSolution(), meta);
}

std::shared_ptr<const CoverageSnapshot> CoverageSnapshot::Build(
    const ServingState& state, const MaxCoverSolution& solution,
    const SnapshotMeta& meta) {
  // Payload first, so the checksum can cover every byte after the header.
  std::stringstream payload;
  WriteU64(payload, meta.epoch);
  WriteU64(payload, meta.edges_ingested);
  WriteU64(payload, meta.batches_ingested);
  WriteU32(payload, meta.shards);
  WriteU64(payload, meta.publish_steady_ns);
  WriteDouble(payload, solution.estimate);
  WriteString(payload, solution.source);
  WritePodVector(payload, solution.sets);
  state.set_coverage().Save(payload);

  std::stringstream blob;
  WriteHeader(blob, kSnapshotMagic, kSnapshotVersion);
  const std::string payload_bytes = payload.str();
  WriteU64(blob, SnapshotChecksum(payload_bytes));
  blob.write(payload_bytes.data(),
             static_cast<std::streamsize>(payload_bytes.size()));
  // Restoring from the just-written bytes (instead of copying live members)
  // keeps the serialization path on the publish hot path: a blob that can't
  // round-trip fails HERE, at the producer, not at a reader.
  return FromBlob(blob.str());
}

std::shared_ptr<const CoverageSnapshot> CoverageSnapshot::FromBlob(
    const std::string& blob) {
  std::stringstream is(blob);
  CheckHeader(is, kSnapshotMagic, kSnapshotVersion);
  uint64_t want_checksum = ReadU64(is);
  constexpr size_t kHeaderBytes = 4 + 4 + 8;
  CHECK_GE(blob.size(), kHeaderBytes);
  CHECK_EQ(SnapshotChecksum(blob.substr(kHeaderBytes)), want_checksum);

  auto snap = std::shared_ptr<CoverageSnapshot>(new CoverageSnapshot());
  snap->meta_.epoch = ReadU64(is);
  snap->meta_.edges_ingested = ReadU64(is);
  snap->meta_.batches_ingested = ReadU64(is);
  snap->meta_.shards = ReadU32(is);
  snap->meta_.publish_steady_ns = ReadU64(is);
  snap->solution_.estimate = ReadDouble(is);
  snap->solution_.source = ReadString(is);
  snap->solution_.sets = ReadPodVector<SetId>(is);
  snap->set_coverage_ = std::make_unique<CountSketch>(CountSketch::Load(is));
  snap->blob_ = blob;
  return snap;
}

size_t CoverageSnapshot::MemoryBytes() const {
  return blob_.size() + set_coverage_->MemoryBytes() +
         solution_.sets.size() * sizeof(SetId);
}

}  // namespace streamkc
