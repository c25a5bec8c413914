// Minimal binary serialization helpers for sketch checkpointing.
//
// Format discipline: every serialized object writes a 32-bit magic and a
// 32-bit version first; Load CHECK-fails on mismatch (a corrupt or
// foreign-version checkpoint is unrecoverable, so it is treated as a fatal
// pipeline error, consistent with the library's no-exceptions policy).
// Integers are written little-endian fixed-width; this code targets
// same-architecture checkpoint/restore (the library's use case: sharded
// workers on one cluster), not cross-endian archival.

#ifndef STREAMKC_UTIL_SERIALIZE_H_
#define STREAMKC_UTIL_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "util/check.h"

namespace streamkc {

inline void WriteU32(std::ostream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void WriteU64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void WriteDouble(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline uint32_t ReadU32(std::istream& is) {
  uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  CHECK(is.good());
  return v;
}

inline uint64_t ReadU64(std::istream& is) {
  uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  CHECK(is.good());
  return v;
}

inline double ReadDouble(std::istream& is) {
  double v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  CHECK(is.good());
  return v;
}

template <typename T>
void WritePodVector(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteU64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> ReadPodVector(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t size = ReadU64(is);
  // Defensive cap: a corrupt length must not drive a huge allocation.
  CHECK_LT(size, uint64_t{1} << 34);
  std::vector<T> v(size);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  CHECK(is.good() || size == 0);
  return v;
}

// Writes/checks the (magic, version) header.
inline void WriteHeader(std::ostream& os, uint32_t magic, uint32_t version) {
  WriteU32(os, magic);
  WriteU32(os, version);
}

inline void CheckHeader(std::istream& is, uint32_t magic, uint32_t version) {
  CHECK_EQ(ReadU32(is), magic);
  CHECK_EQ(ReadU32(is), version);
}

}  // namespace streamkc

#endif  // STREAMKC_UTIL_SERIALIZE_H_
