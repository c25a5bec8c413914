// The Section-5 lower-bound experiment harness.
//
// Theorem 3.3's Ω(m/α²) bound comes from reducing r-player set disjointness
// to α-approximate Max 1-Cover. The same hard instances can be *solved* in
// O(m/α²) space with an L2 sketch (the paper's observation that inspired the
// upper bound): the vector a with a[j] = |S_j| (players holding item j) has
// max r in a No instance and max 1 in a Yes instance, while F2(a) ≈ total
// input size — so an F2 heavy-hitter sketch with φ ≈ r²/F2, i.e. width
// Θ(m/r²), separates the cases, and nothing much smaller can.
//
// DsjDistinguisher streams the reduced Max 1-Cover edges once and outputs a
// Yes/No verdict; `space_factor` scales the sketch width relative to the
// Θ(m/r²) budget so benches can trace the accuracy cliff as space drops
// below the lower bound.

#ifndef STREAMKC_CORE_DSJ_PROTOCOL_H_
#define STREAMKC_CORE_DSJ_PROTOCOL_H_

#include <cstdint>

#include "core/streaming_interface.h"
#include "setsys/dsj_instance.h"
#include "sketch/f2_heavy_hitters.h"

namespace streamkc {

class DsjDistinguisher : public StreamingEstimator {
 public:
  struct Config {
    uint64_t num_items = 0;    // m
    uint64_t num_players = 0;  // r (the approximation factor of the game)
    // Sketch width multiplier relative to the Θ(m/r²) budget.
    double space_factor = 1.0;
    uint64_t seed = 1;
  };

  explicit DsjDistinguisher(const Config& config);

  void Process(const Edge& edge) override;

  struct Verdict {
    bool says_no = false;       // claims a common item exists
    double max_estimate = 0;    // largest estimated |S_j|
    uint64_t heaviest_item = 0; // its item id (the recovered common item)
  };

  Verdict Finalize() const;

  size_t MemoryBytes() const override;
  const char* ComponentName() const override { return "dsj_distinguisher"; }

 private:
  Config config_;
  F2HeavyHitters hh_;
  CountSketchRows rows_;  // the sketch's row hashes
};

// Convenience: full experiment on one instance. Returns true iff the verdict
// matches the instance.
bool DsjExperimentCorrect(const DsjInstance& dsj, double space_factor,
                          uint64_t seed, size_t* memory_bytes = nullptr);

}  // namespace streamkc

#endif  // STREAMKC_CORE_DSJ_PROTOCOL_H_
