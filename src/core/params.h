// Algorithm parameters (Table 2 of the paper) and engineering knobs.
//
// The paper fixes its constants for the proofs (Table 2):
//   w = min{k, α}
//   s = (9/5000) · w / (α · sqrt(2η · log(sα) · log²(mn)))   (self-referential
//       through log(sα); we resolve it by fixed-point iteration)
//   f = 7 · log(mn)
//   σ = 1 / (2500 · log²(mn))
//   t = 5000 · log²(mn) / s
//   η = 4
//
// Those constants make the union bounds go through at asymptotic scale but
// are uselessly conservative at laptop-scale m, n (σ < 10⁻⁵ forces sample
// sizes beyond the instance itself). Params therefore has two factories:
//
//   Params::Theory(...)    — Table 2 verbatim (unit-tested against the
//                            formulas); useful for reasoning and for the
//                            arithmetic tests.
//   Params::Practical(...) — same functional forms with calibrated
//                            constants; used by benches and examples. The
//                            asymptotic shape (how each quantity scales with
//                            m, n, k, α) is identical.
//
// All downstream modules read their constants from a Params value, so
// switching modes is a one-line change for a caller.

#ifndef STREAMKC_CORE_PARAMS_H_
#define STREAMKC_CORE_PARAMS_H_

#include <cstdint>
#include <string>

namespace streamkc {

struct Params {
  enum class Mode { kTheory, kPractical };

  // ---- Instance parameters -------------------------------------------------
  uint64_t m = 0;      // number of sets
  uint64_t n = 0;      // ground set size
  uint64_t k = 0;      // solution size
  double alpha = 2.0;  // target approximation factor

  Mode mode = Mode::kPractical;

  // ---- Table 2 values ------------------------------------------------------
  double w = 0;      // min{k, α}
  double s = 0;      // "large set" contribution scale (OPT_large cut at z/(sα))
  double f = 0;      // per-superset coverage inflation bound (Claim 4.10)
  double sigma = 0;  // common-element mass threshold (case I of §4)
  double t = 0;      // element-sampling rate factor in LargeSet (App. B)
  double eta = 4;    // promised coverage fraction denominator (Def. 3.4)

  // ---- Engineering knobs (same defaults in both modes unless noted) -------
  // c in the paper's (c·m·log m)/γ hash ranges (set sampling, supersets).
  double c_hash = 1.0;
  // Degree of the "Θ(log(mn))-wise" hash family. Theory: ceil(log2 m) +
  // ceil(log2 n) + 8. Practical: 8 (plenty at laptop scale, much faster).
  uint32_t log_wise_degree = 8;
  // KMV minima per L0 estimator (error ~ 2/sqrt of this).
  uint32_t l0_num_mins = 64;
  // log(1/δ) repetitions per universe-reduction level (Fig. 1).
  uint32_t universe_reduction_reps = 2;
  // Universe guesses are z = 2^(step·j): step 1 is the paper's every-power-
  // of-two grid; the practical default 2 quarters the oracle count at a
  // bounded constant-factor cost in estimate granularity.
  uint32_t universe_guess_log_step = 2;
  // SmallSet coverage-fraction guesses γ = 2^(step·j), same trade-off.
  uint32_t small_set_level_log_step = 2;
  // F2-Contributing per-level sampling numerator multiplier (paper: 12).
  double contributing_sample_factor = 4.0;
  // O(log n) repetitions inside LargeSet (Fig. 7).
  uint32_t large_set_reps = 2;
  // log n repetitions per guess inside SmallSet (Fig. 5).
  uint32_t small_set_reps = 2;
  // φ1 = phi1_factor · α²/m, φ2 = phi2_factor / log2(α) (§4.2 Cases 1/2).
  double phi1_factor = 1.0;
  double phi2_factor = 0.5;
  // SmallSet: k' = max(1, ceil(kprime_factor · k/α)) sets are sought in the
  // subsampled instance (paper: 36k/(sα)).
  double kprime_factor = 2.0;
  // SmallSet: set-sampling probability multiplier (paper: 18/(sα)).
  double set_sample_factor = 3.0;
  // SmallSet: element-sample size multiplier c_L (|L| = c_L·γ·k'·log n).
  double element_sample_factor = 4.0;
  // SmallSet: feasibility cut — accept a sub-solution only if it covers at
  // least accept_factor·k' sampled elements.
  double accept_factor = 1.0;
  // SmallSet per-instance storage budget in bytes (0 = derived as
  // 64·(m/α² + k) + 16 KiB).
  size_t small_set_budget_bytes = 0;
  // Universe-reduction levels: skip guesses z below this (tiny universes are
  // noise-dominated and never win).
  uint64_t min_universe_guess = 8;

  // ---- Factories -----------------------------------------------------------
  static Params Theory(uint64_t m, uint64_t n, uint64_t k, double alpha);
  static Params Practical(uint64_t m, uint64_t n, uint64_t k, double alpha);

  // The inverse question from the paper's introduction ("in many scenarios,
  // space is the most critical factor ... what approximation guarantees are
  // possible within the given space bounds?"): the smallest α whose
  // practical-mode sketch is predicted to fit in `budget_bytes`, derived
  // from the Θ̃(m/α²) law and clamped to [2, √m]. Exact fit depends on the
  // workload; callers should verify with MemoryBytes().
  static double AlphaForBudget(uint64_t m, uint64_t n, uint64_t k,
                               size_t budget_bytes);
  // The same footprint model at α = √m, the largest α the paper's bound
  // admits: no budget below it can be met, and AlphaForBudget clamps any
  // such budget to √m.
  static size_t BudgetFloorBytes(uint64_t m, uint64_t n, uint64_t k);

  // Derived storage budget for one SmallSet instance.
  size_t SmallSetBudgetBytes() const;

  std::string DebugString() const;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_PARAMS_H_
