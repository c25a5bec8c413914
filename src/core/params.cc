#include "core/params.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/math_util.h"

namespace streamkc {

namespace {

void FillInstance(Params& p, uint64_t m, uint64_t n, uint64_t k,
                  double alpha) {
  CHECK_GT(m, 0u);
  CHECK_GT(n, 0u);
  CHECK_GT(k, 0u);
  CHECK_GE(alpha, 1.0);
  p.m = m;
  p.n = n;
  p.k = k;
  p.alpha = alpha;
  p.w = std::min<double>(static_cast<double>(k), alpha);
}

// Solves the Table 2 fixed point
//   s = (9/5000) · w / (α · sqrt(2η · log2(sα) · log2²(mn))).
double SolveTheoryS(double w, double alpha, double eta, double log_mn) {
  double s = 0.5 * w / alpha;  // any positive start converges fast
  for (int iter = 0; iter < 64; ++iter) {
    double log_salpha = Log2AtLeast1(s * alpha);
    double next = (9.0 / 5000.0) * w /
                  (alpha * std::sqrt(2.0 * eta * log_salpha * log_mn * log_mn));
    if (std::abs(next - s) < 1e-15) return next;
    s = next;
  }
  return s;
}

// Footprint model behind AlphaForBudget and BudgetFloorBytes: bytes ≈
// c·(m/α² + k)·polylog(m, n) words, with the calibrated constant matched
// to the measured practical-mode pipeline (bench_tradeoff). Returns the
// words per unit of (m/α² + k).
double WordsPerUnit(uint64_t m, uint64_t n) {
  return 150.0 *
         Log2AtLeast1(static_cast<double>(m) * static_cast<double>(n));
}

}  // namespace

Params Params::Theory(uint64_t m, uint64_t n, uint64_t k, double alpha) {
  Params p;
  p.mode = Mode::kTheory;
  FillInstance(p, m, n, k, alpha);
  double log_mn = Log2AtLeast1(static_cast<double>(m) * static_cast<double>(n));
  p.eta = 4;
  p.s = SolveTheoryS(p.w, alpha, p.eta, log_mn);
  p.f = 7.0 * log_mn;
  p.sigma = 1.0 / (2500.0 * log_mn * log_mn);
  p.t = 5000.0 * log_mn * log_mn / p.s;
  p.log_wise_degree = CeilLog2(m) + CeilLog2(n) + 8;
  // Theory mode keeps the paper's grids and repetition counts.
  p.universe_guess_log_step = 1;
  p.small_set_level_log_step = 1;
  p.contributing_sample_factor = 12.0;
  p.small_set_reps = std::max<uint32_t>(2, CeilLog2(n));
  return p;
}

Params Params::Practical(uint64_t m, uint64_t n, uint64_t k, double alpha) {
  Params p;
  p.mode = Mode::kPractical;
  FillInstance(p, m, n, k, alpha);
  p.eta = 4;
  // Same functional shapes as Table 2 with constants calibrated so that the
  // sampling rates and thresholds are meaningful at m, n ≤ 2^20:
  //   s keeps the w/α shape (sets contributing ≥ 2z/(w·…) count as large);
  p.s = 0.5 * p.w / alpha;
  //   f: random supersets of ≤ w sets overlap little on non-common elements,
  //      so a small constant bound on coverage inflation suffices;
  p.f = 2.0;
  //   σ: a constant fraction of the universe must be common for case I;
  p.sigma = 0.05;
  //   t: element-sampling rate factor; keeps |L| ≈ t·s·α·η manageable.
  p.t = 16.0 / p.s;
  p.small_set_reps = 1;
  return p;
}

double Params::AlphaForBudget(uint64_t m, uint64_t n, uint64_t k,
                              size_t budget_bytes) {
  CHECK_GT(m, 0u);
  CHECK_GT(budget_bytes, 0u);
  double sqrt_m = std::sqrt(static_cast<double>(m));
  // Solve the footprint model for α; clamp to the algorithm's valid range.
  double budget_words = static_cast<double>(budget_bytes) / 8.0;
  double units = budget_words / WordsPerUnit(m, n) - static_cast<double>(k);
  if (units <= static_cast<double>(m) / (sqrt_m * sqrt_m)) return sqrt_m;
  double alpha = std::sqrt(static_cast<double>(m) / units);
  return std::min(std::max(alpha, 2.0), sqrt_m);
}

size_t Params::BudgetFloorBytes(uint64_t m, uint64_t n, uint64_t k) {
  CHECK_GT(m, 0u);
  // At α = √m the m/α² term is one unit.
  double words = WordsPerUnit(m, n) * (1.0 + static_cast<double>(k));
  return static_cast<size_t>(std::ceil(8.0 * words));
}

size_t Params::SmallSetBudgetBytes() const {
  if (small_set_budget_bytes != 0) return small_set_budget_bytes;
  // Lemma 4.21: the stored sub-instance is Õ(m/α² + k) words; the budget is
  // that bound with its polylog factor spelled out. Instances above it are
  // wrong guesses and get discarded.
  double log_mn = Log2AtLeast1(static_cast<double>(m) * static_cast<double>(n));
  double words = (static_cast<double>(m) / (alpha * alpha) +
                  static_cast<double>(k)) *
                 log_mn;
  return static_cast<size_t>(32.0 * words) + (16u << 10);
}

std::string Params::DebugString() const {
  std::ostringstream os;
  os << "Params{mode=" << (mode == Mode::kTheory ? "theory" : "practical")
     << " m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
     << " w=" << w << " s=" << s << " f=" << f << " sigma=" << sigma
     << " t=" << t << " eta=" << eta << "}";
  return os.str();
}

}  // namespace streamkc
