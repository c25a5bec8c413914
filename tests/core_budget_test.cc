// Tests for the inverse space-budget question (Params::AlphaForBudget) and
// the distributed use of the pipeline's sketch substrate.

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimate_max_cover.h"
#include "test_util.h"

namespace streamkc {
namespace {

TEST(AlphaForBudget, MonotoneInBudget) {
  const uint64_t m = 1 << 16, n = 1 << 14, k = 64;
  double tight = Params::AlphaForBudget(m, n, k, 64u << 10);
  double roomy = Params::AlphaForBudget(m, n, k, 16u << 20);
  EXPECT_GE(tight, roomy);  // less space → coarser approximation
  EXPECT_GE(roomy, 2.0);
  EXPECT_LE(tight, std::sqrt(static_cast<double>(m)) + 1e-9);
}

TEST(AlphaForBudget, ClampsToValidRange) {
  const uint64_t m = 1 << 12;
  // Absurdly generous budget → α floors at 2.
  EXPECT_DOUBLE_EQ(Params::AlphaForBudget(m, m, 8, 1u << 30), 2.0);
  // Starved budget → α caps at √m (beyond which the theorem gives nothing).
  EXPECT_DOUBLE_EQ(Params::AlphaForBudget(m, m, 8, 1024),
                   std::sqrt(static_cast<double>(m)));
}

TEST(AlphaForBudget, FloorIsTheFootprintAtSqrtM) {
  // m = 512, n = 1024: log2(mn) = 19, so the floor is 8 bytes · 150 · 19
  // words per unit times the (m/α² + k) = 1 + 16 units left at α = √m.
  const uint64_t m = 512, n = 1024, k = 16;
  const size_t floor = Params::BudgetFloorBytes(m, n, k);
  EXPECT_EQ(floor, 387600u);
  const double sqrt_m = std::sqrt(static_cast<double>(m));
  // Below the floor no α is predicted to fit: the solver clamps to √m.
  EXPECT_DOUBLE_EQ(Params::AlphaForBudget(m, n, k, floor - 1), sqrt_m);
  EXPECT_DOUBLE_EQ(Params::AlphaForBudget(m, n, k, floor / 2), sqrt_m);
  // Above it a tighter α fits.
  EXPECT_LT(Params::AlphaForBudget(m, n, k, 2 * floor), sqrt_m);
  // The floor grows with k (the + k term) and with log(mn).
  EXPECT_GT(Params::BudgetFloorBytes(m, n, 2 * k), floor);
  EXPECT_GT(Params::BudgetFloorBytes(m, 4 * n, k), floor);
}

TEST(AlphaForBudget, AlphaSquaredShape) {
  // Quadrupling m at a fixed budget should roughly double α (α ∝ √m in the
  // budget-bound regime).
  const uint64_t k = 16;
  size_t budget = 256u << 10;
  double a1 = Params::AlphaForBudget(1 << 14, 1 << 12, k, budget);
  double a2 = Params::AlphaForBudget(1 << 16, 1 << 12, k, budget);
  EXPECT_GT(a2, a1 * 1.4);
  EXPECT_LT(a2, a1 * 2.9);
}

TEST(AlphaForBudget, PredictionRoughlyMatchesMeasured) {
  // Build an estimator at the α the solver recommends for a budget and
  // verify the realized footprint is within a small factor of that budget.
  const uint64_t m = 1 << 13, n = 1 << 12, k = 32;
  for (size_t budget : {size_t{1} << 20, size_t{4} << 20}) {
    double alpha = Params::AlphaForBudget(m, n, k, budget);
    auto inst = RandomUniform(m, n, 8, 3);
    EstimateMaxCover::Config c;
    c.params = Params::Practical(m, n, k, alpha);
    c.seed = 9;
    EstimateMaxCover est(c);
    FeedSystem(inst.system, ArrivalOrder::kRandom, 1, est);
    double measured = static_cast<double>(est.MemoryBytes());
    EXPECT_LE(measured, 4.0 * static_cast<double>(budget))
        << "budget " << budget << " alpha " << alpha;
  }
}

TEST(AlphaForBudget, InvalidInputsAbort) {
  EXPECT_DEATH(Params::AlphaForBudget(0, 10, 1, 100), "CHECK failed");
  EXPECT_DEATH(Params::AlphaForBudget(10, 10, 1, 0), "CHECK failed");
}

}  // namespace
}  // namespace streamkc
