// Small integer / floating point helpers shared across the library.

#ifndef STREAMKC_UTIL_MATH_UTIL_H_
#define STREAMKC_UTIL_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace streamkc {

// floor(log2(x)); x must be > 0.
inline uint32_t FloorLog2(uint64_t x) {
  DCHECK(x > 0);
  return 63u - static_cast<uint32_t>(__builtin_clzll(x));
}

// ceil(log2(x)); x must be > 0. CeilLog2(1) == 0.
inline uint32_t CeilLog2(uint64_t x) {
  DCHECK(x > 0);
  uint32_t f = FloorLog2(x);
  return ((x & (x - 1)) == 0) ? f : f + 1;
}

inline bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// Smallest power of two >= x (x must be >= 1 and <= 2^63).
inline uint64_t NextPowerOfTwo(uint64_t x) {
  DCHECK(x > 0);
  return IsPowerOfTwo(x) ? x : (1ULL << (FloorLog2(x) + 1));
}

// log2(max(x, 2)) as a double; a convenient "polylog" building block that is
// never smaller than 1.
inline double Log2AtLeast1(double x) { return std::log2(std::max(x, 2.0)); }

// Integer ceiling division.
inline uint64_t CeilDiv(uint64_t a, uint64_t b) {
  DCHECK(b > 0);
  return (a + b - 1) / b;
}

// Median of a vector (by value; the input is copied). Empty input is a
// programming error.
double Median(std::vector<double> v);

// Median of v[0, n), reordering v in place: the same order statistic as
// Median (the mean of the two middle values when n is even), for callers
// that keep a handful of values in a stack array.
double MedianInPlace(double* v, size_t n);

// Arithmetic mean; empty input is a programming error.
double Mean(const std::vector<double>& v);

// Sample standard deviation (n-1 denominator); needs >= 2 samples.
double StdDev(const std::vector<double>& v);

}  // namespace streamkc

#endif  // STREAMKC_UTIL_MATH_UTIL_H_
