#include "util/math_util.h"

#include <numeric>

namespace streamkc {

double Median(std::vector<double> v) {
  return MedianInPlace(v.data(), v.size());
}

double MedianInPlace(double* v, size_t n) {
  CHECK(n > 0);
  size_t mid = n / 2;
  if (n <= 16) {
    // A CountSketch's handful of row votes: insertion sort beats
    // nth_element's set-up, and the order statistics are the same.
    for (size_t i = 1; i < n; ++i) {
      const double x = v[i];
      size_t j = i;
      for (; j > 0 && v[j - 1] > x; --j) v[j] = v[j - 1];
      v[j] = x;
    }
    return n % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
  }
  std::nth_element(v, v + mid, v + n);
  double hi = v[mid];
  if (n % 2 == 1) return hi;
  double lo = *std::max_element(v, v + mid);
  return 0.5 * (lo + hi);
}

double Mean(const std::vector<double>& v) {
  CHECK(!v.empty());
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  CHECK_GE(v.size(), 2u);
  double mu = Mean(v);
  double acc = 0;
  for (double x : v) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

}  // namespace streamkc
