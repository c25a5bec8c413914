// Wall-clock stopwatch used by the benchmark harnesses.

#ifndef STREAMKC_UTIL_STOPWATCH_H_
#define STREAMKC_UTIL_STOPWATCH_H_

#include <chrono>

namespace streamkc {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace streamkc

#endif  // STREAMKC_UTIL_STOPWATCH_H_
