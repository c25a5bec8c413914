// LevelExecutor: the fork-join that runs an EstimateMaxCover's live levels
// on several threads (DESIGN.md §6).
//
// Figure 1's (guess, repetition) oracles are independent: each reads every
// edge of the stream in stream order and shares nothing mutable with the
// others. So one slice of the stream can go to every live level at once,
// each level on one thread, and the state is exactly the one a single
// thread builds, with no replicas and no merge.
//
// Run(n, fn) calls fn(0), ..., fn(n - 1) once each, spread over the calling
// thread and the executor's threads - 1 helpers, and returns when every
// call has returned. Tasks are claimed longest first, by a cost the
// executor measures itself: an EWMA of each task's wall time over the runs
// so far. Between runs the helpers block on a condition variable instead of
// spinning, so their cores stay free for other work (query readers).
//
// The executor is not estimator state: it is never copied, merged,
// fingerprinted, serialized or counted in MemoryBytes(). An owner attaches
// one to an estimator for as long as it drives it
// (EstimateMaxCover::AttachExecutor) and detaches it before the executor
// goes away.

#ifndef STREAMKC_CORE_LEVEL_EXECUTOR_H_
#define STREAMKC_CORE_LEVEL_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace streamkc {

class LevelExecutor {
 public:
  // `threads` >= 2 threads run each Run(): the caller and threads - 1
  // helpers, started here and joined by the destructor.
  explicit LevelExecutor(uint32_t threads);
  ~LevelExecutor();
  LevelExecutor(const LevelExecutor&) = delete;
  LevelExecutor& operator=(const LevelExecutor&) = delete;

  // Calls fn(i) for every i < n, each on exactly one thread; returns when
  // all have returned. One Run() at a time, from one owner thread.
  void Run(size_t n, const std::function<void(size_t)>& fn);

 private:
  void HelperLoop();
  // Claims and runs the current run's tasks until none is left.
  void Claim();

  std::mutex mu_;
  std::condition_variable wake_;  // helpers: a new run, or stop
  std::condition_variable done_;  // owner: every helper left the run
  uint64_t run_id_ = 0;
  uint32_t helpers_busy_ = 0;
  bool stop_ = false;

  // The current run, written by the owner before it wakes the helpers.
  const std::function<void(size_t)>* fn_ = nullptr;
  std::vector<uint32_t> order_;  // task ids, most expensive first
  std::atomic<size_t> next_{0};  // position in order_ of the next claim
  std::vector<uint64_t> took_ns_;  // this run's wall time per task
  // EWMA of each task's wall time in ns; < 0 until first measured.
  std::vector<double> cost_ns_;

  std::vector<std::thread> helpers_;
};

}  // namespace streamkc

#endif  // STREAMKC_CORE_LEVEL_EXECUTOR_H_
