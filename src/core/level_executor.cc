#include "core/level_executor.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"

namespace streamkc {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The weight of a task's newest wall time in its cost: costs follow the
// stream within a few runs, and one slow run (a preempted thread) moves a
// cost by a quarter of the difference.
constexpr double kCostWeight = 0.25;

}  // namespace

LevelExecutor::LevelExecutor(uint32_t threads) {
  CHECK_GE(threads, 2u);
  helpers_.reserve(threads - 1);
  for (uint32_t t = 1; t < threads; ++t) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

LevelExecutor::~LevelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void LevelExecutor::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n <= 1) {
    // Nothing to spread: the caller runs it, and no helper wakes.
    if (n == 1) fn(0);
    return;
  }
  if (cost_ns_.size() < n) cost_ns_.resize(n, -1.0);
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = static_cast<uint32_t>(i);
  // Unmeasured tasks (cost < 0) go last, in id order.
  std::stable_sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    return cost_ns_[a] > cost_ns_[b];
  });
  took_ns_.assign(n, 0);
  next_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    helpers_busy_ = static_cast<uint32_t>(helpers_.size());
    ++run_id_;
  }
  wake_.notify_all();
  Claim();
  {
    // The barrier: every helper has left the run, so every task has
    // returned and its wall time is visible here.
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return helpers_busy_ == 0; });
    fn_ = nullptr;
  }
  for (size_t i = 0; i < n; ++i) {
    const double took = static_cast<double>(took_ns_[i]);
    double& cost = cost_ns_[i];
    cost = cost < 0 ? took : cost + kCostWeight * (took - cost);
  }
}

void LevelExecutor::HelperLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || run_id_ != seen; });
    if (stop_) return;
    seen = run_id_;
    lock.unlock();
    Claim();
    lock.lock();
    if (--helpers_busy_ == 0) done_.notify_one();
  }
}

void LevelExecutor::Claim() {
  const size_t n = order_.size();
  for (;;) {
    const size_t pos = next_.fetch_add(1, std::memory_order_relaxed);
    if (pos >= n) return;
    const uint32_t task = order_[pos];
    const uint64_t start = NowNs();
    (*fn_)(task);
    took_ns_[task] = NowNs() - start;
  }
}

}  // namespace streamkc
