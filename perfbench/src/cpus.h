// CPU placement. The benchmark's own threads get a CPU each (the ingest
// thread the first allowed CPU, reader r the next ones), so runs do not
// differ in which of its threads happen to share a CPU.

#ifndef PERFBENCH_CPUS_H_
#define PERFBENCH_CPUS_H_

#include <pthread.h>
#include <sched.h>

#include <vector>

namespace perfbench {

// The CPUs this process may run on, in id order.
inline std::vector<int> AllowedCpus() {
  std::vector<int> out;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

// Pins the calling thread to the `index`-th allowed CPU until destruction,
// then restores its previous affinity. Threads it starts meanwhile inherit
// the pin, so the sharded pipeline is never started under one.
class ScopedPin {
 public:
  explicit ScopedPin(size_t index) {
    std::vector<int> cpus = AllowedCpus();
    if (cpus.empty() ||
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[index % cpus.size()], &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~ScopedPin() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPUS_H_
