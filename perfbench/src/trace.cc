#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint64_t Tracer::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

uint64_t Tracer::Add(uint32_t name, uint64_t key, uint64_t parent,
                     uint64_t start_ns, uint64_t end_ns) {
  Span s;
  s.id = NextId();
  s.parent = parent;
  s.key = key;
  s.name = name;
  s.thread = ThreadIndex();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  Record(s);
  return s.id;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans_[it->second];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) continue;
    uint64_t d = s.end_ns - s.start_ns;
    self[it->second] -= d <= self[it->second] ? d : self[it->second];
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[names_[spans_[i].name]];
    ++t.count;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "id\tparent\tname\tkey\tthread\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%s\t%llu\t%u\t%llu\t%llu\n",
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 names_[s.name].c_str(), (unsigned long long)s.key, s.thread,
                 (unsigned long long)s.start_ns, (unsigned long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

Tracer::Scope::Scope(Tracer* tracer, uint32_t name, uint64_t key,
                     uint64_t parent)
    : tracer_(tracer) {
  span_.id = tracer->NextId();
  span_.parent = parent;
  span_.key = key;
  span_.name = name;
  span_.thread = ThreadIndex();
  span_.start_ns = NowNs();
}

uint64_t Tracer::Scope::End() {
  if (open_) {
    span_.end_ns = NowNs();
    tracer_->Record(span_);
    open_ = false;
  }
  return span_.end_ns - span_.start_ns;
}

}  // namespace perfbench
