// In-memory span recorder for the traced run.
//
// The benchmark records spans around its own calls into each layer's public
// functions; nothing inside src/ is instrumented. Spans stay in memory and
// are written once, when the run ends. Each span has a name, start, end,
// parent (0 = root) and a key: the batch, query or segment it belongs to.
// A span's self time is its duration minus the children that nest inside
// it; the per-layer metrics are computed from these totals.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// steady_clock nanoseconds, the one clock every timing here uses.
uint64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t key = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t name = 0;  // index into Tracer::names()
  uint32_t thread = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Name ids are interned once, before the hot loops run. Thread-safe.
  uint32_t Intern(const std::string& name);
  // Records an interval timed by the caller; returns the span's id.
  // Thread-safe.
  uint64_t Add(uint32_t name, uint64_t key, uint64_t parent, uint64_t start_ns,
               uint64_t end_ns);

  // Per-name totals; self time subtracts only children that nest inside
  // their parent's interval (the shadow stack's spans name the batch's
  // serve.ingest span as parent but run after it, so they subtract nothing).
  std::map<std::string, SpanTotals> Totals() const;

  // Tab-separated: one header line, then one line per span.
  bool Write(const std::string& path) const;

  // Records one span from construction to End() (or destruction).
  class Scope {
   public:
    Scope(Tracer* tracer, uint32_t name, uint64_t key, uint64_t parent = 0);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return span_.id; }
    // Closes the span; returns its duration. Idempotent.
    uint64_t End();

   private:
    Tracer* tracer_;
    Span span_;
    bool open_ = true;
  };

 private:
  uint64_t NextId();
  void Record(const Span& span);

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
