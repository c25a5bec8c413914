// The benchmark's edge source: hands out the generated stream in batches
// and stamps when the last edge of each snapshot segment left it. Publish
// lag and staleness are both measured from those stamps.

#ifndef PERFBENCH_TIMED_STREAM_H_
#define PERFBENCH_TIMED_STREAM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "stream/edge_stream.h"
#include "trace.h"

namespace perfbench {

// Handout time of each segment's last edge. Written by the thread reading
// the stream, read by the publisher and the readers.
class Handouts {
 public:
  Handouts(uint64_t total_edges, uint64_t cadence)
      : total_(total_edges),
        cadence_(cadence),
        segments_((total_edges + cadence - 1) / cadence),
        at_(new std::atomic<uint64_t>[segments_ + 1]) {
    for (uint64_t s = 0; s <= segments_; ++s) at_[s].store(0);
  }

  // Stamps every segment whose last edge has index in [from, to).
  void Stamp(uint64_t from, uint64_t to, uint64_t now_ns) {
    for (uint64_t s = from / cadence_; s < segments_; ++s) {
      uint64_t end = std::min((s + 1) * cadence_, total_);
      if (end > to) break;
      if (end > from) at_[s].store(now_ns, std::memory_order_release);
    }
  }

  // When the last edge of a snapshot holding the first `edges` edges was
  // handed out (0 if it has not been).
  uint64_t ForEdges(uint64_t edges) const {
    if (edges == 0) return 0;
    return at_[(edges - 1) / cadence_].load(std::memory_order_acquire);
  }

 private:
  uint64_t total_;
  uint64_t cadence_;
  uint64_t segments_;
  std::unique_ptr<std::atomic<uint64_t>[]> at_;
};

class TimedEdgeStream : public streamkc::EdgeStream {
 public:
  // `tracer` may be null (untraced run); `stream_span` is the interned
  // stream.next_batch name.
  TimedEdgeStream(const std::vector<streamkc::Edge>& edges, Handouts* handouts,
                  Tracer* tracer = nullptr, uint32_t stream_span = 0)
      : edges_(edges),
        handouts_(handouts),
        tracer_(tracer),
        stream_span_(stream_span) {}

  bool Next(streamkc::Edge* edge) override {
    if (pos_ >= edges_.size()) return false;
    *edge = edges_[pos_++];
    handouts_->Stamp(pos_ - 1, pos_, NowNs());
    return true;
  }

  size_t NextBatch(std::vector<streamkc::Edge>* out,
                   size_t max_edges) override {
    const uint64_t t0 = tracer_ != nullptr ? NowNs() : 0;
    size_t take = std::min(max_edges, edges_.size() - pos_);
    out->assign(edges_.begin() + static_cast<ptrdiff_t>(pos_),
                edges_.begin() + static_cast<ptrdiff_t>(pos_ + take));
    uint64_t t1 = NowNs();
    handouts_->Stamp(pos_, pos_ + take, t1);
    pos_ += take;
    if (tracer_ != nullptr && take > 0) {
      tracer_->Add(stream_span_, batches_++, 0, t0, t1);
    }
    return take;
  }

  void Reset() override { pos_ = 0; }
  uint64_t SizeHint() const override { return edges_.size(); }

 private:
  const std::vector<streamkc::Edge>& edges_;
  Handouts* handouts_;
  Tracer* tracer_;
  uint32_t stream_span_;
  size_t pos_ = 0;
  uint64_t batches_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_STREAM_H_
