#include "serve/query_engine.h"

#include <chrono>

#include "util/check.h"

namespace streamkc {

namespace {

uint64_t NowSteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

QueryEngine::QueryEngine(const SnapshotStore* store, MetricsRegistry* registry)
    : store_(store) {
  CHECK(store != nullptr);
  MetricsRegistry* reg = registry ? registry : &MetricsRegistry::Global();
  served_estimate_ =
      reg->GetCounter(LabeledName("serve_queries_total", "type", "estimate"));
  served_report_ =
      reg->GetCounter(LabeledName("serve_queries_total", "type", "report"));
  served_set_coverage_ = reg->GetCounter(
      LabeledName("serve_queries_total", "type", "set_coverage"));
  rejected_no_snapshot_ = reg->GetCounter(
      LabeledName("serve_queries_rejected_total", "reason", "no_snapshot"));
  latency_estimate_ = reg->GetHistogram(
      LabeledName("serve_query_latency_ns", "type", "estimate"));
  latency_report_ = reg->GetHistogram(
      LabeledName("serve_query_latency_ns", "type", "report"));
  latency_set_coverage_ = reg->GetHistogram(
      LabeledName("serve_query_latency_ns", "type", "set_coverage"));
  snapshot_age_ns_ = reg->GetGauge("serve_snapshot_age_ns");
}

std::shared_ptr<const CoverageSnapshot> QueryEngine::Admit(
    std::string* error) const {
  std::shared_ptr<const CoverageSnapshot> snap = store_->Current();
  if (snap == nullptr) {
    rejected_no_snapshot_->Increment();
    *error = "no snapshot published yet";
    return nullptr;
  }
  return snap;
}

QueryStaleness QueryEngine::StalenessOf(const CoverageSnapshot& snap,
                                        uint64_t now_steady_ns) {
  QueryStaleness s;
  s.epoch = snap.meta().epoch;
  s.edges_ingested = snap.meta().edges_ingested;
  s.batches_ingested = snap.meta().batches_ingested;
  s.age_ns = snap.AgeNs(now_steady_ns);
  return s;
}

EstimateAnswer QueryEngine::Estimate() const {
  uint64_t t0 = NowSteadyNs();
  EstimateAnswer ans;
  auto snap = Admit(&ans.error);
  if (snap == nullptr) return ans;
  ans.ok = true;
  ans.estimate = snap->solution().estimate;
  ans.source = snap->solution().source;
  uint64_t t1 = NowSteadyNs();
  ans.staleness = StalenessOf(*snap, t1);
  snapshot_age_ns_->Set(ans.staleness.age_ns);
  served_estimate_->Increment();
  latency_estimate_->Observe(t1 - t0);
  return ans;
}

ReportAnswer QueryEngine::Report() const {
  uint64_t t0 = NowSteadyNs();
  ReportAnswer ans;
  auto snap = Admit(&ans.error);
  if (snap == nullptr) return ans;
  ans.ok = true;
  ans.sets = snap->solution().sets;
  ans.estimate = snap->solution().estimate;
  ans.source = snap->solution().source;
  uint64_t t1 = NowSteadyNs();
  ans.staleness = StalenessOf(*snap, t1);
  snapshot_age_ns_->Set(ans.staleness.age_ns);
  served_report_->Increment();
  latency_report_->Observe(t1 - t0);
  return ans;
}

SetCoverageAnswer QueryEngine::SetCoverage(SetId set) const {
  uint64_t t0 = NowSteadyNs();
  SetCoverageAnswer ans;
  ans.set = set;
  auto snap = Admit(&ans.error);
  if (snap == nullptr) return ans;
  ans.ok = true;
  ans.coverage = snap->SetCoverage(set);
  uint64_t t1 = NowSteadyNs();
  ans.staleness = StalenessOf(*snap, t1);
  snapshot_age_ns_->Set(ans.staleness.age_ns);
  served_set_coverage_->Increment();
  latency_set_coverage_->Observe(t1 - t0);
  return ans;
}

}  // namespace streamkc
