// QueryEngine: answers coverage queries against the current snapshot.
//
// Every answer carries staleness metadata (snapshot epoch, edges ingested,
// snapshot age) so callers can decide whether a bounded-stale answer is
// acceptable — the serving layer's consistency contract is "reads see the
// latest published batch boundary", never read-your-ingest.
//
// All three query types are pure reads over an immutable snapshot:
// EstimateMaxCover / ReportMaxCover return answers precomputed at publish
// time, SetCoverage runs a const CountSketch point query. The engine is
// therefore safe to share across any number of reader threads.
//
// Rejections (no snapshot published yet, tenant over its space budget) are
// explicit answers with `ok == false`, counted per reason in
// serve_queries_rejected_total — a serving system must fail queries
// loudly, not hand out garbage.

#ifndef STREAMKC_SERVE_QUERY_ENGINE_H_
#define STREAMKC_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/snapshot_store.h"
#include "stream/edge.h"

namespace streamkc {

// Staleness metadata attached to every served answer.
struct QueryStaleness {
  uint64_t epoch = 0;
  uint64_t edges_ingested = 0;
  uint64_t batches_ingested = 0;
  uint64_t age_ns = 0;  // now - snapshot publish time
};

struct EstimateAnswer {
  bool ok = false;
  std::string error;  // set when !ok
  double estimate = 0;
  std::string source;
  QueryStaleness staleness;
};

struct ReportAnswer {
  bool ok = false;
  std::string error;
  std::vector<SetId> sets;
  double estimate = 0;
  std::string source;
  QueryStaleness staleness;
};

struct SetCoverageAnswer {
  bool ok = false;
  std::string error;
  SetId set = 0;
  double coverage = 0;  // estimated incidence count of `set`
  QueryStaleness staleness;
};

class QueryEngine {
 public:
  // `registry` nullptr = the process-wide registry. `over_budget`, when
  // non-null, is the owning tenant's budget-violation flag: queries are
  // rejected while it is set (TenantRegistry wires it).
  explicit QueryEngine(const SnapshotStore* store,
                       MetricsRegistry* registry = nullptr,
                       const std::atomic<bool>* over_budget = nullptr);

  EstimateAnswer Estimate() const;
  ReportAnswer Report() const;
  SetCoverageAnswer SetCoverage(SetId set) const;

 private:
  // Shared admission + snapshot fetch. Returns nullptr after filling
  // `error` (and counting the rejection) when the query cannot be served.
  std::shared_ptr<const CoverageSnapshot> Admit(std::string* error) const;

  static QueryStaleness StalenessOf(const CoverageSnapshot& snap,
                                    uint64_t now_steady_ns);

  const SnapshotStore* store_;
  const std::atomic<bool>* over_budget_;

  Counter* served_estimate_;
  Counter* served_report_;
  Counter* served_set_coverage_;
  Counter* rejected_no_snapshot_;
  Counter* rejected_over_budget_;
  Histogram* latency_estimate_;
  Histogram* latency_report_;
  Histogram* latency_set_coverage_;
  Gauge* snapshot_age_ns_;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_QUERY_ENGINE_H_
