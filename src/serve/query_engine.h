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
// A query before the first publish is rejected as an explicit answer with
// `ok == false`, counted in serve_queries_rejected_total — a serving system
// must fail queries loudly, not hand out garbage.

#ifndef STREAMKC_SERVE_QUERY_ENGINE_H_
#define STREAMKC_SERVE_QUERY_ENGINE_H_

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
  // `registry` nullptr = the process-wide registry.
  explicit QueryEngine(const SnapshotStore* store,
                       MetricsRegistry* registry = nullptr);

  EstimateAnswer Estimate() const;
  ReportAnswer Report() const;
  SetCoverageAnswer SetCoverage(SetId set) const;

 private:
  // Shared snapshot fetch. Returns nullptr after filling `error` (and
  // counting the rejection) when no snapshot has been published yet.
  std::shared_ptr<const CoverageSnapshot> Admit(std::string* error) const;

  static QueryStaleness StalenessOf(const CoverageSnapshot& snap,
                                    uint64_t now_steady_ns);

  const SnapshotStore* store_;

  Counter* served_estimate_;
  Counter* served_report_;
  Counter* served_set_coverage_;
  Counter* rejected_no_snapshot_;
  Histogram* latency_estimate_;
  Histogram* latency_report_;
  Histogram* latency_set_coverage_;
  Gauge* snapshot_age_ns_;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_QUERY_ENGINE_H_
