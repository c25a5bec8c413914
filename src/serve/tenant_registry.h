// TenantRegistry: budgeted multi-tenant serving instances.
//
// "Coverage as a service" means many instances sharing one process, each
// with its own space budget — and the paper's Θ̃(m/α²) trade-off is exactly
// the admission-control lever: a tenant declares (m, n, k, budget_bytes),
// and the registry derives the tightest approximation factor whose sketch
// is predicted to fit (Params::AlphaForBudget). A tenant that asks for a
// budget the law cannot meet even at the α = √m clamp is REJECTED at
// creation, not over-admitted and OOM-killed later.
//
// Two enforcement layers:
//   * admission: Σ tenant budgets ≤ the registry's global budget — reserved
//     capacity, checked at Create();
//   * runtime: the owner of each tenant's ingest reports measured footprints
//     through RecordSpace(); a tenant observed above its own budget has its
//     over_budget flag raised, which its QueryEngine turns into explicit
//     query rejections until the footprint drops back under.
//
// Each tenant bundles its own SnapshotStore (metrics labeled by tenant
// name) and a QueryEngine wired to the budget flag. Create()/Find() are
// mutex-guarded; the returned Tenant* is stable for the registry's
// lifetime, and the hot paths it exposes (queries, RecordSpace) are
// lock-free.

#ifndef STREAMKC_SERVE_TENANT_REGISTRY_H_
#define STREAMKC_SERVE_TENANT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/params.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/serving_state.h"
#include "serve/snapshot_store.h"

namespace streamkc {

// What a tenant declares at admission time.
struct TenantQuota {
  uint64_t m = 0;  // sets
  uint64_t n = 0;  // ground-set size
  uint64_t k = 0;  // solution size
  size_t budget_bytes = 0;
  uint64_t seed = 1;
};

class Tenant {
 public:
  const std::string& name() const { return name_; }
  const TenantQuota& quota() const { return quota_; }
  // The α the budget bought (AlphaForBudget, clamped to [2, √m]).
  double alpha() const { return alpha_; }
  // Full estimator configuration for this tenant's ServingRuntime.
  const ServingState::Config& state_config() const { return state_config_; }

  SnapshotStore* store() { return &store_; }
  const QueryEngine& queries() const { return engine_; }

  // Latest footprint reported through TenantRegistry::RecordSpace.
  uint64_t space_bytes() const {
    return space_bytes_.load(std::memory_order_relaxed);
  }
  bool over_budget() const {
    return over_budget_.load(std::memory_order_relaxed);
  }

 private:
  friend class TenantRegistry;
  Tenant(const std::string& name, const TenantQuota& quota, double alpha,
         const ServingState::Config& state_config, MetricsRegistry* registry);

  std::string name_;
  TenantQuota quota_;
  double alpha_;
  ServingState::Config state_config_;
  std::atomic<uint64_t> space_bytes_{0};
  std::atomic<bool> over_budget_{false};
  SnapshotStore store_;
  QueryEngine engine_;
  Gauge* budget_gauge_;
  Gauge* space_gauge_;
};

class TenantRegistry {
 public:
  // `global_budget_bytes` caps the SUM of admitted tenant budgets (0 =
  // unlimited); `registry` nullptr = the process-wide registry.
  explicit TenantRegistry(size_t global_budget_bytes = 0,
                          MetricsRegistry* registry = nullptr);

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // Admits a tenant, or returns nullptr with `*error` set: duplicate name,
  // empty name, zero-dimension quota, a budget the space law cannot meet at
  // any admissible α, or global-budget exhaustion. Admission counts in
  // serve_tenants_admitted_total / serve_tenants_rejected_total.
  Tenant* Create(const std::string& name, const TenantQuota& quota,
                 std::string* error);

  // nullptr when no such tenant.
  Tenant* Find(const std::string& name);

  // Records tenant `name`'s measured footprint (its ingest owner samples
  // ServingState::MemoryBytes() / SpaceAccountant peaks) and re-evaluates
  // the over-budget flag the tenant's QueryEngine consumes. Returns false
  // for an unknown tenant.
  bool RecordSpace(const std::string& name, uint64_t bytes);

  size_t NumTenants() const;
  // Σ admitted budgets and the global cap (0 = unlimited).
  size_t reserved_budget_bytes() const;
  size_t global_budget_bytes() const { return global_budget_bytes_; }

 private:
  size_t global_budget_bytes_;
  MetricsRegistry* registry_;
  mutable std::mutex mu_;
  // node-stable: Tenant* handed out stays valid for the registry's lifetime.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  size_t reserved_bytes_ = 0;
  Gauge* tenants_gauge_;
  Gauge* reserved_gauge_;
  Counter* admitted_total_;
  Counter* rejected_total_;
};

}  // namespace streamkc

#endif  // STREAMKC_SERVE_TENANT_REGISTRY_H_
