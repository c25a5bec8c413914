#include "serve/tenant_registry.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace streamkc {

namespace {

// Mirror of the AlphaForBudget footprint model (core/params.cc): predicted
// sketch bytes at a given α. Used only for admission feasibility — the
// smallest possible footprint is the α = √m point, where m/α² = 1.
double PredictedBytes(uint64_t m, uint64_t n, uint64_t k, double alpha) {
  double log_mn =
      std::max(std::log2(static_cast<double>(m) * static_cast<double>(n)), 1.0);
  double words = 150.0 * log_mn *
                 (static_cast<double>(m) / (alpha * alpha) +
                  static_cast<double>(k));
  return 8.0 * words;
}

}  // namespace

Tenant::Tenant(const std::string& name, const TenantQuota& quota, double alpha,
               const ServingState::Config& state_config,
               MetricsRegistry* registry)
    : name_(name),
      quota_(quota),
      alpha_(alpha),
      state_config_(state_config),
      store_(name, registry),
      engine_(&store_, registry, &over_budget_) {
  budget_gauge_ = registry->GetGauge(
      LabeledName("serve_tenant_budget_bytes", "tenant", name));
  space_gauge_ = registry->GetGauge(
      LabeledName("serve_tenant_space_bytes", "tenant", name));
  budget_gauge_->Set(quota.budget_bytes);
}

TenantRegistry::TenantRegistry(size_t global_budget_bytes,
                               MetricsRegistry* registry)
    : global_budget_bytes_(global_budget_bytes),
      registry_(registry ? registry : &MetricsRegistry::Global()) {
  tenants_gauge_ = registry_->GetGauge("serve_tenants");
  reserved_gauge_ = registry_->GetGauge("serve_tenant_reserved_bytes");
  admitted_total_ = registry_->GetCounter("serve_tenants_admitted_total");
  rejected_total_ = registry_->GetCounter("serve_tenants_rejected_total");
}

Tenant* TenantRegistry::Create(const std::string& name,
                               const TenantQuota& quota, std::string* error) {
  CHECK(error != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto reject = [&](const std::string& why) -> Tenant* {
    *error = why;
    rejected_total_->Increment();
    return nullptr;
  };
  if (name.empty()) return reject("tenant name must be non-empty");
  if (tenants_.count(name) != 0) {
    return reject("tenant '" + name + "' already exists");
  }
  if (quota.m == 0 || quota.n == 0 || quota.k == 0) {
    return reject("tenant quota needs m, n, k >= 1");
  }
  if (quota.budget_bytes == 0) {
    return reject("tenant budget_bytes must be > 0");
  }
  // Feasibility under the space law: even the loosest admissible
  // approximation (α clamped at √m, where the m/α² term bottoms out at one
  // unit) has a predicted floor; a budget below it cannot be honored.
  double floor_bytes = PredictedBytes(
      quota.m, quota.n, quota.k, std::sqrt(static_cast<double>(quota.m)));
  if (static_cast<double>(quota.budget_bytes) < floor_bytes) {
    return reject("budget " + std::to_string(quota.budget_bytes) +
                  " bytes is below the space-law floor (~" +
                  std::to_string(static_cast<uint64_t>(floor_bytes)) +
                  " bytes at alpha = sqrt(m)) for this instance");
  }
  if (global_budget_bytes_ != 0 &&
      reserved_bytes_ + quota.budget_bytes > global_budget_bytes_) {
    return reject("global budget exhausted: " +
                  std::to_string(reserved_bytes_) + " of " +
                  std::to_string(global_budget_bytes_) +
                  " bytes already reserved, tenant wants " +
                  std::to_string(quota.budget_bytes));
  }

  double alpha =
      Params::AlphaForBudget(quota.m, quota.n, quota.k, quota.budget_bytes);
  ServingState::Config config;
  config.params = Params::Practical(quota.m, quota.n, quota.k, alpha);
  config.seed = quota.seed;
  auto tenant = std::unique_ptr<Tenant>(
      new Tenant(name, quota, alpha, config, registry_));
  Tenant* out = tenant.get();
  tenants_.emplace(name, std::move(tenant));
  reserved_bytes_ += quota.budget_bytes;
  tenants_gauge_->Set(tenants_.size());
  reserved_gauge_->Set(reserved_bytes_);
  admitted_total_->Increment();
  return out;
}

Tenant* TenantRegistry::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

bool TenantRegistry::RecordSpace(const std::string& name, uint64_t bytes) {
  Tenant* t = Find(name);
  if (t == nullptr) return false;
  t->space_bytes_.store(bytes, std::memory_order_relaxed);
  t->space_gauge_->Set(bytes);
  t->over_budget_.store(bytes > t->quota_.budget_bytes,
                        std::memory_order_relaxed);
  return true;
}

size_t TenantRegistry::NumTenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

size_t TenantRegistry::reserved_budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_bytes_;
}

}  // namespace streamkc
