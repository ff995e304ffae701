#ifndef UCQN_SERVER_TENANT_H_
#define UCQN_SERVER_TENANT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace ucqn {

// Per-tenant limits, riding the budgets the runtime already enforces: a
// tenant's concurrency cap is checked at admission, and its per-query
// call/deadline caps are folded into the CallBudget of the request's
// SourceStack (runtime/retrying_source.h), so one tenant's hot loop can
// neither monopolize the worker slots nor burn unbounded physical calls.
struct TenantQuota {
  // Concurrent requests this tenant may have past admission; 0 = no cap.
  std::size_t max_concurrent = 0;
  // Per-query physical-call budget; 0 = no cap. A request's own
  // max_calls ask is clamped to this, never raised by it.
  std::uint64_t max_calls_per_query = 0;
  // Per-query deadline, virtual microseconds on the request's clock;
  // 0 = none.
  std::uint64_t deadline_micros = 0;
};

// Thread-safe registry of live per-tenant usage under one quota. Tenants
// are created on first sight — the daemon serves whoever connects;
// quotas are a protection boundary, not an auth one.
class TenantRegistry {
 public:
  struct Counters {
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t quota_refusals = 0;
  };

  explicit TenantRegistry(TenantQuota default_quota = TenantQuota())
      : default_quota_(default_quota) {}

  // Every tenant runs under the registry's one quota.
  TenantQuota QuotaFor(const std::string& /*tenant*/) const {
    return default_quota_;
  }

  // Counts `tenant` into its concurrency cap. False (and a refusal tick)
  // when the tenant is already at max_concurrent; every true must be
  // paired with a Leave.
  bool TryEnter(const std::string& tenant);
  void Leave(const std::string& tenant);

  std::map<std::string, Counters> counters() const;

  // {"alice": {"in_flight": 0, "admitted": 3, ...}, ...}
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  const TenantQuota default_quota_;
  std::map<std::string, Counters> tenants_;
};

}  // namespace ucqn

#endif  // UCQN_SERVER_TENANT_H_
