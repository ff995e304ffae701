#include "server/tenant.h"

#include "util/json.h"

namespace ucqn {

bool TenantRegistry::TryEnter(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  Counters& counters = tenants_[tenant];
  if (default_quota_.max_concurrent != 0 &&
      counters.in_flight >= default_quota_.max_concurrent) {
    ++counters.quota_refusals;
    return false;
  }
  ++counters.in_flight;
  ++counters.admitted;
  return true;
}

void TenantRegistry::Leave(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.in_flight == 0) return;
  --it->second.in_flight;
  ++it->second.completed;
}

std::map<std::string, TenantRegistry::Counters> TenantRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_;
}

std::string TenantRegistry::ToJson() const {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, c] : counters()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("in_flight", JsonValue::Number(static_cast<double>(c.in_flight)));
    entry.Set("admitted", JsonValue::Number(static_cast<double>(c.admitted)));
    entry.Set("completed",
              JsonValue::Number(static_cast<double>(c.completed)));
    entry.Set("quota_refusals",
              JsonValue::Number(static_cast<double>(c.quota_refusals)));
    out.Set(name, std::move(entry));
  }
  return out.Dump();
}

}  // namespace ucqn
