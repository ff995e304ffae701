#ifndef UCQN_SERVER_DAEMON_H_
#define UCQN_SERVER_DAEMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "ast/query.h"
#include "cost/stats_catalog.h"
#include "eval/database.h"
#include "eval/delta.h"
#include "runtime/shared_cache.h"
#include "runtime/source_stack.h"
#include "schema/catalog.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/snapshot.h"
#include "server/tenant.h"

namespace ucqn {

// The long-lived, multi-tenant face of the mediator: one process, one
// SharedCacheStore + StatsCatalog + backend transport, many concurrent
// query sessions multiplexed onto them. Each Submit is one session —
// admission-controlled, quota-checked, executed on the caller's thread
// against a fresh SourceStack view of the shared state. The transport
// fronts (listener.h's Unix socket, ucqnd's --stdio loop) are thin
// adapters over Submit; tests drive Submit directly.
//
// Lifecycle: construct → LoadSnapshots (optional, warm start) → serve
// Submits from any number of threads → Drain (finish in-flight, refuse
// new, spill snapshots) → destruct.
class QueryDaemon {
 public:
  struct Options {
    AdmissionController::Options admission;
    TenantQuota default_quota;
    // Stack template for every session: retry policy, parallelism,
    // pipeline depth, deadline default. Per-session fields (shared
    // cache, metering, budgets) are overridden per request.
    RuntimeOptions runtime;
    // Disjunct chains each session's operator-DAG execution may overlap
    // per round (1 = sequential disjuncts).
    std::size_t disjunct_concurrency = 1;
    // Configuration of the daemon-owned SharedCacheStore (TTLs including
    // the negative split, tuple budget, shards).
    SharedCacheStore::Options cache;
    // Plan from observed stats (AdaptiveCostModel over the shared
    // StatsCatalog) instead of the static heuristics.
    bool adaptive_cost_model = false;
    // With the adaptive model, feed observed result fanouts back into the
    // cardinality estimates instead of the 1000-tuple fallback
    // (SessionEnv::fanout_feedback). `--no-fanout-feedback` turns it off
    // for A/B runs against the pre-feedback pricing.
    bool fanout_feedback = true;
    // Directory for cache.json/stats.json spill files; empty = snapshots
    // only on explicit request (op "snapshot" fails without a dir).
    std::string snapshot_dir;
    // The mutable database behind `backend`, when the backend is an
    // in-process DatabaseSource (ucqnd wires this). Not owned. Required
    // for `delta` ops — they update this instance and then maintain the
    // standing queries against it; null means delta ops are refused.
    Database* database = nullptr;
  };

  // Does not take ownership of `catalog` or `backend`; both must outlive
  // the daemon and `backend->Fetch` must be thread-safe (DatabaseSource
  // is; remote transports must be too).
  QueryDaemon(const Catalog* catalog, Source* backend, Options options);

  // Thread-safe; blocks while queued by admission control. Handles every
  // protocol op: queries run sessions, admin ops answer from the shared
  // state.
  ServiceResponse Submit(const ServiceRequest& request);

  // Parses `line` and Submits it; protocol errors become error
  // responses, so a transport can always just write the returned line.
  std::string SubmitLine(const std::string& line);

  // Restores cache.json/stats.json from options.snapshot_dir (missing
  // files are fine — a first boot). Call before serving.
  bool LoadSnapshots(SnapshotLoadReport* report, std::string* error);
  // Spills the shared cache + stats catalog to options.snapshot_dir.
  bool SaveSnapshots(std::string* error);

  // Graceful shutdown: refuse new work, let in-flight sessions finish,
  // then spill snapshots (when a snapshot_dir is configured). Returns
  // once the daemon is idle and spilled.
  void Drain();

  // {"admission": {...}, "tenants": {...}, "cache": {...},
  //  "stats_relations": N, "operator": {...}, "standing": N,
  //  "queries_served": N}
  std::string StatusJson() const;

  // Cumulative executor-side operator-DAG counters across every session
  // served (only the disjuncts/morsels/anti-join fields are populated).
  RuntimeStats operator_totals() const;

  SharedCacheStore* shared_cache() { return &store_; }
  StatsCatalog* stats() { return &stats_; }
  std::mutex* stats_mu() { return &stats_mu_; }
  TenantRegistry* tenants() { return &tenants_; }
  AdmissionController* admission() { return &admission_; }
  const Options& options() const { return options_; }
  std::uint64_t queries_served() const;
  // Registered standing queries (including parked ones).
  std::size_t standing_count() const;

 private:
  // Tenant quota first (cheap, per-tenant), then the global admission
  // gate — a tenant over its own cap never occupies a queue slot that a
  // within-quota tenant could use. False, with the refusal in `response`,
  // when either refuses; otherwise the caller must Release(tenant).
  bool Admit(const std::string& tenant, ServiceResponse* response);
  void Release(const std::string& tenant);
  ServiceResponse RunAdminOp(const ServiceRequest& request);
  // The `delta` op: updates the attached database, scopes cache
  // invalidation to the changed tuples, and maintains every standing
  // query. Takes backend_mu_ exclusively — no query session runs while
  // the database moves.
  ServiceResponse RunDeltaOp(const ServiceRequest& request);
  // Registers (or replaces) request.query under (tenant, id) after a
  // successful session run. Caller holds backend_mu_ (shared).
  void RegisterStanding(const ServiceRequest& request,
                        ServiceResponse* response);
  // Fresh cache-backed maintenance stack (same shared store the sessions
  // use, metering on, no budgets).
  RuntimeOptions MaintenanceRuntime();

  Options options_;
  const Catalog* catalog_;
  Source* backend_;
  SharedCacheStore store_;
  StatsCatalog stats_;
  mutable std::mutex stats_mu_;
  // Guarded by stats_mu_, like the catalog it sits next to.
  RuntimeStats operator_totals_;
  TenantRegistry tenants_;
  AdmissionController admission_;
  mutable std::mutex served_mu_;
  std::uint64_t queries_served_ = 0;
  // Query sessions read the database through backend_ with no locking of
  // their own, so delta ops (which mutate it) take this exclusively and
  // sessions take it shared. Acquired before standing_mu_.
  mutable std::shared_mutex backend_mu_;

  // Keyed "tenant/id". Guarded by standing_mu_.
  std::map<std::string, std::unique_ptr<StandingQuery>> standing_;
  mutable std::mutex standing_mu_;
};

}  // namespace ucqn

#endif  // UCQN_SERVER_DAEMON_H_
