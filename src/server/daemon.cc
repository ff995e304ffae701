#include "server/daemon.h"

#include <sstream>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "server/snapshot.h"
#include "util/json.h"

namespace ucqn {

QueryDaemon::QueryDaemon(const Catalog* catalog, Source* backend,
                         Options options)
    : options_(std::move(options)),
      catalog_(catalog),
      backend_(backend),
      store_(options_.cache),
      tenants_(options_.default_quota),
      admission_(options_.admission) {}

ServiceResponse QueryDaemon::Submit(const ServiceRequest& request) {
  if (request.op == ServiceRequest::Op::kDelta) return RunDeltaOp(request);
  if (request.op != ServiceRequest::Op::kQuery) return RunAdminOp(request);

  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = request.include_answers;

  if (!Admit(request.tenant, &response)) return response;

  SessionEnv env;
  env.catalog = catalog_;
  env.backend = backend_;
  env.shared_cache = &store_;
  env.stats = &stats_;
  env.stats_mu = &stats_mu_;
  env.runtime = options_.runtime;
  env.disjunct_concurrency = options_.disjunct_concurrency;
  env.operator_totals = &operator_totals_;
  env.adaptive_cost_model = options_.adaptive_cost_model;
  env.fanout_feedback = options_.fanout_feedback;
  {
    // Sessions read the database lock-free through backend_; a delta op
    // holds this exclusively while it moves the data.
    std::shared_lock<std::shared_mutex> backend_lock(backend_mu_);
    response = RunQuerySession(env, request, tenants_.QuotaFor(request.tenant));
    if (request.standing &&
        response.status == ServiceResponse::Status::kOk) {
      RegisterStanding(request, &response);
    }
  }

  Release(request.tenant);
  {
    std::lock_guard<std::mutex> lock(served_mu_);
    ++queries_served_;
  }
  return response;
}

bool QueryDaemon::Admit(const std::string& tenant, ServiceResponse* response) {
  if (!tenants_.TryEnter(tenant)) {
    response->status = ServiceResponse::Status::kQuotaRefused;
    response->error = "tenant over max_concurrent quota";
    return false;
  }
  const AdmissionController::Outcome outcome = admission_.Enter();
  if (outcome == AdmissionController::Outcome::kAdmitted) return true;
  tenants_.Leave(tenant);
  const bool shed = outcome == AdmissionController::Outcome::kShed;
  response->status = shed ? ServiceResponse::Status::kShed
                          : ServiceResponse::Status::kDraining;
  response->error = shed ? "admission queue full" : "daemon is draining";
  return false;
}

void QueryDaemon::Release(const std::string& tenant) {
  admission_.Leave();
  tenants_.Leave(tenant);
}

std::string QueryDaemon::SubmitLine(const std::string& line) {
  std::string error;
  std::optional<ServiceRequest> request = ParseServiceRequest(line, &error);
  if (!request) {
    ServiceResponse response;
    response.status = ServiceResponse::Status::kError;
    response.error = "bad request: " + error;
    return response.ToJsonLine();
  }
  return Submit(*request).ToJsonLine();
}

ServiceResponse QueryDaemon::RunAdminOp(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = false;
  switch (request.op) {
    case ServiceRequest::Op::kStats:
      response.payload_json = StatusJson();
      break;
    case ServiceRequest::Op::kInvalidate: {
      const std::size_t before = store_.size();
      if (request.relation.empty()) {
        store_.InvalidateAll();
      } else {
        store_.InvalidateRelation(request.relation);
      }
      // An invalidation says "this source changed" — the observed
      // latencies and fanouts are as stale as the cached tuples, so the
      // stats catalog forgets the relation too and the adaptive model
      // re-prices it from defaults instead of planning against
      // pre-update statistics.
      std::size_t stats_dropped = 0;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (request.relation.empty()) {
          stats_dropped = stats_.size();
          stats_ = StatsCatalog{};
        } else {
          stats_dropped = stats_.InvalidateRelation(request.relation);
        }
      }
      std::ostringstream payload;
      payload << "{\"dropped\": " << (before - store_.size())
              << ", \"stats_dropped\": " << stats_dropped << "}";
      response.payload_json = payload.str();
      break;
    }
    case ServiceRequest::Op::kSnapshot: {
      std::string error;
      if (!SaveSnapshots(&error)) {
        response.status = ServiceResponse::Status::kError;
        response.error = error;
      } else {
        response.payload_json =
            "{\"snapshot_dir\": " + JsonQuote(options_.snapshot_dir) + "}";
      }
      break;
    }
    case ServiceRequest::Op::kAnswers: {
      const std::string key = request.tenant + "/" + request.id;
      std::lock_guard<std::mutex> lock(standing_mu_);
      auto it = standing_.find(key);
      if (it == standing_.end()) {
        response.status = ServiceResponse::Status::kError;
        response.error = "no standing query \"" + key + "\"";
        break;
      }
      AnswerBracket answers = it->second->Answers();
      if (!answers.ok) {
        response.status = ServiceResponse::Status::kError;
        response.error = std::move(answers.error);
      } else {
        response.include_answers = request.include_answers;
        response.under = std::move(answers.under);
        response.over = std::move(answers.over);
        response.complete = answers.complete;
      }
      break;
    }
    case ServiceRequest::Op::kQuery:
    case ServiceRequest::Op::kDelta:
      break;  // unreachable: Submit routes these before this switch
  }
  return response;
}

RuntimeOptions QueryDaemon::MaintenanceRuntime() {
  RuntimeOptions runtime = options_.runtime;
  runtime.shared_cache = &store_;
  runtime.metering = true;
  // Standing maintenance is daemon housekeeping, not a tenant request:
  // budgets would leave a chain half-maintained.
  runtime.budget = CallBudget{};
  return runtime;
}

void QueryDaemon::RegisterStanding(const ServiceRequest& request,
                                   ServiceResponse* response) {
  if (request.id.empty()) {
    response->status = ServiceResponse::Status::kError;
    response->error = "a standing query needs an \"id\" to register under";
    return;
  }
  // The session just parsed and schema-checked the same text, so this is
  // the query it ran; the shared cache is hot with the session's calls,
  // so the build mostly replays them without touching the backend.
  std::string error;
  const UnionQuery query = *ParseUnionQuery(request.query, &error);
  SourceStack stack(backend_, MaintenanceRuntime());
  std::unique_ptr<StandingQuery> standing =
      StandingQuery::Build(query, *catalog_, stack.source(), &error);
  if (standing == nullptr) {
    response->status = ServiceResponse::Status::kError;
    response->error = "standing registration failed: " + error;
    return;
  }
  const std::string key = request.tenant + "/" + request.id;
  std::lock_guard<std::mutex> lock(standing_mu_);
  standing_[key] = std::move(standing);
}

ServiceResponse QueryDaemon::RunDeltaOp(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = false;

  if (options_.database == nullptr) {
    response.status = ServiceResponse::Status::kError;
    response.error =
        "no mutable database attached (delta feeds need an in-process "
        "backend)";
    return response;
  }
  const RelationSchema* schema = catalog_->Find(request.relation);
  if (schema == nullptr) {
    response.status = ServiceResponse::Status::kError;
    response.error = "unknown relation \"" + request.relation + "\"";
    return response;
  }
  for (const std::vector<Tuple>* batch :
       {&request.insert_tuples, &request.delete_tuples}) {
    for (const Tuple& tuple : *batch) {
      if (tuple.size() != schema->arity()) {
        response.status = ServiceResponse::Status::kError;
        response.error = "delta arity mismatch for " + request.relation +
                         ": got " + std::to_string(tuple.size()) +
                         ", declared " + std::to_string(schema->arity());
        return response;
      }
    }
  }

  // A delta is a write-side request: it pays the same tenant quota and
  // admission toll as a query, so update feeds cannot starve readers past
  // what the admission policy allows.
  if (!Admit(request.tenant, &response)) return response;

  {
    std::unique_lock<std::shared_mutex> backend_lock(backend_mu_);
    RelationDelta delta;
    delta.relation = request.relation;
    delta.inserts = request.insert_tuples;
    delta.deletes = request.delete_tuples;
    std::string error;
    std::optional<AppliedDelta> applied =
        ApplyDelta(options_.database, delta, &error);
    if (!applied.has_value()) {
      response.status = ServiceResponse::Status::kError;
      response.error = error;
    } else {
      // Scoped invalidation: only entries a changed tuple can match are
      // dropped. Surviving entries are still exact — their keyed calls
      // cannot have gained or lost any of the changed tuples.
      const std::size_t cache_dropped =
          store_.InvalidateDelta(request.relation, applied->ChangedTuples());

      std::uint64_t physical_calls = 0;
      std::size_t standing_updated = 0;
      if (!applied->empty()) {
        const std::vector<AppliedDelta> batch{*applied};
        std::lock_guard<std::mutex> lock(standing_mu_);
        for (auto& [key, standing] : standing_) {
          if (standing->relations().count(request.relation) == 0) continue;
          SourceStack stack(backend_, MaintenanceRuntime());
          std::string maintain_error;
          if (standing->ApplyDeltas(batch, stack.source(), &maintain_error)) {
            ++standing_updated;
          }
          physical_calls += stack.stats().source_calls;
        }
      }

      std::ostringstream payload;
      payload << "{\"inserted\": " << applied->inserted.size()
              << ", \"deleted\": " << applied->deleted.size()
              << ", \"cache_dropped\": " << cache_dropped
              << ", \"standing_updated\": " << standing_updated
              << ", \"physical_calls\": " << physical_calls << "}";
      response.payload_json = payload.str();
    }
  }

  Release(request.tenant);
  return response;
}

std::size_t QueryDaemon::standing_count() const {
  std::lock_guard<std::mutex> lock(standing_mu_);
  return standing_.size();
}

bool QueryDaemon::LoadSnapshots(SnapshotLoadReport* report,
                                std::string* error) {
  if (options_.snapshot_dir.empty()) {
    if (report != nullptr) *report = {};
    return true;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  return LoadSnapshotFiles(options_.snapshot_dir, &store_, &stats_, report,
                           error);
}

bool QueryDaemon::SaveSnapshots(std::string* error) {
  if (options_.snapshot_dir.empty()) {
    if (error != nullptr) *error = "no --snapshot-dir configured";
    return false;
  }
  // Copy the catalog under its lock so a concurrent session's Observe
  // never races the serializer; the cache store locks per shard itself.
  StatsCatalog stats_copy;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_copy = stats_;
  }
  return SaveSnapshotFiles(options_.snapshot_dir, store_, stats_copy, error);
}

void QueryDaemon::Drain() {
  admission_.BeginDrain();
  admission_.WaitIdle();
  if (!options_.snapshot_dir.empty()) {
    std::string error;
    SaveSnapshots(&error);  // best effort: drain must complete regardless
  }
}

std::uint64_t QueryDaemon::queries_served() const {
  std::lock_guard<std::mutex> lock(served_mu_);
  return queries_served_;
}

RuntimeStats QueryDaemon::operator_totals() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return operator_totals_;
}

std::string QueryDaemon::StatusJson() const {
  std::size_t stats_relations = 0;
  RuntimeStats op;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_relations = stats_.size();
    op = operator_totals_;
  }
  std::ostringstream out;
  out << "{\"admission\": " << admission_.ToJson()
      << ", \"tenants\": " << tenants_.ToJson()
      << ", \"cache\": " << store_.ToJson()
      << ", \"stats_relations\": " << stats_relations
      << ", \"operator\": {\"disjuncts\": " << op.disjuncts_executed
      << ", \"morsels\": " << op.morsels
      << ", \"antijoin_build\": " << op.antijoin_build_tuples << "}"
      << ", \"standing\": " << standing_count()
      << ", \"queries_served\": " << queries_served() << "}";
  return out.str();
}

}  // namespace ucqn
