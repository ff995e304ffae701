#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "cost/estimates.h"
#include "eval/answer_star.h"
#include "eval/planner.h"
#include "feasibility/compile.h"
#include "feasibility/plan_star.h"
#include "server/session.h"

namespace ucqn::e2e {

// One recorded span of a request: `parent` indexes the request's span
// list (-1 for the root).
struct SpanEvent {
  Span span = Span::kRequest;
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct RequestTrace {
  std::string id;
  int client = 0;
  std::uint64_t duration_ns = 0;
  std::vector<SpanEvent> spans;
};

// Per-client-thread span recorder. Spans stay in memory: self times are
// summed per span as requests end, and only the slowest requests keep
// their span lists, for the Chrome trace written after the run.
class Tracer {
 public:
  Tracer(int client, std::size_t keep_slowest)
      : client_(client), keep_slowest_(keep_slowest) {}

  // The tracer of the calling thread while a Mirror is live, else null.
  static Tracer* Current();

  void BeginRequest(std::string id, Span root);
  void EndRequest();
  void set_request_id(std::string id) { current_.id = std::move(id); }
  bool in_request() const { return !open_.empty(); }
  void Open(Span span);
  void Close();

  LayerCounts& counts() { return counts_; }
  const LayerCounts& counts() const { return counts_; }
  const std::array<std::uint64_t, kSpanCount>& self_ns() const {
    return self_ns_;
  }
  std::uint64_t request_ns() const { return request_ns_; }
  const std::vector<RequestTrace>& slowest() const { return slowest_; }

 private:
  struct OpenSpan {
    int event = 0;
    std::uint64_t child_ns = 0;
  };

  int client_;
  std::size_t keep_slowest_;
  RequestTrace current_;
  std::vector<OpenSpan> open_;
  std::array<std::uint64_t, kSpanCount> self_ns_{};
  std::uint64_t request_ns_ = 0;
  LayerCounts counts_;
  std::vector<RequestTrace> slowest_;  // min-heap on duration
};

// Times its scope into the calling thread's tracer, if a request is open.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span span);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
};

namespace {

// Generation of the live Mirror (0 = none). A thread's tracer pointer is
// valid only while its generation matches, so a pointer left behind by a
// finished Mirror is never dereferenced.
std::atomic<std::uint64_t> live_generation{0};
std::atomic<std::uint64_t> next_generation{1};

struct ThreadSlot {
  std::uint64_t generation = 0;
  Tracer* tracer = nullptr;
};
thread_local ThreadSlot thread_slot;

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

bool SlowerFirst(const RequestTrace& a, const RequestTrace& b) {
  return a.duration_ns > b.duration_ns;
}

// session.cc's MinCap: the smaller of two caps where 0 means "uncapped".
std::uint64_t MinCap(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

// answer_star.cc's ReorderPlan.
UnionQuery ReorderPlan(const UnionQuery& plan, const Catalog& catalog,
                       const CostModel& model) {
  UnionQuery out;
  for (const ConjunctiveQuery& disjunct : plan.disjuncts()) {
    std::optional<ConjunctiveQuery> ordered =
        OptimizeLiteralOrder(disjunct, catalog, model);
    out.AddDisjunct(ordered.has_value() ? std::move(*ordered) : disjunct);
  }
  return out;
}

// AnswerStar (eval/answer_star.cc) with its PLAN*, reordering and both
// plan executions timed as separate spans.
AnswerStarReport TimedAnswerStar(const UnionQuery& q, const Catalog& catalog,
                                 Source* source,
                                 const ExecutionOptions& options,
                                 LayerCounts* counts) {
  AnswerStarReport report;
  {
    ScopedSpan span(Span::kFeasibilityPlanStar);
    report.plans = PlanStar(q, catalog);
  }
  UnionQuery under_plan = report.plans.under;
  UnionQuery over_plan = report.plans.over;
  if (options.cost_model != nullptr) {
    ScopedSpan span(Span::kEvalPlanner);
    under_plan = ReorderPlan(under_plan, catalog, *options.cost_model);
    over_plan = ReorderPlan(over_plan, catalog, *options.cost_model);
  }

  // AnswerStar builds a second stack only for an enabled runtime or a
  // stats sink; a session passes neither (its options carry the clock and
  // pipeline depth 1), so both plans run on `source` directly. The
  // mirror cross-check would catch a session that did otherwise.
  ExecutionResult under;
  ExecutionResult over;
  {
    ScopedSpan span(Span::kEvalExecute);
    under = Execute(under_plan, catalog, source, options);
  }
  if (under.ok) {
    ScopedSpan span(Span::kEvalExecute);
    over = Execute(over_plan, catalog, source, options);
  }
  {
    ScopedSpan span(Span::kEvalPlanner);
    under_plan = UnionQuery{};
    over_plan = UnionQuery{};
  }
  report.runtime.disjuncts_executed =
      under.runtime.disjuncts_executed + over.runtime.disjuncts_executed;
  report.runtime.morsels = under.runtime.morsels + over.runtime.morsels;
  report.runtime.antijoin_build_tuples = under.runtime.antijoin_build_tuples +
                                         over.runtime.antijoin_build_tuples;
  counts->disjuncts += report.runtime.disjuncts_executed;
  counts->morsels += report.runtime.morsels;
  counts->antijoin_build += report.runtime.antijoin_build_tuples;
  if (!under.ok || !over.ok) {
    report.error = !under.ok ? "underestimate plan failed: " + under.error
                             : "overestimate plan failed: " + over.error;
    return report;
  }
  report.ok = true;
  report.under = std::move(under.tuples);
  report.over = std::move(over.tuples);
  std::set_difference(report.over.begin(), report.over.end(),
                      report.under.begin(), report.under.end(),
                      std::inserter(report.delta, report.delta.begin()));
  report.complete = report.delta.empty();
  if (!report.complete) ++counts->answers_with_delta;
  return report;
}

// RunQuerySession (server/session.cc), span by span.
ServiceResponse TimedSession(const SessionEnv& env,
                             const ServiceRequest& request,
                             const TenantQuota& quota, LayerCounts* counts) {
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = request.include_answers;

  std::string error;
  std::optional<UnionQuery> query;
  {
    ScopedSpan span(Span::kAstParse);
    query = ParseUnionQuery(request.query, &error);
  }
  if (!query) {
    response.status = ServiceResponse::Status::kError;
    response.error = "query error: " + error;
    return response;
  }
  bool covered = false;
  {
    ScopedSpan span(Span::kSchemaCovers);
    covered = env.catalog->CoversQuery(*query, &error);
  }
  if (!covered) {
    response.status = ServiceResponse::Status::kError;
    response.error = "schema mismatch: " + error;
    return response;
  }
  std::optional<CompileResult> compiled;
  {
    ScopedSpan span(Span::kFeasibilityCompile);
    compiled.emplace(Compile(*query, *env.catalog, {}));
  }
  ++counts->paths[static_cast<std::size_t>(compiled->path)];
  counts->containment_nodes += compiled->containment_stats.nodes_expanded;

  RuntimeOptions runtime = env.runtime;
  runtime.shared_cache = env.shared_cache;
  runtime.metering = true;
  runtime.budget.max_calls =
      MinCap(request.max_calls, quota.max_calls_per_query);
  runtime.budget.deadline_micros =
      MinCap(runtime.budget.deadline_micros, quota.deadline_micros);

  // The planning state: a point-in-time copy of the stats catalog and
  // the adaptive model reading it.
  std::optional<StatsCatalog> stats_snapshot;
  std::optional<AdaptiveCostModel> adaptive_model;
  {
    ScopedSpan span(Span::kCostSnapshot);
    stats_snapshot.emplace();
    if (env.adaptive_cost_model && env.stats != nullptr) {
      std::lock_guard<std::mutex> lock(*env.stats_mu);
      *stats_snapshot = *env.stats;
    }
    AdaptiveCostOptions adaptive_options;
    adaptive_options.shared_cache = env.shared_cache;
    adaptive_options.use_observed_fanouts = env.fanout_feedback;
    CardinalityEstimates estimates =
        CardinalityEstimates::FromCatalog(*env.catalog);
    if (env.adaptive_cost_model && env.fanout_feedback) {
      estimates.ApplyObservedFanouts(*stats_snapshot);
    }
    adaptive_model.emplace(&*stats_snapshot, std::move(estimates),
                           adaptive_options);
  }

  ExecutionOptions exec;
  if (env.adaptive_cost_model) exec.cost_model = &*adaptive_model;
  exec.runtime.pipeline_depth = env.runtime.pipeline_depth;
  exec.disjunct_concurrency = env.disjunct_concurrency;

  std::optional<SourceStack> stack;
  {
    ScopedSpan span(Span::kRuntimeStackBuild);
    stack.emplace(env.backend, runtime);
  }
  exec.runtime.clock = stack->clock();
  TimedSource view(stack->source(), Span::kRuntimeStack);
  AnswerStarReport report = TimedAnswerStar(
      compiled->analyzed_query, *env.catalog, &view, exec, counts);

  const RuntimeStats stats = stack->stats();
  response.physical_calls =
      stack->meter() != nullptr ? stack->meter()->totals().calls : 0;
  response.cache_hits = stats.cache_hits;
  response.cache_misses = stats.cache_misses;
  counts->cache_hits += stats.cache_hits;
  counts->cache_misses += stats.cache_misses;
  counts->cache_flight_waits += stats.cache_flight_waits;
  counts->cache_stale_drops += stats.cache_stale_drops;

  {
    ScopedSpan span(Span::kCostObserve);
    if (env.stats != nullptr && stack->meter() != nullptr) {
      std::lock_guard<std::mutex> lock(*env.stats_mu);
      env.stats->Observe(*stack->meter());
    }
    if (env.operator_totals != nullptr && env.stats_mu != nullptr) {
      std::lock_guard<std::mutex> lock(*env.stats_mu);
      env.operator_totals->disjuncts_executed +=
          report.runtime.disjuncts_executed;
      env.operator_totals->morsels += report.runtime.morsels;
      env.operator_totals->antijoin_build_tuples +=
          report.runtime.antijoin_build_tuples;
    }
  }

  if (!report.ok) {
    response.status = ServiceResponse::Status::kError;
    response.error = report.error;
  } else {
    response.status = ServiceResponse::Status::kOk;
    response.under = std::move(report.under);
    response.over = std::move(report.over);
    response.complete = report.complete;
  }

  // Tearing down is part of each layer's cost: what a layer built is
  // destroyed inside that layer's span, not in the request's own time.
  {
    ScopedSpan span(Span::kRuntimeStackBuild);
    stack.reset();
  }
  {
    ScopedSpan span(Span::kCostSnapshot);
    adaptive_model.reset();
    stats_snapshot.reset();
  }
  {
    ScopedSpan span(Span::kFeasibilityPlanStar);
    report = AnswerStarReport{};
  }
  {
    ScopedSpan span(Span::kFeasibilityCompile);
    compiled.reset();
  }
  {
    ScopedSpan span(Span::kAstParse);
    query.reset();
  }
  return response;
}

}  // namespace

const char* SpanName(Span span) {
  static constexpr std::array<const char*, kSpanCount> kNames = {
      "request",         "protocol.decode",     "daemon.admission",
      "ast.parse",       "schema.covers",       "feasibility.compile",
      "cost.snapshot",   "runtime.stack_build", "feasibility.plan_star",
      "eval.planner",    "eval.execute",        "runtime.stack",
      "backend",         "cost.observe",        "protocol.encode",
      "daemon.delta_op"};
  return kNames[static_cast<std::size_t>(span)];
}

void LayerCounts::Add(const LayerCounts& other) {
  queries += other.queries;
  writes += other.writes;
  for (std::size_t p = 0; p < paths.size(); ++p) paths[p] += other.paths[p];
  containment_nodes += other.containment_nodes;
  answers_with_delta += other.answers_with_delta;
  logical_calls += other.logical_calls;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_flight_waits += other.cache_flight_waits;
  cache_stale_drops += other.cache_stale_drops;
  backend_calls += other.backend_calls;
  backend_batches += other.backend_batches;
  backend_tuples += other.backend_tuples;
  disjuncts += other.disjuncts;
  morsels += other.morsels;
  antijoin_build += other.antijoin_build;
}

Tracer* Tracer::Current() {
  const ThreadSlot& slot = thread_slot;
  return slot.generation != 0 &&
                 slot.generation ==
                     live_generation.load(std::memory_order_relaxed)
             ? slot.tracer
             : nullptr;
}

void Tracer::BeginRequest(std::string id, Span root) {
  current_.id = std::move(id);
  current_.client = client_;
  current_.spans.clear();
  open_.clear();
  Open(root);
}

void Tracer::EndRequest() {
  Close();
  if (slowest_.size() < keep_slowest_) {
    slowest_.push_back(std::move(current_));
    std::push_heap(slowest_.begin(), slowest_.end(), SlowerFirst);
  } else if (!slowest_.empty() &&
             current_.duration_ns > slowest_.front().duration_ns) {
    // The evicted request's span buffer becomes the next request's.
    std::pop_heap(slowest_.begin(), slowest_.end(), SlowerFirst);
    std::swap(slowest_.back(), current_);
    std::push_heap(slowest_.begin(), slowest_.end(), SlowerFirst);
  }
}

void Tracer::Open(Span span) {
  SpanEvent event;
  event.span = span;
  event.parent = open_.empty() ? -1 : open_.back().event;
  current_.spans.push_back(event);
  open_.push_back(OpenSpan{static_cast<int>(current_.spans.size()) - 1, 0});
  // Read the clock last, so the bookkeeping above is charged to the
  // parent rather than to this span.
  current_.spans.back().start_ns = NowNs();
}

void Tracer::Close() {
  const std::uint64_t now = NowNs();
  const OpenSpan closing = open_.back();
  open_.pop_back();
  SpanEvent& event = current_.spans[static_cast<std::size_t>(closing.event)];
  event.end_ns = now;
  const std::uint64_t duration = now - event.start_ns;
  self_ns_[static_cast<std::size_t>(event.span)] +=
      duration - std::min(duration, closing.child_ns);
  if (open_.empty()) {
    current_.duration_ns = duration;
    request_ns_ += duration;
  } else {
    open_.back().child_ns += duration;
  }
}

ScopedSpan::ScopedSpan(Span span) {
  Tracer* tracer = Tracer::Current();
  if (tracer != nullptr && tracer->in_request()) {
    tracer_ = tracer;
    tracer_->Open(span);
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->Close();
}

void TimedSource::Count(std::size_t calls, std::size_t tuples) {
  Tracer* tracer = Tracer::Current();
  if (tracer == nullptr || !tracer->in_request()) return;
  LayerCounts& counts = tracer->counts();
  if (span_ == Span::kRuntimeStack) {
    counts.logical_calls += calls;
  } else {
    counts.backend_calls += calls;
    ++counts.backend_batches;
    counts.backend_tuples += tuples;
  }
}

FetchResult TimedSource::Fetch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  FetchResult result;
  {
    ScopedSpan span(span_);
    result = inner_->Fetch(relation, pattern, inputs);
  }
  Count(1, result.tuples.size());
  return result;
}

std::vector<FetchResult> TimedSource::FetchBatch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::vector<std::optional<Term>>>& inputs) {
  std::vector<FetchResult> results;
  {
    ScopedSpan span(span_);
    results = inner_->FetchBatch(relation, pattern, inputs);
  }
  std::size_t tuples = 0;
  for (const FetchResult& result : results) tuples += result.tuples.size();
  Count(inputs.size(), tuples);
  return results;
}

Mirror::Mirror(Deployment* deployment, std::size_t keep_slowest)
    : deployment_(deployment),
      keep_slowest_(keep_slowest),
      generation_(next_generation.fetch_add(1)) {
  live_generation.store(generation_);
}

Mirror::~Mirror() { live_generation.store(0); }

Tracer* Mirror::ThreadTracer() {
  ThreadSlot& slot = thread_slot;
  if (slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(tracers_mu_);
    tracers_.push_back(std::make_unique<Tracer>(
        static_cast<int>(tracers_.size()), keep_slowest_));
    slot.generation = generation_;
    slot.tracer = tracers_.back().get();
  }
  return slot.tracer;
}

std::string Mirror::SubmitQuery(const std::string& line) {
  Tracer* tracer = ThreadTracer();
  tracer->BeginRequest("", Span::kRequest);
  ++tracer->counts().queries;
  std::string error;
  std::optional<ServiceRequest> request;
  {
    ScopedSpan span(Span::kProtocolDecode);
    request = ParseServiceRequest(line, &error);
  }
  ServiceResponse response;
  if (!request.has_value()) {
    response.status = ServiceResponse::Status::kError;
    response.error = "bad request: " + error;
  } else {
    tracer->set_request_id(request->id);
    // Benchmark streams send plain queries only; anything else is served
    // by the daemon itself.
    response = request->op == ServiceRequest::Op::kQuery && !request->standing
                   ? Session(*request)
                   : deployment_->daemon().Submit(*request);
  }
  std::string out;
  {
    ScopedSpan span(Span::kProtocolEncode);
    out = response.ToJsonLine();
    response = ServiceResponse{};
  }
  {
    ScopedSpan span(Span::kProtocolDecode);
    request.reset();
  }
  tracer->EndRequest();
  return out;
}

std::string Mirror::SubmitWrite(const std::string& line) {
  Tracer* tracer = ThreadTracer();
  tracer->BeginRequest("write", Span::kDaemonDeltaOp);
  ++tracer->counts().writes;
  std::string out = deployment_->daemon().SubmitLine(line);
  tracer->EndRequest();
  return out;
}

// QueryDaemon::Submit's query branch. The daemon's backend lock is not
// taken: benchmark streams submit delta ops from the thread that runs
// the queries, so no session overlaps a write.
ServiceResponse Mirror::Session(const ServiceRequest& request) {
  QueryDaemon& daemon = deployment_->daemon();
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = request.include_answers;
  {
    ScopedSpan span(Span::kDaemonAdmission);
    if (!daemon.tenants()->TryEnter(request.tenant)) {
      response.status = ServiceResponse::Status::kQuotaRefused;
      response.error = "tenant over max_concurrent quota";
      return response;
    }
    switch (daemon.admission()->Enter()) {
      case AdmissionController::Outcome::kShed:
        daemon.tenants()->Leave(request.tenant);
        response.status = ServiceResponse::Status::kShed;
        response.error = "admission queue full";
        return response;
      case AdmissionController::Outcome::kDraining:
        daemon.tenants()->Leave(request.tenant);
        response.status = ServiceResponse::Status::kDraining;
        response.error = "daemon is draining";
        return response;
      case AdmissionController::Outcome::kAdmitted:
        break;
    }
  }

  const QueryDaemon::Options& options = daemon.options();
  SessionEnv env;
  env.catalog = &deployment_->spec().catalog;
  env.backend = deployment_->backend();
  env.shared_cache = daemon.shared_cache();
  env.stats = daemon.stats();
  env.stats_mu = daemon.stats_mu();
  env.runtime = options.runtime;
  env.disjunct_concurrency = options.disjunct_concurrency;
  env.operator_totals = &operator_totals_;
  env.adaptive_cost_model = options.adaptive_cost_model;
  env.fanout_feedback = options.fanout_feedback;
  TenantQuota quota;
  {
    ScopedSpan span(Span::kDaemonAdmission);
    quota = daemon.tenants()->QuotaFor(request.tenant);
  }
  response = TimedSession(env, request, quota, &Tracer::Current()->counts());
  {
    ScopedSpan span(Span::kDaemonAdmission);
    daemon.admission()->Leave();
    daemon.tenants()->Leave(request.tenant);
  }
  return response;
}

LayerCounts Mirror::counts() const {
  std::lock_guard<std::mutex> lock(tracers_mu_);
  LayerCounts total;
  for (const auto& tracer : tracers_) total.Add(tracer->counts());
  return total;
}

std::array<std::uint64_t, kSpanCount> Mirror::self_ns() const {
  std::lock_guard<std::mutex> lock(tracers_mu_);
  std::array<std::uint64_t, kSpanCount> total{};
  for (const auto& tracer : tracers_) {
    for (std::size_t s = 0; s < kSpanCount; ++s) {
      total[s] += tracer->self_ns()[s];
    }
  }
  return total;
}

std::uint64_t Mirror::request_ns() const {
  std::lock_guard<std::mutex> lock(tracers_mu_);
  std::uint64_t total = 0;
  for (const auto& tracer : tracers_) total += tracer->request_ns();
  return total;
}

JsonValue Mirror::ChromeTrace() const {
  std::vector<const RequestTrace*> requests;
  {
    std::lock_guard<std::mutex> lock(tracers_mu_);
    for (const auto& tracer : tracers_) {
      for (const RequestTrace& request : tracer->slowest()) {
        requests.push_back(&request);
      }
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const RequestTrace* a, const RequestTrace* b) {
              return SlowerFirst(*a, *b);
            });
  if (requests.size() > keep_slowest_) requests.resize(keep_slowest_);

  JsonValue events = JsonValue::Array();
  for (const RequestTrace* request : requests) {
    for (std::size_t i = 0; i < request->spans.size(); ++i) {
      const SpanEvent& span = request->spans[i];
      JsonValue args = JsonValue::Object();
      args.Set("request", JsonValue::String(request->id));
      args.Set("span", JsonValue::Number(static_cast<double>(i)));
      args.Set("parent", JsonValue::Number(span.parent));
      JsonValue event = JsonValue::Object();
      event.Set("name", JsonValue::String(SpanName(span.span)));
      event.Set("cat", JsonValue::String("ucqn"));
      event.Set("ph", JsonValue::String("X"));
      event.Set("pid", JsonValue::Number(1));
      event.Set("tid", JsonValue::Number(request->client));
      event.Set("ts", JsonValue::Number(static_cast<double>(span.start_ns) /
                                        1000.0));
      event.Set("dur",
                JsonValue::Number(
                    static_cast<double>(span.end_ns - span.start_ns) / 1000.0));
      event.Set("args", std::move(args));
      events.Append(std::move(event));
    }
  }
  JsonValue trace = JsonValue::Object();
  trace.Set("traceEvents", std::move(events));
  trace.Set("displayTimeUnit", JsonValue::String("ns"));
  return trace;
}

}  // namespace ucqn::e2e
