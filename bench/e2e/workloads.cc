#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <utility>

#include "feasibility/compile.h"
#include "gen/random_query.h"
#include "util/json.h"

namespace ucqn::e2e {

namespace {

// A template whose containment check expands more nodes than this is
// dropped while drawing feasibility_mix: one Π₂ᴾ outlier would otherwise
// set the workload's p99 by itself and make runs with different seeds
// incomparable.
constexpr std::uint64_t kMaxContainmentNodes = 4096;

// bench_workload's spec (EXPERIMENTS.md E20): an adversarial chain where
// even links can be scanned or probed, 400 Zipf-ranked templates over 4
// tenants, 200 µs per simulated service call.
WorkloadGenOptions ZipfRepeatOptions(std::uint64_t seed) {
  WorkloadGenOptions options;
  options.seed = seed;
  options.chain_length = 6;
  options.enumerable_relations = 2;
  options.decoy_relations = 4;
  options.domain_size = 16;
  options.tuples_per_relation = 32;
  options.num_queries = 400;
  options.max_literals = 4;
  options.negation_prob = 0.25;
  options.constant_prob = 0.6;
  options.union_prob = 0.2;
  options.zipf_s = 1.1;
  options.latency_micros = 200;
  options.failure_probability = 0.0;
  options.slow_relations = 0;
  options.replay.zipf_s = 1.0;
  options.replay.tenants = 4;
  return options;
}

// Chain relations of 256 tuples over 256 constants, so a probe returns
// one tuple on average and a scan-entered walk keeps a frontier of about
// 256 rows through every join. The templates are drawn below.
WorkloadGenOptions WideFrontierOptions(std::uint64_t seed) {
  WorkloadGenOptions options;
  options.seed = seed;
  options.domain_size = 256;
  options.tuples_per_relation = 256;
  options.num_queries = 1;
  options.latency_micros = 200;
  options.slow_relations = 0;
  options.replay.zipf_s = 0.0;
  options.replay.tenants = 1;
  return options;
}

// "C3", "v0": a name with a numeric suffix.
std::string Indexed(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

// Scan-entered walks of 1–3 links, so every request carries a wide
// frontier through the joins and returns up to 256 answers. Templates
// cycle through every (scannable start, length) shape: a generator
// drawing shapes at random would leave some template sets with twice the
// long walks of others, and the workload's cost with them. Half the walks
// gain a `not E(v)` guard on a random variable.
std::vector<std::string> DrawWideTemplates(const WorkloadGenOptions& options,
                                           std::size_t count) {
  std::vector<std::pair<int, int>> shapes;  // (first link, length)
  for (int s = 0; s < options.chain_length; s += 2) {  // even links scan
    for (int len = 1; len <= 3 && s + len <= options.chain_length; ++len) {
      shapes.emplace_back(s, len);
    }
  }
  const auto var = [](int i) { return Term::Variable(Indexed('v', i)); };
  std::mt19937_64 rng(options.seed);
  std::vector<std::string> templates;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [s, len] = shapes[i % shapes.size()];
    std::vector<Literal> body;
    for (int j = 0; j < len; ++j) {
      body.push_back(Literal::Positive(
          Atom(Indexed('C', s + j), {var(j), var(j + 1)})));
    }
    if (rng() % 2 == 0) {
      const int guarded = 1 + static_cast<int>(rng() % static_cast<unsigned>(len));
      const int e = static_cast<int>(
          rng() % static_cast<unsigned>(options.enumerable_relations));
      body.push_back(Literal::Negative(
          Atom(Indexed('E', e), {var(guarded)})));
    }
    templates.push_back(
        UnionQuery({ConjunctiveQuery("Q", {var(len - 1), var(len)},
                                     std::move(body))})
            .ToString());
  }
  return templates;
}

// RandomUcq templates over the workload catalog (decoys included), kept
// so that every FEASIBLE decision path holds a fixed share of them.
std::vector<std::string> DrawFeasibilityTemplates(const Catalog& catalog,
                                                  std::uint64_t seed,
                                                  std::size_t count) {
  // Shares of plans-equal, null-in-overestimate and containment.
  constexpr std::array<double, 3> kShares = {0.3, 0.4, 0.3};
  std::array<std::size_t, 3> quota{};
  for (std::size_t p = 0; p < quota.size(); ++p) {
    quota[p] = static_cast<std::size_t>(
        std::ceil(kShares[p] * static_cast<double>(count)));
  }
  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
  RandomQueryOptions options;
  options.num_literals = 3;
  options.num_variables = 4;
  options.negation_prob = 0.3;
  options.constant_prob = 0.05;
  options.head_arity = 2;
  options.shape = QueryShape::kChain;

  std::vector<std::string> templates;
  std::set<std::string> seen;
  std::array<std::size_t, 3> taken{};
  for (std::size_t attempt = 0; templates.size() < count; ++attempt) {
    if (attempt > 1000 * count) break;  // unreachable with this catalog
    const int disjuncts = 2 + static_cast<int>(rng() % 2);
    const UnionQuery query = RandomUcq(&rng, catalog, options, disjuncts);
    std::string text = query.ToString();
    if (seen.count(text) > 0) continue;
    const CompileResult compiled = Compile(query, catalog);
    if (compiled.containment_stats.nodes_expanded > kMaxContainmentNodes) {
      continue;
    }
    const auto path = static_cast<std::size_t>(compiled.path);
    if (taken[path] >= quota[path]) continue;
    ++taken[path];
    seen.insert(text);
    templates.push_back(std::move(text));
  }
  return templates;
}

}  // namespace

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> workloads = [] {
    std::vector<WorkloadConfig> all;
    WorkloadConfig zipf;
    zipf.name = "zipf_repeat";
    zipf.data_seed = 20;
    zipf.warmup_requests = 10000;
    zipf.max_rate_per_second = 25000;
    zipf.cache_ttl_micros = 1000;
    all.push_back(zipf);

    WorkloadConfig zipf3 = zipf;
    zipf3.name = "zipf_repeat_3c";
    zipf3.clients = 3;
    // Two sessions at a time for three clients: the admission gate
    // queues, and the sessions contend on the stats lock, the cache
    // shards and the dictionary.
    zipf3.max_in_flight = 2;
    zipf3.max_queued = 4;
    zipf3.max_rate_per_second = 40000;
    all.push_back(zipf3);

    WorkloadConfig mix;
    mix.name = "feasibility_mix";
    mix.data_seed = 22;
    mix.warmup_requests = 2000;
    mix.max_rate_per_second = 10000;
    mix.cache_ttl_micros = 1000;
    all.push_back(mix);

    WorkloadConfig wide;
    wide.name = "wide_frontier";
    wide.data_seed = 21;
    wide.warmup_requests = 200;
    wide.max_rate_per_second = 2000;
    all.push_back(wide);

    WorkloadConfig updates = zipf;
    updates.name = "update_stream";
    updates.standing_queries = 16;
    all.push_back(updates);
    return all;
  }();
  return workloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : Workloads()) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

WorkloadInputs GenerateInputs(const WorkloadConfig& config,
                              std::uint64_t stream_seed, double seconds,
                              double scale) {
  const auto warmup = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(config.warmup_requests) * scale));
  const std::uint64_t stream =
      warmup + static_cast<std::uint64_t>(std::ceil(
                   static_cast<double>(config.max_rate_per_second) * seconds));

  WorkloadGenOptions options = config.name == "wide_frontier"
                                   ? WideFrontierOptions(config.data_seed)
                                   : ZipfRepeatOptions(config.data_seed);
  options.replay.requests = stream;
  options.replay.seed = stream_seed;
  if (config.name == "update_stream") options.update_rate = 0.02;
  if (config.name == "feasibility_mix") {
    options.num_queries = 1;  // replaced below
    options.replay.zipf_s = 0.0;
  }
  WorkloadSpec spec = GenerateWorkload(options);
  if (config.name == "feasibility_mix") {
    const auto count = static_cast<std::size_t>(
        std::max(30.0, std::ceil(5000.0 * scale)));
    spec.queries =
        DrawFeasibilityTemplates(spec.catalog, config.data_seed, count);
  } else if (config.name == "wide_frontier") {
    spec.queries = DrawWideTemplates(options, 64);
  }
  WorkloadInputs inputs;
  inputs.templates = spec.queries.size();
  inputs.text = SerializeWorkload(spec);
  return inputs;
}

std::unique_ptr<Deployment> Deployment::Create(const WorkloadConfig& config,
                                               const std::string& text,
                                               std::uint64_t warmup,
                                               const BackendWrapper& wrap,
                                               std::string* error) {
  std::unique_ptr<Deployment> d(new Deployment());
  std::optional<WorkloadSpec> spec = ParseWorkload(text, error);
  if (!spec.has_value()) return nullptr;
  d->spec_ = std::move(*spec);
  d->database_ = d->spec_.database;
  d->source_ =
      std::make_unique<DatabaseSource>(&d->database_, &d->spec_.catalog);
  d->faults_ = std::make_unique<FaultInjectingSource>(
      d->source_.get(), d->spec_.faults, &d->clock_);
  d->top_ = d->faults_.get();
  if (wrap) {
    d->wrapper_ = wrap(d->top_);
    d->top_ = d->wrapper_.get();
  }

  // The daemon as gen/workload_replay.cc configures it.
  QueryDaemon::Options options;
  options.runtime.clock = &d->clock_;
  options.runtime.retry = true;
  options.runtime.retry_policy.max_attempts = 3;
  options.cache.default_ttl_micros = config.cache_ttl_micros;
  options.cache.clock = &d->clock_;
  options.admission.max_in_flight = config.max_in_flight;
  options.admission.max_queued = config.max_queued;
  options.adaptive_cost_model = true;
  options.fanout_feedback = true;
  options.database = &d->database_;
  d->daemon_ =
      std::make_unique<QueryDaemon>(&d->spec_.catalog, d->top_, options);

  // The warm-up prefix is drawn from the data seed, so every run enters
  // its measured phase with the same cache and planner state: the
  // adaptive planner settles into different plans under different
  // arrival orders, and the run's seed should vary the traffic measured,
  // not the plans.
  const std::uint64_t stream_seed = d->spec_.replay.seed;
  if (warmup > 0) {
    d->spec_.replay.seed = config.data_seed;
    d->sequence_ = BuildRequestSequence(d->spec_, warmup);
    d->spec_.replay.seed = stream_seed;
  }
  if (d->spec_.replay.requests > warmup) {
    const std::vector<ReplayRequest> measured =
        BuildRequestSequence(d->spec_, d->spec_.replay.requests - warmup);
    d->sequence_.insert(d->sequence_.end(), measured.begin(), measured.end());
  }
  for (const std::string& query : d->spec_.queries) {
    d->quoted_queries_.push_back(JsonQuote(query));
  }

  // One batch per (request index, relation), deletes before inserts —
  // the grouping gen/workload_replay.cc uses.
  for (const WorkloadDeltaEvent& event : d->spec_.deltas) {
    std::vector<RelationDelta>& batch = d->delta_batches_[event.at_request];
    auto it = std::find_if(batch.begin(), batch.end(),
                           [&](const RelationDelta& candidate) {
                             return candidate.relation == event.relation;
                           });
    if (it == batch.end()) {
      batch.emplace_back();
      batch.back().relation = event.relation;
      it = batch.end() - 1;
    }
    (event.insert ? it->inserts : it->deletes).push_back(event.tuple);
  }
  const auto tuples_json = [](const std::vector<Tuple>& tuples) {
    JsonValue array = JsonValue::Array();
    for (const Tuple& tuple : tuples) {
      JsonValue row = JsonValue::Array();
      for (const Term& term : tuple) {
        row.Append(term.IsNull() ? JsonValue::Null()
                                 : JsonValue::String(term.name()));
      }
      array.Append(std::move(row));
    }
    return array;
  };
  for (const auto& [index, batch] : d->delta_batches_) {
    std::vector<std::string>& lines = d->delta_lines_[index];
    for (const RelationDelta& delta : batch) {
      JsonValue line = JsonValue::Object();
      line.Set("op", JsonValue::String("delta"));
      line.Set("id", JsonValue::String("delta@" + std::to_string(index)));
      line.Set("relation", JsonValue::String(delta.relation));
      line.Set("insert", tuples_json(delta.inserts));
      line.Set("delete", tuples_json(delta.deletes));
      lines.push_back(line.Dump());
    }
  }

  for (std::size_t i = 0;
       i < config.standing_queries && i < d->spec_.queries.size(); ++i) {
    const std::string id = "s" + std::to_string(i);
    const std::string response = d->daemon_->SubmitLine(
        "{\"op\": \"query\", \"id\": \"" + id +
        "\", \"tenant\": \"t0\", \"standing\": true, \"answers\": false, "
        "\"query\": " +
        d->quoted_queries_[i] + "}");
    std::optional<ServiceResponse> parsed =
        ParseServiceResponse(response, error);
    if (!parsed.has_value()) return nullptr;
    if (parsed->status != ServiceResponse::Status::kOk) {
      if (error != nullptr) {
        *error = "standing registration of " + id + ": " + parsed->error;
      }
      return nullptr;
    }
    d->standing_ids_.push_back(id);
  }
  return d;
}

std::string Deployment::QueryLine(std::uint64_t index) const {
  const ReplayRequest& request = sequence_[index];
  return "{\"op\": \"query\", \"id\": \"" + std::to_string(index) +
         "\", \"tenant\": \"t" + std::to_string(request.tenant) +
         "\", \"answers\": true, \"query\": " +
         quoted_queries_[request.query_index] + "}";
}

const std::vector<std::string>& Deployment::DeltaLines(
    std::uint64_t index) const {
  static const std::vector<std::string> kNone;
  const auto it = delta_lines_.find(index);
  return it == delta_lines_.end() ? kNone : it->second;
}

}  // namespace ucqn::e2e
