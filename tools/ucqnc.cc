// ucqnc — the UCQ¬ limited-access-pattern query compiler, as a command
// line tool. Reads a schema (relations + access patterns), a query
// (Datalog rules, one head), optionally integrity constraints and facts,
// and reports:
//
//   * executability / orderability / feasibility with the decision path,
//   * the adorned PLAN* under-/over-estimate plans,
//   * per-literal diagnostics for unanswerable parts,
//   * with --facts: the ANSWER* runtime report, and (on request) the
//     domain-enumeration-improved underestimate.
//
// Run `ucqnc --help` for the flag reference.
//
// The runtime flags configure the source-access stack (src/runtime/) that
// ANSWER* runs against: --cache deduplicates repeated source calls (LRU,
// unbounded unless --cache-capacity is given), --shared-cache upgrades the
// cache to a process-wide SharedCacheStore that persists across the
// queries of a --queries session (with --cache-ttl-ms expiry and a
// --cache-budget resident-byte bound), --retry N retries transient
// failures up to N attempts with backoff, --max-calls N caps the total
// calls per run, --parallelism N overlaps each literal's batched wave of
// source calls on N worker threads, --no-batch reverts the executor to
// the per-binding reference loop (--batch restores the default), and
// --metrics prints the per-relation call/tuple/latency table (text) or
// its JSON export.
//
// --queries FILE runs a multi-query session: the file holds one query per
// block, blocks separated by lines containing only `---`, executed in
// order against one shared runtime. With --shared-cache the later queries
// run warm — the paper's premise is that the physical calls are the cost,
// and overlapping queries re-derive the same accesses (see
// docs/RUNTIME.md and EXPERIMENTS.md E16). Metering is forced on in this
// mode so each query's observed stats feed the adaptive cost model of the
// queries after it.
//
// A --queries block starting with `!` is a directive instead of a query:
// `!invalidate R` drops relation R from the shared cache and the session
// stats catalog; `!delta` followed by signed fact lines (`+R(1, 2).` /
// `-R(1, 2).`) updates the session database in place, scoping cache
// invalidation to the changed tuples. With --standing, each query block
// additionally registers a standing query whose maintained answers are
// re-emitted after every `!delta` block without re-running the query
// (src/eval/delta.h). A malformed directive block is diagnosed and
// skipped like a malformed query block: nonzero exit, later blocks run.
//
// The cost-model flags configure the plan-quality layer (src/cost/):
// --cost-model adaptive scores every (literal, access pattern) candidate
// as expected_calls x observed p50 latency + expected tuples x tuple
// cost, seeded from the --stats-in JSON snapshot (a previous run's
// --stats-out); the default static model reproduces the classic
// input-slot-count preference. With --shared-cache the adaptive model
// also scales each relation's expected physical calls by its observed
// cache miss rate. --explain prints, per plan literal in the order
// ANSWER* executes, the chosen pattern, the rejected candidates, and the
// cost the model gave each; a step that joins no bound variable is
// marked [cartesian].
// --stats-out FILE writes the observed per-(relation, pattern) metrics of
// this run as a stats snapshot for the next one (forces metering).
//
// With --views, the query may reference global-as-view definitions; it is
// unfolded into a plan over the sources before analysis (Section 4.2's
// mediator pipeline). File formats are the library's textual formats (see
// README.md).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "constraints/inclusion.h"
#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/answer_star.h"
#include "eval/delta.h"
#include "eval/domain_enum.h"
#include "eval/explain.h"
#include "eval/op/lowering.h"
#include "eval/planner.h"
#include "feasibility/answerable.h"
#include "feasibility/compile.h"
#include "feasibility/plan_star.h"
#include "flag_parse.h"
#include "mediator/unfold.h"
#include "runtime/shared_cache.h"
#include "runtime/source_stack.h"
#include "schema/adornment.h"

namespace {

std::optional<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

constexpr char kUsageHead[] =
    "usage: ucqnc --schema FILE --query FILE [options]\n"
    "       ucqnc --schema FILE --queries FILE --facts FILE [options]\n"
    "\n"
    "input:\n"
    "  --schema FILE        relations + access patterns (required)\n"
    "  --query FILE         one UCQ-with-negation query\n"
    "  --queries FILE       multi-query session: query blocks separated by\n"
    "                       lines containing only ---, run in order against\n"
    "                       one shared runtime (requires --facts); blocks\n"
    "                       starting with ! are directives (!invalidate R,\n"
    "                       !delta with signed +R(...)./-R(...). fact lines)\n"
    "  --standing           with --queries: register each query as a\n"
    "                       standing query and re-emit its maintained\n"
    "                       answers after every !delta block\n"
    "  --views FILE         global-as-view definitions to unfold against\n"
    "  --constraints FILE   inclusion dependencies\n"
    "  --facts FILE         database instance; runs ANSWER*\n"
    "  --improve            also compute the domain-enumeration-improved\n"
    "                       underestimate when the answer is incomplete\n"
    "\n"
    "runtime stack (src/runtime/, see docs/RUNTIME.md):\n"
    "  --cache              per-run source-call cache (LRU, input-slot keys)\n"
    "  --cache-capacity N   bound the per-run cache to N call results\n"
    "  --shared-cache       process-wide cache store shared across the\n"
    "                       queries of a --queries session, single-flighting\n"
    "                       concurrent misses\n"
    "  --cache-negative-ttl-ms N\n"
    "                       expire *empty* shared-cache results after N ms\n"
    "                       instead of the default TTL (implies\n"
    "                       --shared-cache)\n"
    "  --max-calls N        per-run physical source-call budget\n"
    "  --batch | --no-batch batched waves (default) or the per-binding\n"
    "                       reference loop\n"
    "  --morsel-rows N      split frontiers into morsels of at most N rows\n"
    "                       before pushing them through the operator DAG\n"
    "  --metrics text|json  print the per-relation metrics table after runs\n"
    "\n"
    "cost model (src/cost/):\n"
    "  --stats-in FILE      stats snapshot feeding the adaptive model\n"
    "  --stats-out FILE     write this run's observed stats snapshot\n"
    "  --explain            print per-literal pattern decisions with costs\n"
    "\n"
    "shared with ucqnd and ucqn_workload (defaults here: the static model,\n"
    "no retry; --cache-ttl-ms and --cache-budget imply --shared-cache):\n";

constexpr char kUsageTail[] =
    "\n"
    "  --help               print this text and exit\n";

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "%s%s%s", kUsageHead, ucqn::kRuntimeFlagHelp, kUsageTail);
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

// One line naming the first unsafe disjunct of `query` (a variable in no
// positive body literal, Section 2), or empty when the query is safe.
// PLAN* and ANSWER* assume safe queries, so they are rejected on input.
std::string UnsafeReason(const ucqn::UnionQuery& query) {
  for (std::size_t i = 0; i < query.size(); ++i) {
    const ucqn::ConjunctiveQuery& disjunct = query.disjuncts()[i];
    if (!disjunct.IsSafe()) {
      return "unsafe disjunct " + std::to_string(i + 1) + ": " +
             disjunct.ToString() +
             " (every variable must occur in a positive body literal)";
    }
  }
  return "";
}

// Splits a --queries file into its query blocks: separator lines contain
// only `---` (surrounding whitespace allowed); blank blocks are dropped.
std::vector<std::string> SplitQueryBlocks(const std::string& text) {
  std::vector<std::string> blocks;
  std::string current;
  auto flush = [&] {
    if (current.find_first_not_of(" \t\r\n") != std::string::npos) {
      blocks.push_back(current);
    }
    current.clear();
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::string trimmed = line;
    const std::size_t first = trimmed.find_first_not_of(" \t\r");
    const std::size_t last = trimmed.find_last_not_of(" \t\r");
    trimmed = first == std::string::npos
                  ? ""
                  : trimmed.substr(first, last - first + 1);
    if (trimmed == "---") {
      flush();
    } else {
      current += line + "\n";
    }
  }
  flush();
  return blocks;
}

// The per-relation ledgers live in the (outer) source stack, but the
// executor-side scheduling counters (pipelining rounds, operator-DAG
// disjunct/morsel/anti-join work) live in the execution report — the
// stack cannot see executor scheduling. Merge both for the printed
// runtime line.
ucqn::RuntimeStats WithExecutorCounters(ucqn::RuntimeStats stats,
                                        const ucqn::RuntimeStats& report) {
  stats.pipeline_rounds = report.pipeline_rounds;
  stats.pipeline_overlaps = report.pipeline_overlaps;
  stats.disjuncts_executed = report.disjuncts_executed;
  stats.morsels = report.morsels;
  stats.antijoin_build_tuples = report.antijoin_build_tuples;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucqn;
  const char* schema_path = nullptr;
  const char* query_path = nullptr;
  const char* queries_path = nullptr;
  const char* views_path = nullptr;
  const char* constraints_path = nullptr;
  const char* facts_path = nullptr;
  bool improve = false;
  bool standing_mode = false;
  // The runtime flags ucqnd and ucqn_workload share fill the daemon's
  // option block (flag_parse.h): its runtime template is this run's
  // source stack, and the rest configures the executor, the shared cache
  // store and the cost model below.
  QueryDaemon::Options shared;
  RuntimeOptions& runtime = shared.runtime;
  ExecutionOptions exec;
  bool shared_cache = false;
  const char* metrics_format = nullptr;
  const char* stats_in_path = nullptr;
  const char* stats_out_path = nullptr;
  bool explain_plans = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char*& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    auto next_count = [&](std::size_t& slot) {
      return NextCount(argc, argv, &i, &slot);
    };
    const FlagMatch runtime_flag = ParseRuntimeFlag(argc, argv, &i, &shared);
    if (runtime_flag == FlagMatch::kBad) return Usage();
    if (runtime_flag == FlagMatch::kParsed) continue;
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--schema") == 0) {
      if (!next(schema_path)) return Usage();
    } else if (std::strcmp(argv[i], "--query") == 0) {
      if (!next(query_path)) return Usage();
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      if (!next(queries_path)) return Usage();
    } else if (std::strcmp(argv[i], "--views") == 0) {
      if (!next(views_path)) return Usage();
    } else if (std::strcmp(argv[i], "--constraints") == 0) {
      if (!next(constraints_path)) return Usage();
    } else if (std::strcmp(argv[i], "--facts") == 0) {
      if (!next(facts_path)) return Usage();
    } else if (std::strcmp(argv[i], "--improve") == 0) {
      improve = true;
    } else if (std::strcmp(argv[i], "--standing") == 0) {
      standing_mode = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      runtime.cache = true;
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0) {
      std::size_t capacity = 0;
      if (!next_count(capacity)) return Usage();
      runtime.cache = true;
      runtime.cache_capacity = capacity;
    } else if (std::strcmp(argv[i], "--shared-cache") == 0) {
      shared_cache = true;
    } else if (std::strcmp(argv[i], "--cache-negative-ttl-ms") == 0) {
      std::size_t ms = 0;
      if (!NextCount(argc, argv, &i, &ms, kMaxMillis)) return Usage();
      shared.cache.negative_ttl_micros = static_cast<std::uint64_t>(ms) * 1000;
    } else if (std::strcmp(argv[i], "--max-calls") == 0) {
      std::size_t max_calls = 0;
      if (!next_count(max_calls)) return Usage();
      runtime.budget.max_calls = max_calls;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      exec.batch = true;
    } else if (std::strcmp(argv[i], "--no-batch") == 0) {
      exec.batch = false;
    } else if (std::strcmp(argv[i], "--morsel-rows") == 0) {
      if (!next_count(exec.morsel_rows)) return Usage();
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (!next(metrics_format)) {
        std::fprintf(stderr, "--metrics expects text or json\n");
        return Usage();
      }
      if (std::strcmp(metrics_format, "text") != 0 &&
          std::strcmp(metrics_format, "json") != 0) {
        std::fprintf(stderr, "--metrics expects text or json, got \"%s\"\n",
                     metrics_format);
        return Usage();
      }
      runtime.metering = true;
    } else if (std::strcmp(argv[i], "--stats-in") == 0) {
      if (!next(stats_in_path)) return Usage();
    } else if (std::strcmp(argv[i], "--stats-out") == 0) {
      if (!next(stats_out_path)) return Usage();
      runtime.metering = true;  // the snapshot is read off the meter
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain_plans = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage();
    }
  }
  if (schema_path == nullptr ||
      (query_path == nullptr && queries_path == nullptr)) {
    return Usage();
  }
  if (queries_path != nullptr) {
    if (query_path != nullptr) {
      std::fprintf(stderr, "--query and --queries are mutually exclusive\n");
      return Usage();
    }
    if (facts_path == nullptr) {
      std::fprintf(stderr, "--queries requires --facts\n");
      return Usage();
    }
    if (views_path != nullptr) {
      std::fprintf(stderr, "--views is not supported with --queries\n");
      return Usage();
    }
    // Each query's observed stats feed the adaptive model (and the
    // session summary) of the queries after it.
    runtime.metering = true;
  }
  if (standing_mode && queries_path == nullptr) {
    std::fprintf(stderr, "--standing requires --queries\n");
    return Usage();
  }
  // Each cache flag configures the shared store, so it implies
  // --shared-cache (counts are positive: a set field was given).
  if (shared.cache.default_ttl_micros != 0 || shared.cache.budget_bytes != 0 ||
      shared.cache.negative_ttl_micros != 0) {
    shared_cache = true;
  }
  // --pipeline-depth and --disjunct-concurrency are executor decisions,
  // not stack layers: they ride `exec`, and the stack's runtime line
  // prints only when a stack layer is on.
  exec.runtime.pipeline_depth = std::exchange(runtime.pipeline_depth, 1);
  exec.disjunct_concurrency = shared.disjunct_concurrency;

  // The process-wide cache store. Constructed unconditionally (it is
  // cheap when unused) so its lifetime spans every execution below; wired
  // into the runtime stack and the adaptive model only when requested.
  SharedCacheStore shared_store(shared.cache);
  if (shared_cache) runtime.shared_cache = &shared_store;

  std::string error;

  std::optional<std::string> schema_text = ReadFile(schema_path);
  if (!schema_text) {
    std::fprintf(stderr, "cannot read %s\n", schema_path);
    return 1;
  }
  std::optional<Catalog> catalog = Catalog::Parse(*schema_text, &error);
  if (!catalog) {
    std::fprintf(stderr, "schema error: %s\n", error.c_str());
    return 1;
  }

  std::optional<UnionQuery> query;
  if (query_path != nullptr) {
    std::optional<std::string> query_text = ReadFile(query_path);
    if (!query_text) {
      std::fprintf(stderr, "cannot read %s\n", query_path);
      return 1;
    }
    query = ParseUnionQuery(*query_text, &error);
    if (!query) {
      std::fprintf(stderr, "query error: %s\n", error.c_str());
      return 1;
    }
    if (const std::string unsafe = UnsafeReason(*query); !unsafe.empty()) {
      std::fprintf(stderr, "query error: %s\n", unsafe.c_str());
      return 2;
    }
    if (views_path != nullptr) {
      std::optional<std::string> text = ReadFile(views_path);
      if (!text) {
        std::fprintf(stderr, "cannot read %s\n", views_path);
        return 1;
      }
      std::optional<ViewRegistry> views = ViewRegistry::Parse(*text, &error);
      if (!views) {
        std::fprintf(stderr, "views error: %s\n", error.c_str());
        return 1;
      }
      UnfoldResult unfolded = Unfold(*query, *views);
      if (!unfolded.ok) {
        std::fprintf(stderr, "unfolding error: %s\n", unfolded.error.c_str());
        return 1;
      }
      std::printf("unfolded against %zu view(s), %zu expansion(s):\n%s\n\n",
                  views->size(), unfolded.expansions,
                  unfolded.query.ToString().c_str());
      *query = std::move(unfolded.query);
    }
    if (!catalog->CoversQuery(*query, &error)) {
      std::fprintf(stderr, "schema/query mismatch: %s\n", error.c_str());
      return 1;
    }
  }

  ConstraintSet constraints;
  if (constraints_path != nullptr) {
    std::optional<std::string> text = ReadFile(constraints_path);
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", constraints_path);
      return 1;
    }
    std::optional<ConstraintSet> parsed = ConstraintSet::Parse(*text, &error);
    if (!parsed) {
      std::fprintf(stderr, "constraints error: %s\n", error.c_str());
      return 1;
    }
    constraints = std::move(*parsed);
  }

  CompileOptions options;
  if (!constraints.empty()) options.constraints = &constraints;

  // Plan-quality layer (src/cost/): the model every pattern and ordering
  // decision flows through. Only the adaptive model is handed to the
  // executor (and so reorders literals); the static default leaves
  // exec.cost_model null and keeps PLAN*'s order, as ucqnd does, and
  // prices --explain.
  StatsCatalog stats;
  if (stats_in_path != nullptr) {
    std::optional<std::string> text = ReadFile(stats_in_path);
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", stats_in_path);
      return 1;
    }
    std::optional<StatsCatalog> parsed = StatsCatalog::FromJson(*text, &error);
    if (!parsed) {
      std::fprintf(stderr, "stats error in %s: %s\n", stats_in_path,
                   error.c_str());
      return 1;
    }
    stats = std::move(*parsed);
    std::printf("loaded stats for %zu relation(s) from %s\n", stats.size(),
                stats_in_path);
  }
  StaticCostModel static_model;
  AdaptiveCostOptions adaptive_options;
  if (shared_cache) adaptive_options.shared_cache = &shared_store;
  adaptive_options.use_observed_fanouts = shared.fanout_feedback;
  // With feedback on (the default), a --stats-in snapshot's observed scan
  // fanouts fill the estimate gaps the catalog's @N annotations leave, so
  // relations the fallback would price at 1000 tuples are priced at their
  // measured size (docs/WORKLOADS.md, "Fanout feedback").
  CardinalityEstimates estimates = CardinalityEstimates::FromCatalog(*catalog);
  if (shared.fanout_feedback) estimates.ApplyObservedFanouts(stats);
  AdaptiveCostModel adaptive_model(&stats, std::move(estimates),
                                   adaptive_options);
  const CostModel* model =
      shared.adaptive_cost_model
          ? static_cast<const CostModel*>(&adaptive_model)
          : static_cast<const CostModel*>(&static_model);
  if (shared.adaptive_cost_model) exec.cost_model = model;

  const auto write_stats_out = [&](const StatsCatalog& snapshot) {
    if (stats_out_path == nullptr) return;
    std::ofstream out(stats_out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", stats_out_path);
      return;
    }
    out << snapshot.ToJson() << "\n";
    std::printf("wrote stats snapshot (%zu relation(s)) to %s\n",
                snapshot.size(), stats_out_path);
  };

  // -------------------------------------------------------------------
  // Multi-query session: every block runs against the same backend and —
  // with --shared-cache — the same cache store, so later queries reuse
  // earlier queries' physical calls. Each query gets a fresh SourceStack
  // view (per-query metrics, budgets, and hit/miss ledger).
  if (queries_path != nullptr) {
    std::optional<std::string> text = ReadFile(queries_path);
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", queries_path);
      return 1;
    }
    std::vector<std::string> blocks = SplitQueryBlocks(*text);
    if (blocks.empty()) {
      std::fprintf(stderr, "no queries in %s\n", queries_path);
      return 1;
    }
    std::optional<std::string> facts_text = ReadFile(facts_path);
    if (!facts_text) {
      std::fprintf(stderr, "cannot read %s\n", facts_path);
      return 1;
    }
    std::optional<Database> db = Database::ParseFacts(*facts_text, &error);
    if (!db) {
      std::fprintf(stderr, "facts error: %s\n", error.c_str());
      return 1;
    }
    if (!constraints.empty() && !constraints.HoldsIn(*db)) {
      std::fprintf(stderr,
                   "warning: facts violate the declared constraints\n");
    }
    DatabaseSource backend(&*db, &*catalog);
    std::printf("session: %zu queries from %s\n", blocks.size(), queries_path);
    int status = 0;
    std::uint64_t calls_before = 0;
    // --standing: the session's registered standing queries, maintained
    // in place by !delta blocks instead of being re-run.
    struct SessionStanding {
      std::size_t query_number = 0;
      std::unique_ptr<StandingQuery> query;
    };
    std::vector<SessionStanding> standing;
    // A bracket as one transcript line: its sizes and verdict, or why it
    // failed.
    const auto bracket_line = [](const AnswerBracket& bracket) {
      if (!bracket.ok) return "failed: " + bracket.error;
      return std::to_string(bracket.under.size()) + " under, " +
             std::to_string(bracket.over.size()) + " over, " +
             (bracket.complete ? "complete" : "incomplete");
    };
    const auto emit_standing = [&]() {
      for (const SessionStanding& entry : standing) {
        std::printf("  standing %zu: %s\n", entry.query_number,
                    bracket_line(entry.query->Answers()).c_str());
      }
    };
    for (std::size_t qi = 0; qi < blocks.size(); ++qi) {
      // A malformed block poisons only itself: diagnose it by number,
      // mark the session failed, and keep serving the blocks after it —
      // one typo must not cost the rest of the session its warm cache.
      const std::size_t first_char =
          blocks[qi].find_first_not_of(" \t\r\n");
      if (first_char != std::string::npos && blocks[qi][first_char] == '!') {
        // Directive block. Same recovery contract as a malformed query:
        // diagnose by number, mark the session failed, keep going.
        std::istringstream directive(blocks[qi].substr(first_char));
        std::string head;
        std::getline(directive, head);
        while (!head.empty() &&
               (head.back() == '\r' || head.back() == ' ' ||
                head.back() == '\t')) {
          head.pop_back();
        }
        if (head.rfind("!invalidate", 0) == 0) {
          std::string relation = head.substr(std::strlen("!invalidate"));
          const std::size_t start = relation.find_first_not_of(" \t");
          relation = start == std::string::npos ? "" : relation.substr(start);
          if (relation.empty() || !catalog->Contains(relation)) {
            std::fprintf(stderr,
                         "query %zu error: !invalidate needs a declared "
                         "relation, got \"%s\"\n",
                         qi + 1, relation.c_str());
            std::printf("\nquery %zu: skipped (bad directive)\n", qi + 1);
            status = 1;
            continue;
          }
          // Both staleness ledgers go together: the cached call results
          // AND the observed stats the planner prices from.
          std::size_t dropped = 0;
          if (shared_cache) {
            const std::size_t before = shared_store.size();
            shared_store.InvalidateRelation(relation);
            dropped = before - shared_store.size();
          }
          const std::size_t stats_dropped = stats.InvalidateRelation(relation);
          std::printf(
              "\nquery %zu: invalidated \"%s\" (%zu cache entries, "
              "%zu stats rows)\n",
              qi + 1, relation.c_str(), dropped, stats_dropped);
          continue;
        }
        if (head == "!delta") {
          // Signed fact lines, grouped per relation into one batch.
          std::vector<RelationDelta> batch;
          std::string delta_line;
          bool bad = false;
          while (std::getline(directive, delta_line)) {
            const std::size_t begin =
                delta_line.find_first_not_of(" \t\r");
            if (begin == std::string::npos) continue;
            const std::size_t end = delta_line.find_last_not_of(" \t\r");
            delta_line = delta_line.substr(begin, end - begin + 1);
            std::string fact_error;
            std::optional<SignedFact> fact =
                ParseSignedFact(delta_line, &fact_error);
            if (!fact) {
              std::fprintf(stderr,
                           "query %zu error: bad !delta line \"%s\": %s\n",
                           qi + 1, delta_line.c_str(), fact_error.c_str());
              bad = true;
              break;
            }
            const std::string& relation = fact->relation;
            if (!catalog->Contains(relation)) {
              std::fprintf(stderr,
                           "query %zu error: !delta touches undeclared "
                           "relation \"%s\"\n",
                           qi + 1, relation.c_str());
              bad = true;
              break;
            }
            RelationDelta* group = nullptr;
            for (RelationDelta& candidate : batch) {
              if (candidate.relation == relation) {
                group = &candidate;
                break;
              }
            }
            if (group == nullptr) {
              batch.push_back(RelationDelta{relation, {}, {}});
              group = &batch.back();
            }
            (fact->insert ? group->inserts : group->deletes)
                .push_back(std::move(fact->tuple));
          }
          if (bad || batch.empty()) {
            if (batch.empty() && !bad) {
              std::fprintf(stderr, "query %zu error: empty !delta block\n",
                           qi + 1);
            }
            std::printf("\nquery %zu: skipped (bad directive)\n", qi + 1);
            status = 1;
            continue;
          }
          // Update the database and the cache first — every relation of
          // the batch — then maintain against the post-update state.
          std::vector<AppliedDelta> applied;
          bool apply_failed = false;
          std::size_t inserted = 0;
          std::size_t deleted = 0;
          std::size_t cache_dropped = 0;
          for (const RelationDelta& group : batch) {
            std::optional<AppliedDelta> one = ApplyDelta(&*db, group, &error);
            if (!one) {
              std::fprintf(stderr, "query %zu error: %s\n", qi + 1,
                           error.c_str());
              apply_failed = true;
              break;
            }
            if (one->empty()) continue;
            inserted += one->inserted.size();
            deleted += one->deleted.size();
            if (shared_cache) {
              cache_dropped += shared_store.InvalidateDelta(
                  one->relation, one->ChangedTuples());
            }
            applied.push_back(std::move(*one));
          }
          for (SessionStanding& entry : standing) {
            // False means the query parked (ApplyDeltas already tried a
            // rebuild); emit_standing prints its error from here on.
            SourceStack maintain_stack(&backend, runtime);
            std::string maintain_error;
            if (!entry.query->ApplyDeltas(applied, maintain_stack.source(),
                                          &maintain_error)) {
              std::fprintf(stderr, "query %zu error: standing %zu: %s\n",
                           qi + 1, entry.query_number, maintain_error.c_str());
              status = 1;
            }
          }
          std::printf(
              "\nquery %zu: delta applied (%zu inserted, %zu deleted, "
              "%zu cache entries dropped)\n",
              qi + 1, inserted, deleted, cache_dropped);
          if (standing_mode) emit_standing();
          if (apply_failed) {
            std::printf("query %zu: skipped remainder (bad delta)\n", qi + 1);
            status = 1;
          }
          continue;
        }
        std::fprintf(stderr, "query %zu error: unknown directive \"%s\"\n",
                     qi + 1, head.c_str());
        std::printf("\nquery %zu: skipped (bad directive)\n", qi + 1);
        status = 1;
        continue;
      }
      std::optional<UnionQuery> q = ParseUnionQuery(blocks[qi], &error);
      if (!q) {
        std::fprintf(stderr, "query %zu error: %s\n", qi + 1, error.c_str());
        std::printf("\nquery %zu: skipped (parse error)\n", qi + 1);
        status = 1;
        continue;
      }
      if (const std::string unsafe = UnsafeReason(*q); !unsafe.empty()) {
        std::fprintf(stderr, "query %zu error: %s\n", qi + 1, unsafe.c_str());
        std::printf("\nquery %zu: skipped (unsafe query)\n", qi + 1);
        status = 1;
        continue;
      }
      if (!catalog->CoversQuery(*q, &error)) {
        std::fprintf(stderr, "query %zu schema mismatch: %s\n", qi + 1,
                     error.c_str());
        std::printf("\nquery %zu: skipped (schema mismatch)\n", qi + 1);
        status = 1;
        continue;
      }
      CompileResult compiled = Compile(*q, *catalog, options);
      SourceStack stack(&backend, runtime);
      // --pipeline-depth rides through exec.runtime (it is an executor
      // decision, not a stack layer); share this stack's clock so
      // overlapped waves are charged on the session timeline.
      exec.runtime.clock = stack.clock();
      AnswerStarReport report =
          AnswerStar(compiled.analyzed_query, *catalog, stack.source(), exec);
      const std::uint64_t physical = backend.stats().calls - calls_before;
      calls_before = backend.stats().calls;
      std::printf("\nquery %zu: %s\n", qi + 1, q->ToString().c_str());
      std::printf("  %s%s\n", report.ok ? "answers: " : "",
                  bracket_line(report).c_str());
      if (!report.ok) {
        status = 1;
      } else if (standing_mode) {
        // Materialize the chains off the same (warm) stack the run just
        // used; later !delta blocks maintain them in place.
        std::unique_ptr<StandingQuery> sq = StandingQuery::Build(
            compiled.analyzed_query, *catalog, stack.source(), &error);
        if (sq == nullptr) {
          std::fprintf(stderr,
                       "query %zu error: standing registration failed: %s\n",
                       qi + 1, error.c_str());
          status = 1;
        } else {
          standing.push_back(SessionStanding{qi + 1, std::move(sq)});
          std::printf("  standing: registered\n");
        }
      }
      std::printf("  physical calls: %llu\n",
                  static_cast<unsigned long long>(physical));
      std::printf("  runtime: %s\n",
                  WithExecutorCounters(stack.stats(), report.runtime)
                      .ToString()
                      .c_str());
      if (metrics_format != nullptr) {
        std::printf("  metrics:\n%s\n",
                    std::strcmp(metrics_format, "json") == 0
                        ? stack.meter()->ToJson().c_str()
                        : stack.meter()->ToText().c_str());
      }
      // Feed this query's observations to the next one's adaptive model.
      if (stack.meter() != nullptr) stats.Observe(*stack.meter());
    }
    if (shared_cache) {
      std::printf("\n%s\n", shared_store.ToText().c_str());
    }
    write_stats_out(stats);
    return status;
  }

  std::printf("schema:\n%s\n\nquery:\n%s\n\n", catalog->ToString().c_str(),
              query->ToString().c_str());
  if (!constraints.empty()) {
    std::printf("constraints:\n%s\n\n", constraints.ToString().c_str());
  }

  std::printf("executable: %s\norderable:  %s\n",
              IsExecutable(*query, *catalog) ? "yes" : "no",
              IsOrderable(*query, *catalog) ? "yes" : "no");

  CompileResult compiled = Compile(*query, *catalog, options);
  std::printf("%s\n", compiled.Report().c_str());

  if (explain_plans) {
    // What ANSWER* executes (SplitForExecution), in its order: per
    // disjunct, the pattern decisions and the compiled operator chain
    // (eval/op/lowering.h) with each chosen candidate's estimated cost.
    const AnswerStarPlan plan =
        SplitForExecution(PlanStar(compiled.analyzed_query, *catalog),
                          *catalog, exec.cost_model);
    std::printf("\nANSWER* plan (exact: in Q^u and Q^o; padded: Q^o only):\n");
    std::size_t d = 0;
    for (const auto& [tag, disjuncts] :
         {std::pair<const char*, const UnionQuery*>{"exact", &plan.exact},
          {"padded", &plan.padded}}) {
      for (const ConjunctiveQuery& disjunct : disjuncts->disjuncts()) {
        const LoweredChain chain = LowerDisjunct(disjunct, *catalog, *model);
        std::printf("disjunct %zu (%s): %s\n%s%s", ++d, tag,
                    disjunct.ToString().c_str(),
                    ExplainPlan(chain, *model).ToString().c_str(),
                    chain.ToString().c_str());
      }
    }
  }

  if (facts_path != nullptr) {
    std::optional<std::string> text = ReadFile(facts_path);
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", facts_path);
      return 1;
    }
    std::optional<Database> db = Database::ParseFacts(*text, &error);
    if (!db) {
      std::fprintf(stderr, "facts error: %s\n", error.c_str());
      return 1;
    }
    if (!constraints.empty() && !constraints.HoldsIn(*db)) {
      std::fprintf(stderr,
                   "warning: facts violate the declared constraints\n");
    }
    DatabaseSource backend(&*db, &*catalog);
    // The runtime flags build the source stack here (rather than through
    // ExecutionOptions) so the whole run — ANSWER*, Δ explanations, the
    // improved underestimate — shares one cache/budget/worker pool, and
    // the meter can be printed at the end. `exec.runtime` carries only
    // the executor-side pipelining knob (--pipeline-depth) and this
    // stack's clock; the layered stack is this one, not a per-Execute
    // one.
    SourceStack stack(&backend, runtime);
    exec.runtime.clock = stack.clock();
    Source* source = stack.source();
    AnswerStarReport report =
        AnswerStar(compiled.analyzed_query, *catalog, source, exec);
    std::printf("\nANSWER*:\n%s\n", report.Summary().c_str());
    std::printf("source calls: %llu, tuples: %llu\n",
                static_cast<unsigned long long>(backend.stats().calls),
                static_cast<unsigned long long>(
                    backend.stats().tuples_returned));
    if (runtime.Enabled()) {
      std::printf("runtime: %s\n",
                  WithExecutorCounters(stack.stats(), report.runtime)
                      .ToString()
                      .c_str());
    }
    if (shared_cache) {
      std::printf("%s\n", shared_store.ToText().c_str());
    }
    // The Δ explanations and the improved underestimate re-execute plans
    // on the same stack, so a call budget ANSWER* fit in can still run
    // out there: that is one diagnostic line and exit 1.
    int status = report.ok ? 0 : 1;
    if (status == 0 && !report.complete) {
      DeltaExplanations explained =
          ExplainDelta(compiled.analyzed_query, *catalog, source, report);
      for (const DeltaExplanation& e : explained.explanations) {
        std::printf("  maybe %s\n", e.ToString().c_str());
      }
      if (!explained.ok) {
        std::fprintf(stderr, "delta explanation failed: %s\n",
                     explained.error.c_str());
        status = 1;
      }
    }
    if (status == 0 && improve && !report.complete) {
      ImprovedUnderestimate improved =
          ImproveUnderestimate(compiled.analyzed_query, *catalog, source);
      if (improved.ok) {
        std::printf(
            "\nimproved underestimate (%zu tuples, %zu gained):\n%s\n",
            improved.tuples.size(), improved.gained.size(),
            TupleSetToString(improved.tuples).c_str());
      } else {
        std::fprintf(stderr, "improved underestimate failed: %s\n",
                     improved.error.c_str());
        status = 1;
      }
    }
    if (metrics_format != nullptr) {
      std::printf("\nmetrics:\n%s\n",
                  std::strcmp(metrics_format, "json") == 0
                      ? stack.meter()->ToJson().c_str()
                      : stack.meter()->ToText().c_str());
    }
    if (stats_out_path != nullptr && stack.meter() != nullptr) {
      StatsCatalog snapshot;
      snapshot.Observe(*stack.meter());
      write_stats_out(snapshot);
    }
    return status;
  }
  return 0;
}
