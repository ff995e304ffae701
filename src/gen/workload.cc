#include "gen/workload.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "ast/query.h"
#include "eval/delta.h"
#include "util/logging.h"

namespace ucqn {

namespace {

bool Flip(std::mt19937_64* rng, double prob) {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(*rng) < prob;
}

int UniformInt(std::mt19937_64* rng, int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(*rng);
}

std::string ChainName(int i) { return "C" + std::to_string(i); }
std::string EnumName(int i) { return "E" + std::to_string(i); }
std::string DecoyName(int i) { return "D" + std::to_string(i); }

Term DomainConstant(int value) {
  // Numeric names print unquoted and parse back as constants.
  return Term::Constant(std::to_string(value));
}

}  // namespace

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  UCQN_CHECK_MSG(n > 0, "ZipfSampler needs a non-empty domain");
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(std::mt19937_64* rng) const {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  const double u = dist(*rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

WorkloadSpec GenerateWorkload(const WorkloadGenOptions& options) {
  UCQN_CHECK_MSG(options.chain_length >= 1, "need at least one chain link");
  UCQN_CHECK_MSG(options.max_literals >= 1, "need at least one literal");
  UCQN_CHECK_MSG(options.domain_size >= 1, "need a non-empty domain");

  WorkloadSpec spec;
  spec.seed = options.seed;
  std::mt19937_64 rng(options.seed);

  // --- schema -------------------------------------------------------------
  // Chain links: C0 is the open end (scan + probe); odd links are
  // probe-only (reachable solely through bound slots); even links keep
  // both, giving ChoosePattern a live decision the feedback loop can flip.
  for (int i = 0; i < options.chain_length; ++i) {
    RelationSchema& schema = spec.catalog.AddRelation(ChainName(i), 2);
    schema.AddPattern(AccessPattern::MustParse("io"));
    if (i % 2 == 0) schema.AddPattern(AccessPattern::AllOutput(2));
  }
  for (int i = 0; i < options.enumerable_relations; ++i) {
    RelationSchema& schema = spec.catalog.AddRelation(EnumName(i), 1);
    schema.AddPattern(AccessPattern::AllOutput(1));
  }
  for (int i = 0; i < options.decoy_relations; ++i) {
    const int arity = UniformInt(&rng, 1, 3);
    RelationSchema& schema =
        spec.catalog.AddRelation(DecoyName(i), static_cast<std::size_t>(arity));
    std::string word;
    for (int j = 0; j < arity; ++j) word += Flip(&rng, 0.7) ? 'i' : 'o';
    schema.AddPattern(AccessPattern::MustParse(word));
  }

  // --- facts --------------------------------------------------------------
  for (int i = 0; i < options.chain_length; ++i) {
    for (int t = 0; t < options.tuples_per_relation; ++t) {
      Tuple tuple;
      tuple.push_back(DomainConstant(UniformInt(&rng, 0, options.domain_size - 1)));
      tuple.push_back(DomainConstant(UniformInt(&rng, 0, options.domain_size - 1)));
      spec.database.Insert(ChainName(i), std::move(tuple));
    }
  }
  for (int i = 0; i < options.enumerable_relations; ++i) {
    for (int v = 0; v < options.domain_size; ++v) {
      if (Flip(&rng, 0.5)) {
        spec.database.Insert(EnumName(i), {DomainConstant(v)});
      }
    }
  }
  for (int i = 0; i < options.decoy_relations; ++i) {
    const RelationSchema* schema = spec.catalog.Find(DecoyName(i));
    for (int t = 0; t < options.tuples_per_relation / 4 + 1; ++t) {
      Tuple tuple;
      for (std::size_t j = 0; j < schema->arity(); ++j) {
        tuple.push_back(
            DomainConstant(UniformInt(&rng, 0, options.domain_size - 1)));
      }
      spec.database.Insert(DecoyName(i), std::move(tuple));
    }
  }

  // --- fault plan ---------------------------------------------------------
  spec.faults.seed = options.seed;
  spec.faults.latency_micros = options.latency_micros;
  spec.faults.latency_jitter_micros = options.latency_jitter_micros;
  spec.faults.failure_probability = options.failure_probability;
  for (int i = 0; i < options.slow_relations && i < options.chain_length; ++i) {
    spec.faults.relation_latency_micros[ChainName(options.chain_length - 1 - i)] =
        options.latency_micros * 10;
  }
  for (int i = 0; i < options.flaky_relations && i < options.enumerable_relations;
       ++i) {
    spec.faults.relation_failure_probability[EnumName(i)] =
        options.flaky_failure_probability;
  }
  spec.faults.spike_period_micros = options.spike_period_micros;
  spec.faults.spike_duration_micros = options.spike_duration_micros;
  spec.faults.spike_extra_micros = options.spike_extra_micros;

  spec.replay = options.replay;

  // --- query templates ----------------------------------------------------
  ZipfSampler key_zipf(static_cast<std::size_t>(options.domain_size),
                       options.zipf_s);
  auto make_walk = [&](int suffix) -> ConjunctiveQuery {
    // A walk over chain links s..s+len-1, entering via a scan (only legal
    // at C0) or a Zipf-hot constant probe (legal anywhere).
    const int s = UniformInt(&rng, 0, options.chain_length - 1);
    const int max_len = std::min(options.max_literals, options.chain_length - s);
    const int len = UniformInt(&rng, 1, max_len);
    const auto var = [suffix](int i) {
      return Term::Variable("v" + std::to_string(i) +
                            (suffix > 0 ? "_" + std::to_string(suffix) : ""));
    };
    std::vector<Literal> body;
    const bool probe_entry = s > 0 || Flip(&rng, options.constant_prob);
    Term entry = probe_entry
                     ? DomainConstant(static_cast<int>(key_zipf.Sample(&rng)))
                     : var(0);
    body.push_back(Literal::Positive(
        Atom(ChainName(s), {std::move(entry), var(1)})));
    for (int j = 1; j < len; ++j) {
      body.push_back(
          Literal::Positive(Atom(ChainName(s + j), {var(j), var(j + 1)})));
    }
    if (options.enumerable_relations > 0 && Flip(&rng, options.negation_prob)) {
      const int e = UniformInt(&rng, 0, options.enumerable_relations - 1);
      body.push_back(Literal::Negative(Atom(EnumName(e), {var(len)})));
    }
    return ConjunctiveQuery("Q", {var(len)}, std::move(body));
  };
  for (int q = 0; q < options.num_queries; ++q) {
    std::vector<ConjunctiveQuery> disjuncts;
    disjuncts.push_back(make_walk(0));
    if (Flip(&rng, options.union_prob)) disjuncts.push_back(make_walk(1));
    spec.queries.push_back(UnionQuery(std::move(disjuncts)).ToString());
  }

  // --- delta stream -------------------------------------------------------
  // Drawn from its own seed stream AFTER everything above, so turning the
  // rate on cannot perturb the schema/facts/queries — a v2 file at rate 0
  // is byte-identical to the v1 file from the same seed.
  if (options.update_rate > 0.0 && spec.replay.requests > 0) {
    std::mt19937_64 delta_rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
    // Working copies track the instance as of each request index, so
    // deletes always target a tuple that is actually live at that point.
    std::map<std::string, std::vector<Tuple>> chain_live;
    for (int i = 0; i < options.chain_length; ++i) {
      std::vector<Tuple>& live = chain_live[ChainName(i)];
      if (const std::set<Tuple>* tuples = spec.database.Find(ChainName(i))) {
        live.assign(tuples->begin(), tuples->end());
      }
    }
    std::map<std::string, std::set<Tuple>> enum_live;
    for (int i = 0; i < options.enumerable_relations; ++i) {
      if (const std::set<Tuple>* tuples = spec.database.Find(EnumName(i))) {
        enum_live[EnumName(i)] = *tuples;
      } else {
        enum_live[EnumName(i)];
      }
    }
    for (std::uint64_t r = 0; r < spec.replay.requests; ++r) {
      if (!Flip(&delta_rng, options.update_rate)) continue;
      if (options.enumerable_relations > 0 && Flip(&delta_rng, 0.3)) {
        // Toggle one enumerable-domain value — the event that flips
        // `not E(x)` guards in both directions.
        const std::string name =
            EnumName(UniformInt(&delta_rng, 0, options.enumerable_relations - 1));
        const Tuple value = {
            DomainConstant(UniformInt(&delta_rng, 0, options.domain_size - 1))};
        std::set<Tuple>& live = enum_live[name];
        WorkloadDeltaEvent event;
        event.at_request = r;
        event.relation = name;
        event.tuple = value;
        if (live.count(value) > 0) {
          event.insert = false;
          live.erase(value);
        } else {
          event.insert = true;
          live.insert(value);
        }
        spec.deltas.push_back(std::move(event));
      } else {
        // Churn one chain link: retire a live edge, add a fresh one.
        const std::string name =
            ChainName(UniformInt(&delta_rng, 0, options.chain_length - 1));
        std::vector<Tuple>& live = chain_live[name];
        if (!live.empty()) {
          const int victim =
              UniformInt(&delta_rng, 0, static_cast<int>(live.size()) - 1);
          WorkloadDeltaEvent del;
          del.at_request = r;
          del.relation = name;
          del.insert = false;
          del.tuple = live[static_cast<std::size_t>(victim)];
          live.erase(live.begin() + victim);
          spec.deltas.push_back(std::move(del));
        }
        WorkloadDeltaEvent ins;
        ins.at_request = r;
        ins.relation = name;
        ins.insert = true;
        ins.tuple = {
            DomainConstant(UniformInt(&delta_rng, 0, options.domain_size - 1)),
            DomainConstant(UniformInt(&delta_rng, 0, options.domain_size - 1))};
        live.push_back(ins.tuple);
        spec.deltas.push_back(std::move(ins));
      }
    }
    if (!spec.deltas.empty()) spec.version = std::max(spec.version, 2);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Serialization. Canonical: fixed section order, fixed key order, sorted
// maps, "%.6g" doubles — the same spec always produces the same bytes.

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string SerializeWorkload(const WorkloadSpec& spec) {
  // A delta stream needs the v2 grammar; everything else stays readable
  // by v1 parsers, so the version only ratchets when deltas exist.
  const int version =
      spec.deltas.empty() ? spec.version : std::max(spec.version, 2);
  std::string out = "# ucqn-workload v" + std::to_string(version) + "\n";
  out += "seed " + std::to_string(spec.seed) + "\n";
  out += "\n[schema]\n" + spec.catalog.ToString();
  out += "\n[facts]\n" + spec.database.ToString();
  out += "\n[faults]\n";
  out += "failure_probability " + FormatDouble(spec.faults.failure_probability) +
         "\n";
  out += "seed " + std::to_string(spec.faults.seed) + "\n";
  out += "fail_first_calls " + std::to_string(spec.faults.fail_first_calls) +
         "\n";
  out += "fail_first_per_key " +
         std::to_string(spec.faults.fail_first_per_key) + "\n";
  out += "latency_micros " + std::to_string(spec.faults.latency_micros) + "\n";
  out += "latency_jitter_micros " +
         std::to_string(spec.faults.latency_jitter_micros) + "\n";
  for (const auto& [relation, micros] : spec.faults.relation_latency_micros) {
    out += "relation_latency_micros " + relation + " " +
           std::to_string(micros) + "\n";
  }
  for (const auto& [relation, prob] :
       spec.faults.relation_failure_probability) {
    out += "relation_failure_probability " + relation + " " +
           FormatDouble(prob) + "\n";
  }
  out += "spike_period_micros " +
         std::to_string(spec.faults.spike_period_micros) + "\n";
  out += "spike_duration_micros " +
         std::to_string(spec.faults.spike_duration_micros) + "\n";
  out += "spike_extra_micros " + std::to_string(spec.faults.spike_extra_micros) +
         "\n";
  out += "\n[replay]\n";
  out += "requests " + std::to_string(spec.replay.requests) + "\n";
  out += "zipf_s " + FormatDouble(spec.replay.zipf_s) + "\n";
  out += "seed " + std::to_string(spec.replay.seed) + "\n";
  out += "tenants " + std::to_string(spec.replay.tenants) + "\n";
  if (!spec.deltas.empty()) {
    out += "\n[deltas]\n";
    for (const WorkloadDeltaEvent& event : spec.deltas) {
      out += "@" + std::to_string(event.at_request) + " " +
             (event.insert ? "+" : "-") + event.relation +
             TupleToString(event.tuple) + ".\n";
    }
  }
  out += "\n[queries]\n";
  for (const std::string& query : spec.queries) {
    out += query + "\n---\n";
  }
  return out;
}

namespace {

// Strict unsigned/double parsers in the spirit of the tools' flag
// checking: the whole token must parse, no trailing junk.
bool ParseU64(const std::string& token, std::uint64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end == token.c_str() || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (errno == ERANGE || end == token.c_str() || *end != '\0' ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// Splits "key value..." on whitespace into at most three fields.
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string field;
  while (in >> field) fields.push_back(field);
  return fields;
}

}  // namespace

std::optional<WorkloadSpec> ParseWorkload(const std::string& text,
                                          std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<WorkloadSpec> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  WorkloadSpec spec;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) ||
      line.rfind("# ucqn-workload v", 0) != 0) {
    return fail("missing '# ucqn-workload v1' magic line");
  }
  std::uint64_t version = 0;
  if (!ParseU64(line.substr(std::strlen("# ucqn-workload v")), &version) ||
      (version != 1 && version != 2)) {
    return fail("unsupported workload version (this build reads v1/v2)");
  }
  spec.version = static_cast<int>(version);

  std::string section;  // "" = preamble
  std::string schema_text;
  std::string facts_text;
  std::string current_query;
  std::size_t line_number = 1;
  auto flush_query = [&]() {
    if (!current_query.empty() && current_query.back() == '\n') {
      current_query.pop_back();
    }
    if (!current_query.empty()) spec.queries.push_back(current_query);
    current_query.clear();
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.front() == '[' && line.back() == ']') {
      if (section == "queries") flush_query();
      section = line.substr(1, line.size() - 2);
      if (section != "schema" && section != "facts" && section != "faults" &&
          section != "replay" && section != "deltas" && section != "queries") {
        return fail("unknown section [" + section + "] at line " +
                    std::to_string(line_number));
      }
      continue;
    }
    if (section != "queries" &&
        (line.empty() || line.front() == '#')) {
      continue;  // blank and comment lines are structural noise
    }
    if (section.empty()) {
      const std::vector<std::string> fields = SplitFields(line);
      if (fields.size() == 2 && fields[0] == "seed" &&
          ParseU64(fields[1], &spec.seed)) {
        continue;
      }
      return fail("unexpected preamble line " + std::to_string(line_number));
    }
    if (section == "schema") {
      schema_text += line + "\n";
    } else if (section == "facts") {
      facts_text += line + "\n";
    } else if (section == "queries") {
      if (line == "---") {
        flush_query();
      } else {
        current_query += line + "\n";
      }
    } else if (section == "deltas") {
      // `@IDX +R(1, 2).` or `@IDX -R(1, 2).` — the fact reuses the
      // [facts] grammar, signed and pinned to a request index.
      auto bad = [&]() {
        return fail("malformed [deltas] line " + std::to_string(line_number) +
                    ": " + line);
      };
      if (line.front() != '@') return bad();
      const std::size_t space = line.find(' ');
      if (space == std::string::npos || space < 2) return bad();
      WorkloadDeltaEvent event;
      if (!ParseU64(line.substr(1, space - 1), &event.at_request)) return bad();
      std::string rest = line.substr(space + 1);
      while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
      std::string fact_error;
      std::optional<SignedFact> fact = ParseSignedFact(rest, &fact_error);
      if (!fact) {
        return fail("malformed [deltas] fact at line " +
                    std::to_string(line_number) + ": " + fact_error);
      }
      event.insert = fact->insert;
      event.relation = std::move(fact->relation);
      event.tuple = std::move(fact->tuple);
      spec.deltas.push_back(std::move(event));
    } else {
      const std::vector<std::string> fields = SplitFields(line);
      auto bad = [&]() {
        return fail("malformed [" + section + "] line " +
                    std::to_string(line_number) + ": " + line);
      };
      if (fields.size() < 2) return bad();
      const std::string& key = fields[0];
      if (section == "faults") {
        FaultPlan& f = spec.faults;
        bool ok = false;
        if (fields.size() == 2) {
          if (key == "failure_probability") {
            ok = ParseDouble(fields[1], &f.failure_probability);
          } else if (key == "seed") {
            ok = ParseU64(fields[1], &f.seed);
          } else if (key == "fail_first_calls") {
            ok = ParseU64(fields[1], &f.fail_first_calls);
          } else if (key == "fail_first_per_key") {
            ok = ParseU64(fields[1], &f.fail_first_per_key);
          } else if (key == "latency_micros") {
            ok = ParseU64(fields[1], &f.latency_micros);
          } else if (key == "latency_jitter_micros") {
            ok = ParseU64(fields[1], &f.latency_jitter_micros);
          } else if (key == "spike_period_micros") {
            ok = ParseU64(fields[1], &f.spike_period_micros);
          } else if (key == "spike_duration_micros") {
            ok = ParseU64(fields[1], &f.spike_duration_micros);
          } else if (key == "spike_extra_micros") {
            ok = ParseU64(fields[1], &f.spike_extra_micros);
          }
        } else if (fields.size() == 3) {
          if (key == "relation_latency_micros") {
            std::uint64_t micros = 0;
            ok = ParseU64(fields[2], &micros);
            if (ok) f.relation_latency_micros[fields[1]] = micros;
          } else if (key == "relation_failure_probability") {
            double prob = 0.0;
            ok = ParseDouble(fields[2], &prob);
            if (ok) f.relation_failure_probability[fields[1]] = prob;
          }
        }
        if (!ok) return bad();
      } else {  // replay
        ReplayPlan& r = spec.replay;
        bool ok = false;
        if (fields.size() == 2) {
          if (key == "requests") {
            ok = ParseU64(fields[1], &r.requests);
          } else if (key == "zipf_s") {
            ok = ParseDouble(fields[1], &r.zipf_s);
          } else if (key == "seed") {
            ok = ParseU64(fields[1], &r.seed);
          } else if (key == "tenants") {
            std::uint64_t tenants = 0;
            ok = ParseU64(fields[1], &tenants) && tenants >= 1;
            if (ok) r.tenants = static_cast<int>(tenants);
          }
        }
        if (!ok) return bad();
      }
    }
  }
  if (section == "queries") flush_query();

  std::string sub_error;
  std::optional<Catalog> catalog = Catalog::Parse(schema_text, &sub_error);
  if (!catalog) return fail("schema section: " + sub_error);
  spec.catalog = std::move(*catalog);
  std::optional<Database> database =
      Database::ParseFacts(facts_text, &sub_error);
  if (!database) return fail("facts section: " + sub_error);
  spec.database = std::move(*database);
  if (spec.queries.empty()) return fail("workload declares no queries");
  return spec;
}

std::vector<ReplayRequest> BuildRequestSequence(const WorkloadSpec& spec,
                                                std::uint64_t max_requests) {
  std::uint64_t n = spec.replay.requests;
  if (max_requests > 0) n = max_requests;
  std::vector<ReplayRequest> sequence;
  sequence.reserve(n);
  std::mt19937_64 rng(spec.replay.seed);
  ZipfSampler zipf(spec.queries.size(), spec.replay.zipf_s);
  const int tenants = std::max(spec.replay.tenants, 1);
  for (std::uint64_t r = 0; r < n; ++r) {
    ReplayRequest request;
    request.query_index = zipf.Sample(&rng);
    request.tenant = static_cast<int>(r % static_cast<std::uint64_t>(tenants));
    sequence.push_back(request);
  }
  return sequence;
}

}  // namespace ucqn
