#ifndef UCQN_TOOLS_FLAG_PARSE_H_
#define UCQN_TOOLS_FLAG_PARSE_H_

#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/daemon.h"

namespace ucqn {

// The strict count parser ucqnc, ucqnd and ucqn_workload share: the
// token after argv[*i] (the flag) must be a decimal integer in [1, max].
// Garbage ("banana"), trailing junk ("10x"), zero or negative values,
// overflow, and a missing value each print a one-line diagnostic naming
// the flag and return false. On success stores the value and advances *i
// past it.
inline bool NextCount(int argc, char** argv, int* i, std::size_t* slot,
                      long long max = LLONG_MAX - 1) {
  const char* flag = argv[*i];
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s expects a positive integer value\n", flag);
    return false;
  }
  const char* text = argv[++*i];
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value <= 0 ||
      value > max) {
    std::fprintf(stderr, "%s expects a positive integer, got \"%s\"\n", flag,
                 text);
    return false;
  }
  *slot = static_cast<std::size_t>(value);
  return true;
}

// Largest count a millisecond flag takes: the daemon stores it in
// microseconds, and the conversion must not wrap.
constexpr long long kMaxMillis = LLONG_MAX / 1000;

// The runtime flags ucqnc, ucqnd and ucqn_workload all accept, one parser
// and one help block for the three: each fills a QueryDaemon::Options
// field. Each tool keeps its own defaults (ucqnc and ucqnd: static model,
// no retry; ucqn_workload: WorkloadReplayOptions's adaptive model, 3
// attempts).
constexpr char kRuntimeFlagHelp[] =
    "  --cost-model static|adaptive\n"
    "                       plan from heuristics or from the observed stats\n"
    "                       the sessions accumulate\n"
    "  --no-fanout-feedback with the adaptive model, keep pricing unknown\n"
    "                       relations at the fallback cardinality instead of\n"
    "                       their observed result fanouts (A/B baseline; see\n"
    "                       docs/WORKLOADS.md)\n"
    "  --retry N            retry transient source failures up to N attempts\n"
    "  --parallelism N      overlap each batched wave on N worker threads\n"
    "  --pipeline-depth N   keep up to N literals' waves in flight at once\n"
    "  --disjunct-concurrency N\n"
    "                       overlap up to N disjunct chains' waves per\n"
    "                       round (operator DAG; 1 = sequential disjuncts)\n"
    "  --cache-ttl-ms N     expire shared-cache entries N ms after insert\n"
    "  --cache-budget N     bound the shared cache to N resident bytes\n"
    "                       (exact entry+tuple footprint), LRU eviction\n";

// The admission flags of the two tools that run a daemon, ucqnd and
// ucqn_workload; their help prints kRuntimeFlagHelp, then this.
constexpr char kAdmissionFlagHelp[] =
    "  --max-in-flight N    sessions running concurrently; arrivals past\n"
    "                       this wait (default: unbounded)\n"
    "  --max-queued N       arrivals allowed to wait for a slot; the rest\n"
    "                       are shed with status \"shed\" (default: 0)\n"
    "  --tenant-max-concurrent N\n"
    "                       per-tenant concurrent-session cap; over-quota\n"
    "                       requests get status \"quota\"\n";

// The flags that set one std::size_t field straight from a count.
struct DaemonCountFlag {
  const char* name;
  std::size_t* (*field)(QueryDaemon::Options*);
};
inline constexpr DaemonCountFlag kRuntimeCountFlags[] = {
    {"--parallelism",
     [](QueryDaemon::Options* o) { return &o->runtime.parallelism; }},
    {"--pipeline-depth",
     [](QueryDaemon::Options* o) { return &o->runtime.pipeline_depth; }},
    {"--disjunct-concurrency",
     [](QueryDaemon::Options* o) { return &o->disjunct_concurrency; }},
    {"--cache-budget",
     [](QueryDaemon::Options* o) { return &o->cache.budget_bytes; }},
};
inline constexpr DaemonCountFlag kAdmissionCountFlags[] = {
    {"--max-in-flight",
     [](QueryDaemon::Options* o) { return &o->admission.max_in_flight; }},
    {"--max-queued",
     [](QueryDaemon::Options* o) { return &o->admission.max_queued; }},
    {"--tenant-max-concurrent",
     [](QueryDaemon::Options* o) { return &o->default_quota.max_concurrent; }},
};

enum class FlagMatch { kNotMine, kParsed, kBad };

// Offers argv[*i] to one table of count flags.
template <std::size_t N>
FlagMatch ParseCountFlag(const DaemonCountFlag (&flags)[N], int argc,
                         char** argv, int* i, QueryDaemon::Options* options) {
  for (const DaemonCountFlag& count : flags) {
    if (std::strcmp(argv[*i], count.name) == 0) {
      return NextCount(argc, argv, i, count.field(options))
                 ? FlagMatch::kParsed
                 : FlagMatch::kBad;
    }
  }
  return FlagMatch::kNotMine;
}

// Offers argv[*i] to the runtime-flag parser: kNotMine leaves *i alone for
// the tool's own flags; kParsed stores the value and advances *i past it;
// kBad has printed a one-line diagnostic naming the flag.
inline FlagMatch ParseRuntimeFlag(int argc, char** argv, int* i,
                                  QueryDaemon::Options* options) {
  const FlagMatch count =
      ParseCountFlag(kRuntimeCountFlags, argc, argv, i, options);
  if (count != FlagMatch::kNotMine) return count;
  const char* flag = argv[*i];
  if (std::strcmp(flag, "--cost-model") == 0) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "--cost-model expects static or adaptive\n");
      return FlagMatch::kBad;
    }
    const char* name = argv[++*i];
    if (std::strcmp(name, "static") != 0 &&
        std::strcmp(name, "adaptive") != 0) {
      std::fprintf(stderr,
                   "--cost-model expects static or adaptive, got \"%s\"\n",
                   name);
      return FlagMatch::kBad;
    }
    options->adaptive_cost_model = std::strcmp(name, "adaptive") == 0;
    return FlagMatch::kParsed;
  }
  if (std::strcmp(flag, "--no-fanout-feedback") == 0) {
    options->fanout_feedback = false;
    return FlagMatch::kParsed;
  }
  if (std::strcmp(flag, "--retry") == 0) {
    std::size_t attempts = 0;
    if (!NextCount(argc, argv, i, &attempts, INT_MAX)) return FlagMatch::kBad;
    options->runtime.retry = true;
    options->runtime.retry_policy.max_attempts = static_cast<int>(attempts);
    return FlagMatch::kParsed;
  }
  if (std::strcmp(flag, "--cache-ttl-ms") == 0) {
    std::size_t ms = 0;
    if (!NextCount(argc, argv, i, &ms, kMaxMillis)) return FlagMatch::kBad;
    options->cache.default_ttl_micros = static_cast<std::uint64_t>(ms) * 1000;
    return FlagMatch::kParsed;
  }
  return FlagMatch::kNotMine;
}

// ParseRuntimeFlag plus the admission counts: the daemon flags ucqnd and
// ucqn_workload share.
inline FlagMatch ParseDaemonFlag(int argc, char** argv, int* i,
                                 QueryDaemon::Options* options) {
  const FlagMatch runtime = ParseRuntimeFlag(argc, argv, i, options);
  if (runtime != FlagMatch::kNotMine) return runtime;
  return ParseCountFlag(kAdmissionCountFlags, argc, argv, i, options);
}

// The inverse of ParseDaemonFlag: the daemon-flag tokens that configure a
// ucqnd like `options`, defaults included (--cost-model always; a count
// only when set, since 0 — unbounded, off — is each one's default).
inline std::vector<std::string> DaemonFlagArgs(QueryDaemon::Options options) {
  std::vector<std::string> args = {
      "--cost-model", options.adaptive_cost_model ? "adaptive" : "static"};
  if (!options.fanout_feedback) args.push_back("--no-fanout-feedback");
  if (options.runtime.retry) {
    args.push_back("--retry");
    args.push_back(std::to_string(options.runtime.retry_policy.max_attempts));
  }
  if (options.cache.default_ttl_micros != 0) {
    args.push_back("--cache-ttl-ms");
    args.push_back(std::to_string(options.cache.default_ttl_micros / 1000));
  }
  const auto add_counts = [&](const auto& table) {
    for (const DaemonCountFlag& count : table) {
      const std::size_t value = *count.field(&options);
      if (value == 0) continue;
      args.push_back(count.name);
      args.push_back(std::to_string(value));
    }
  };
  add_counts(kRuntimeCountFlags);
  add_counts(kAdmissionCountFlags);
  return args;
}

}  // namespace ucqn

#endif  // UCQN_TOOLS_FLAG_PARSE_H_
