// ucqn_workload — generate and replay workload-scale scenarios.
//
// Two modes (docs/WORKLOADS.md is the guide):
//
//   --generate --out FILE     emit a seeded workload file: an adversarial
//                             random schema (probe-only chain links,
//                             enumerable negation domains, decoy
//                             relations), its instance, a fault plan
//                             (slow/flaky services, correlated spikes),
//                             a Zipf replay plan, and the distinct UCQ¬
//                             templates. Same seed, same bytes.
//
//   --replay FILE             stream the replay plan's request sequence
//                             through a QueryDaemon. In-process by
//                             default: the daemon runs in this process
//                             behind a fault-injecting source on a
//                             SimulatedClock, and the report carries
//                             simulated p50/p95/p99 latencies, windowed
//                             cache-hit curves, and shed/quota counts.
//                             With --via-daemon UCQND the same replay
//                             loop sends each request as a protocol line
//                             through a child `ucqnd --stdio` configured
//                             with the same daemon flags — the wire path,
//                             whose report lacks only the simulated-time
//                             fields.
//
// Run `ucqn_workload --help` for the flag reference.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flag_parse.h"
#include "gen/workload.h"
#include "gen/workload_replay.h"
#include "server/protocol.h"

namespace {

constexpr char kUsage[] =
    "usage: ucqn_workload --generate --out FILE [generator flags]\n"
    "       ucqn_workload --replay FILE [replay flags]\n"
    "\n"
    "generator (see docs/WORKLOADS.md for the emitted format):\n"
    "  --out FILE           where to write the workload file (required)\n"
    "  --seed N             generator seed; same seed, same bytes\n"
    "  --chain-length N     probe-chained relations C0..C{N-1}\n"
    "  --enumerable N       unary all-output relations E0.. for negation\n"
    "  --decoys N           untouched noise relations D0..\n"
    "  --domain-size N      constants are 0..N-1\n"
    "  --tuples N           tuples drawn per chain relation\n"
    "  --queries N          distinct query templates\n"
    "  --max-literals N     longest chain walk per disjunct\n"
    "  --negation-prob F    chance of a `not E(x)` guard per disjunct\n"
    "  --constant-prob F    chance a C0 walk enters by constant probe\n"
    "  --union-prob F       chance a template is a 2-disjunct union\n"
    "  --zipf-s F           skew of the constants drawn into probes\n"
    "  --latency-us N       injected per-call latency\n"
    "  --latency-jitter-us N\n"
    "                       seeded U[0,N] on top of the base latency\n"
    "  --failure-prob F     per-call failure probability (all relations)\n"
    "  --slow-relations N   last N chain links get 10x latency\n"
    "  --flaky-relations N  first N enumerable relations get --flaky-prob\n"
    "  --flaky-prob F       failure probability of the flaky relations\n"
    "  --spike-period-us N  correlated latency spike window period\n"
    "  --spike-duration-us N\n"
    "                       spike length at the start of each period\n"
    "  --spike-extra-us N   latency every call pays inside a spike\n"
    "  --update-rate F      chance a request index carries an update batch\n"
    "                       (emits a [deltas] stream; makes the file v2)\n"
    "  --requests N         replay plan: requests to stream\n"
    "  --tenants N          replay plan: tenants t0..t{N-1}, round-robin\n"
    "  --replay-seed N      replay plan: request-sequence seed\n"
    "  --replay-zipf-s F    replay plan: template-popularity skew\n"
    "\n"
    "replay (in-process daemon on a simulated clock unless --via-daemon):\n"
    "  --no-faults          run the raw backend: no injected latency,\n"
    "                       failures, or spikes (implied by --via-daemon)\n"
    "  --threads N          concurrent client threads (1 = serial; only\n"
    "                       serial replays report sim percentiles; the\n"
    "                       wire is lockstep, so --via-daemon needs 1)\n"
    "  --windows N          slices of the cache-hit curve (default 10)\n"
    "  --max-requests N     cap/override the plan's request count\n"
    "  --report-json FILE   write the full replay report as JSON\n"
    "  --expect-all-ok      exit nonzero unless every request came back ok\n"
    "\n"
    "replay via the wire (daemon stdio path):\n"
    "  --via-daemon UCQND   spawn `UCQND --stdio` with the daemon flags below\n"
    "                       and send each request through it as a protocol\n"
    "                       line instead of running in-process\n"
    "  --workdir DIR        where --via-daemon writes its schema/facts\n"
    "                       files (default .)\n"
    "\n"
    "  --help               print this text and exit\n"
    "\n"
    "daemon configuration (shared with ucqnd; defaults here: the adaptive\n"
    "model, --retry 3):\n";

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "%s%s%s", kUsage, ucqn::kRuntimeFlagHelp,
               ucqn::kAdmissionFlagHelp);
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

std::optional<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The wire transport: spawns `ucqnd --stdio` over the workload's schema
// and facts with `replay.daemon`'s flags, then runs the replay loop with a
// submit function that writes one request line and reads one response
// line. The daemon answers strictly in order, so lockstep cannot deadlock
// on pipe buffers however large the stream. A broken pipe or a malformed
// response line fails the report; every later request is answered with
// that error without touching the pipe.
ucqn::WorkloadReplayReport ReplayViaDaemon(
    const ucqn::WorkloadSpec& spec, const ucqn::WorkloadReplayOptions& replay,
    const char* ucqnd_path, const std::string& workdir) {
  ucqn::WorkloadReplayReport failed;
  const std::string schema_path = workdir + "/workload_schema.txt";
  const std::string facts_path = workdir + "/workload_facts.txt";
  if (!WriteFile(schema_path, spec.catalog.ToString()) ||
      !WriteFile(facts_path, spec.database.ToString())) {
    failed.error = "cannot write " + schema_path + " / " + facts_path;
    return failed;
  }
  std::vector<std::string> args = {ucqnd_path, "--stdio",   "--schema",
                                   schema_path, "--facts", facts_path};
  for (std::string& flag : ucqn::DaemonFlagArgs(replay.daemon)) {
    args.push_back(std::move(flag));
  }

  int to_child[2];    // parent writes requests
  int from_child[2];  // parent reads responses
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    failed.error = std::string("pipe: ") + std::strerror(errno);
    return failed;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    failed.error = std::string("fork: ") + std::strerror(errno);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      close(fd);
    }
    return failed;
  }
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(ucqnd_path, argv.data());
    std::perror("execv");
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  // A daemon that dies mid-replay must fail the write, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  FILE* to = fdopen(to_child[1], "w");
  FILE* from = fdopen(from_child[0], "r");

  char* line = nullptr;
  std::size_t line_capacity = 0;
  std::string transport_error;
  auto submit = [&](const ucqn::ServiceRequest& request) {
    ucqn::ServiceResponse response;
    response.status = ucqn::ServiceResponse::Status::kError;
    if (transport_error.empty()) {
      if (std::fprintf(to, "%s\n", request.ToJsonLine().c_str()) < 0 ||
          std::fflush(to) != 0 || getline(&line, &line_capacity, from) < 0) {
        transport_error = "daemon closed the pipe";
      } else {
        std::string error;
        std::optional<ucqn::ServiceResponse> parsed =
            ucqn::ParseServiceResponse(line, &error);
        if (parsed) return *parsed;
        transport_error = "bad response line: " + error;
      }
    }
    response.error = transport_error;
    return response;
  };
  ucqn::WorkloadReplayReport report =
      ucqn::ReplayWorkload(spec, replay, submit);
  free(line);
  fclose(to);  // EOF drains the daemon
  fclose(from);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status)) {
    report.ok = false;
    report.error =
        "ucqnd was killed by signal " + std::to_string(WTERMSIG(status));
  } else if (WEXITSTATUS(status) != 0) {
    report.ok = false;
    report.error =
        "ucqnd exited with status " + std::to_string(WEXITSTATUS(status));
  } else if (!transport_error.empty()) {
    report.ok = false;
    report.error = transport_error;
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucqn;
  bool generate = false;
  const char* out_path = nullptr;
  const char* replay_path = nullptr;
  const char* via_daemon = nullptr;
  const char* report_json_path = nullptr;
  std::string workdir = ".";
  bool expect_all_ok = false;
  WorkloadGenOptions gen;
  WorkloadReplayOptions replay;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char*& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    // Strict numerics: the whole token must parse and be in range, or the
    // flag is named in a one-line diagnostic. The daemon flags go through
    // ParseDaemonFlag (flag_parse.h), shared with ucqnd.
    auto next_u64 = [&](std::uint64_t& slot) {
      const char* flag = argv[i];
      const char* text = nullptr;
      if (!next(text)) {
        std::fprintf(stderr, "%s expects an integer value\n", flag);
        return false;
      }
      char* end = nullptr;
      errno = 0;
      const unsigned long long value = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE ||
          (text[0] == '-')) {
        std::fprintf(stderr, "%s expects a non-negative integer, got \"%s\"\n",
                     flag, text);
        return false;
      }
      slot = static_cast<std::uint64_t>(value);
      return true;
    };
    auto next_int = [&](int& slot, int lo) {
      std::uint64_t value = 0;
      const char* flag = argv[i];
      if (!next_u64(value) || value > INT_MAX ||
          static_cast<int>(value) < lo) {
        std::fprintf(stderr, "%s expects an integer >= %d\n", flag, lo);
        return false;
      }
      slot = static_cast<int>(value);
      return true;
    };
    auto next_double = [&](double& slot) {
      const char* flag = argv[i];
      const char* text = nullptr;
      if (!next(text)) {
        std::fprintf(stderr, "%s expects a number\n", flag);
        return false;
      }
      char* end = nullptr;
      errno = 0;
      const double value = std::strtod(text, &end);
      if (end == text || *end != '\0' || errno == ERANGE ||
          !std::isfinite(value) || value < 0.0) {
        std::fprintf(stderr, "%s expects a non-negative number, got \"%s\"\n",
                     flag, text);
        return false;
      }
      slot = value;
      return true;
    };
    const FlagMatch daemon_flag =
        ParseDaemonFlag(argc, argv, &i, &replay.daemon);
    if (daemon_flag == FlagMatch::kBad) return Usage();
    if (daemon_flag == FlagMatch::kParsed) continue;
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--generate") == 0) {
      generate = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (!next(out_path)) return Usage();
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      if (!next(replay_path)) return Usage();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!next_u64(gen.seed)) return Usage();
    } else if (std::strcmp(argv[i], "--chain-length") == 0) {
      if (!next_int(gen.chain_length, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--enumerable") == 0) {
      if (!next_int(gen.enumerable_relations, 0)) return Usage();
    } else if (std::strcmp(argv[i], "--decoys") == 0) {
      if (!next_int(gen.decoy_relations, 0)) return Usage();
    } else if (std::strcmp(argv[i], "--domain-size") == 0) {
      if (!next_int(gen.domain_size, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      if (!next_int(gen.tuples_per_relation, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      if (!next_int(gen.num_queries, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--max-literals") == 0) {
      if (!next_int(gen.max_literals, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--negation-prob") == 0) {
      if (!next_double(gen.negation_prob)) return Usage();
    } else if (std::strcmp(argv[i], "--constant-prob") == 0) {
      if (!next_double(gen.constant_prob)) return Usage();
    } else if (std::strcmp(argv[i], "--union-prob") == 0) {
      if (!next_double(gen.union_prob)) return Usage();
    } else if (std::strcmp(argv[i], "--zipf-s") == 0) {
      if (!next_double(gen.zipf_s)) return Usage();
    } else if (std::strcmp(argv[i], "--update-rate") == 0) {
      if (!next_double(gen.update_rate)) return Usage();
    } else if (std::strcmp(argv[i], "--latency-us") == 0) {
      if (!next_u64(gen.latency_micros)) return Usage();
    } else if (std::strcmp(argv[i], "--latency-jitter-us") == 0) {
      if (!next_u64(gen.latency_jitter_micros)) return Usage();
    } else if (std::strcmp(argv[i], "--failure-prob") == 0) {
      if (!next_double(gen.failure_probability)) return Usage();
    } else if (std::strcmp(argv[i], "--slow-relations") == 0) {
      if (!next_int(gen.slow_relations, 0)) return Usage();
    } else if (std::strcmp(argv[i], "--flaky-relations") == 0) {
      if (!next_int(gen.flaky_relations, 0)) return Usage();
    } else if (std::strcmp(argv[i], "--flaky-prob") == 0) {
      if (!next_double(gen.flaky_failure_probability)) return Usage();
    } else if (std::strcmp(argv[i], "--spike-period-us") == 0) {
      if (!next_u64(gen.spike_period_micros)) return Usage();
    } else if (std::strcmp(argv[i], "--spike-duration-us") == 0) {
      if (!next_u64(gen.spike_duration_micros)) return Usage();
    } else if (std::strcmp(argv[i], "--spike-extra-us") == 0) {
      if (!next_u64(gen.spike_extra_micros)) return Usage();
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      if (!next_u64(gen.replay.requests)) return Usage();
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      if (!next_int(gen.replay.tenants, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--replay-seed") == 0) {
      if (!next_u64(gen.replay.seed)) return Usage();
    } else if (std::strcmp(argv[i], "--replay-zipf-s") == 0) {
      if (!next_double(gen.replay.zipf_s)) return Usage();
    } else if (std::strcmp(argv[i], "--no-faults") == 0) {
      replay.inject_faults = false;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!next_int(replay.threads, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--windows") == 0) {
      if (!next_int(replay.windows, 1)) return Usage();
    } else if (std::strcmp(argv[i], "--max-requests") == 0) {
      if (!next_u64(replay.max_requests)) return Usage();
    } else if (std::strcmp(argv[i], "--report-json") == 0) {
      if (!next(report_json_path)) return Usage();
    } else if (std::strcmp(argv[i], "--expect-all-ok") == 0) {
      expect_all_ok = true;
    } else if (std::strcmp(argv[i], "--via-daemon") == 0) {
      if (!next(via_daemon)) return Usage();
    } else if (std::strcmp(argv[i], "--workdir") == 0) {
      const char* dir = nullptr;
      if (!next(dir)) return Usage();
      workdir = dir;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage();
    }
  }

  if (via_daemon != nullptr && replay.threads > 1) {
    std::fprintf(stderr,
                 "--via-daemon replays in lockstep over one pipe; "
                 "--threads must be 1\n");
    return Usage();
  }
  if (generate == (replay_path != nullptr)) {
    std::fprintf(stderr, "pick exactly one mode: --generate or --replay\n");
    return Usage();
  }

  if (generate) {
    if (out_path == nullptr) {
      std::fprintf(stderr, "--generate requires --out FILE\n");
      return Usage();
    }
    const WorkloadSpec spec = GenerateWorkload(gen);
    if (!WriteFile(out_path, SerializeWorkload(spec))) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    std::printf(
        "wrote %s: %zu relations, %zu query templates, %llu-request plan, "
        "%zu delta events\n",
        out_path, spec.catalog.Relations().size(), spec.queries.size(),
        static_cast<unsigned long long>(spec.replay.requests),
        spec.deltas.size());
    return 0;
  }

  std::optional<std::string> text = ReadFile(replay_path);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", replay_path);
    return 1;
  }
  std::string error;
  std::optional<WorkloadSpec> spec = ParseWorkload(*text, &error);
  if (!spec) {
    std::fprintf(stderr, "workload error in %s: %s\n", replay_path,
                 error.c_str());
    return 1;
  }

  const WorkloadReplayReport report =
      via_daemon != nullptr
          ? ReplayViaDaemon(*spec, replay, via_daemon, workdir)
          : ReplayWorkload(*spec, replay);
  if (!report.ok) {
    std::fprintf(stderr, "replay failed: %s\n", report.error.c_str());
    return 1;
  }
  const bool adaptive = replay.daemon.adaptive_cost_model;
  std::printf(
      "replayed %llu requests (%s model%s, %s): %llu ok, %llu error, "
      "%llu shed, %llu quota\n",
      static_cast<unsigned long long>(report.requests),
      adaptive ? "adaptive" : "static",
      adaptive ? (replay.daemon.fanout_feedback ? ", fanout feedback"
                                                : ", no feedback")
               : "",
      via_daemon != nullptr ? "via ucqnd" : "in-process",
      static_cast<unsigned long long>(report.ok_count),
      static_cast<unsigned long long>(report.error_count),
      static_cast<unsigned long long>(report.shed_count),
      static_cast<unsigned long long>(report.quota_count));
  if (via_daemon == nullptr) {
    std::printf("sim wall %llu us, p50/p95/p99 %llu/%llu/%llu us, ",
                static_cast<unsigned long long>(report.sim_wall_micros),
                static_cast<unsigned long long>(report.p50_micros),
                static_cast<unsigned long long>(report.p95_micros),
                static_cast<unsigned long long>(report.p99_micros));
  }
  std::printf("%.0f req/s real\n", report.throughput_per_second);
  std::printf("physical calls %llu, cache %llu hit / %llu miss\n",
              static_cast<unsigned long long>(report.physical_calls),
              static_cast<unsigned long long>(report.cache_hits),
              static_cast<unsigned long long>(report.cache_misses));
  if (report.deltas_applied > 0 || report.delta_error_count > 0) {
    std::printf("delta batches %llu applied, %llu failed\n",
                static_cast<unsigned long long>(report.deltas_applied),
                static_cast<unsigned long long>(report.delta_error_count));
  }
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    std::printf("  window %zu: %llu requests, hit rate %.3f\n", w,
                static_cast<unsigned long long>(report.windows[w].requests),
                report.windows[w].hit_rate);
  }
  if (report_json_path != nullptr) {
    if (!WriteFile(report_json_path, report.ToJson() + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", report_json_path);
      return 1;
    }
  }
  if (expect_all_ok && report.ok_count != report.requests) {
    std::fprintf(stderr, "--expect-all-ok: not every request came back ok\n");
    return 1;
  }
  return 0;
}
