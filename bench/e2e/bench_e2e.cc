// bench_e2e — the end-to-end benchmark of the ucqnd query path.
//
// Replays named workloads through an in-process QueryDaemon, sending
// protocol lines through QueryDaemon::SubmitLine (the path `ucqnd --stdio`
// serves) from closed-loop clients, and reports real-time throughput and
// latency, simulated service latency, physical calls, failures, set-up
// time and peak memory. Every answer is checked against the reference
// ANSWER*. With --trace the same requests are replayed a second time
// through a bench-side mirror of the daemon's session code that times
// each layer, giving per-layer self times and counts; see README.md.
//
//   bench_e2e                         all workloads, each in its own process
//   bench_e2e --workload NAME         one workload in this process
//   bench_e2e --trace ...             per-layer run (checks the mirror)
//
// Flags: --seed N, --seconds S (measured phase, default 10), --out FILE
// (results JSON), --trace-dir DIR (Chrome traces, default .), --scale F
// (shrinks warm-up, phase and templates; for the smoke test).
//
// The last line of a single-workload run is one JSON object
// {"correct", "attempted", "failed", "metrics"} for benchmark drivers.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "replay.h"
#include "report.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace ucqn::e2e {
namespace {

// Set-up runs this many times per workload; set-up time is their median.
constexpr int kSetupRepeats = 3;
// Requests kept in the Chrome trace.
constexpr std::size_t kTracedSlowest = 100;

constexpr char kUsage[] =
    "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace]\n"
    "                 [--out FILE] [--trace-dir DIR] [--scale F]\n"
    "workloads: zipf_repeat zipf_repeat_3c feasibility_mix wide_frontier\n"
    "           update_stream (all of them, one process each, by default)\n";

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_dir = ".";
  double scale = 1.0;
};

struct WorkloadRun {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  JsonValue json = JsonValue::Object();
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    const auto number = [&](double* out) {
      if (!has_value) return false;
      char* end = nullptr;
      errno = 0;
      const double value = std::strtod(argv[++i], &end);
      if (errno != 0 || end == argv[i] || *end != '\0' ||
          !std::isfinite(value) || value <= 0.0) {
        return false;
      }
      *out = value;
      return true;
    };
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
      if (FindWorkload(args->workload) == nullptr) {
        std::fprintf(stderr, "bench_e2e: unknown workload \"%s\"\n",
                     args->workload.c_str());
        return false;
      }
    } else if (flag == "--seed" && has_value) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long seed = std::strtoull(argv[++i], &end, 10);
      if (errno != 0 || end == argv[i] || *end != '\0' || argv[i][0] == '-') {
        return false;
      }
      args->seed = seed;
    } else if (flag == "--seconds") {
      // The request stream is sized from the phase length; ten minutes is
      // far past any useful run and keeps that allocation bounded.
      if (!number(&args->seconds) || args->seconds > 600.0) return false;
    } else if (flag == "--scale") {
      if (!number(&args->scale) || args->scale > 1.0) return false;
    } else if (flag == "--trace") {
      // Bare --trace, or --trace 0|1 as drivers pass it.
      args->trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        args->trace = argv[++i][0] == '1';
      }
    } else if (flag == "--out" && has_value) {
      args->out = argv[++i];
    } else if (flag == "--trace-dir" && has_value) {
      args->trace_dir = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fputs(text.c_str(), file) >= 0;
  return std::fclose(file) == 0 && ok;
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintMetric(const std::string& workload, const Metric& metric) {
  std::printf("%-16s %-40s %16.4f %-6s n=%" PRIu64, workload.c_str(),
              metric.name.c_str(), metric.value, metric.unit.c_str(),
              metric.samples);
  if (metric.windows > 0) std::printf(" windows=%zu", metric.windows);
  std::printf("\n");
}

// The end-to-end metrics the run could not measure, printed so every
// workload shows all of them.
void PrintUnmeasured(const std::string& workload,
                     const std::vector<Metric>& metrics) {
  for (const char* name :
       {"write_latency_p50_us", "write_latency_p99_us", "sim_latency_p50_us",
        "sim_latency_p99_us"}) {
    bool present = false;
    for (const Metric& metric : metrics) present |= metric.name == name;
    if (!present) {
      std::printf("%-16s %-40s %16s %-6s n=0\n", workload.c_str(), name,
                  "n/a", "us");
    }
  }
}

// Set-up: parse the workload text, build the daemon and register the
// standing queries, then replay the warm-up prefix.
std::unique_ptr<Deployment> SetUp(const WorkloadConfig& config,
                                  const std::string& text,
                                  std::uint64_t warmup,
                                  const Deployment::BackendWrapper& wrap,
                                  std::string* error) {
  std::unique_ptr<Deployment> deployment =
      Deployment::Create(config, text, warmup, wrap, error);
  if (deployment == nullptr) return nullptr;
  PhaseOptions options;
  options.limit = warmup;
  const Submitter submit = [&](const std::string& line) {
    return deployment->daemon().SubmitLine(line);
  };
  options.submit_query = submit;
  options.submit_write = submit;
  const PhaseResult result = RunPhase(*deployment, options);
  for (const RequestRecord& record : result.requests()) {
    if (record.status != ServiceResponse::Status::kOk) {
      *error = "warm-up request " + std::to_string(record.index) + " failed";
      return nullptr;
    }
  }
  return deployment;
}

PhaseOptions DaemonPhase(Deployment* deployment, const WorkloadConfig& config,
                         std::uint64_t first) {
  PhaseOptions options;
  options.first = first;
  options.clients = config.clients;
  const Submitter submit = [deployment](const std::string& line) {
    return deployment->daemon().SubmitLine(line);
  };
  options.submit_query = submit;
  options.submit_write = submit;
  return options;
}

// Share of measured requests whose template already ran earlier in the
// stream (warm-up included): the work plan or result reuse could skip.
double TemplateRepeatShare(const Deployment& deployment,
                           const PhaseResult& phase) {
  if (phase.count == 0) return 0.0;
  std::set<std::size_t> seen;
  for (std::uint64_t r = 0; r < phase.requests().front().index; ++r) {
    seen.insert(deployment.template_of(r));
  }
  std::uint64_t repeats = 0;
  for (const RequestRecord& record : phase.requests()) {
    if (!seen.insert(deployment.template_of(record.index)).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(phase.count);
}

// Runs one workload and prints its metrics. Returns nullopt (after
// printing why) when set-up fails or the traced mirror diverges.
std::optional<WorkloadRun> RunWorkload(const WorkloadConfig& config,
                                       const Args& args) {
  const std::uint64_t seed = args.seed.value_or(config.data_seed);
  const WorkloadInputs inputs =
      GenerateInputs(config, seed, args.seconds * args.scale, args.scale);
  const auto warmup = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(config.warmup_requests) * args.scale));
  const double seconds = args.seconds * args.scale;
  std::string error;

  WorkloadRun run;
  run.json.Set("workload", JsonValue::String(config.name));
  run.json.Set("seed", JsonValue::Number(static_cast<double>(seed)));
  run.json.Set("clients", JsonValue::Number(config.clients));
  run.json.Set("seconds", JsonValue::Number(seconds));
  run.json.Set("templates",
               JsonValue::Number(static_cast<double>(inputs.templates)));

  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_seconds;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    deployment.reset();
    const auto start = std::chrono::steady_clock::now();
    deployment = SetUp(config, inputs.text, warmup, nullptr, &error);
    if (deployment == nullptr) {
      std::fprintf(stderr, "bench_e2e: %s set-up failed: %s\n",
                   config.name.c_str(), error.c_str());
      return std::nullopt;
    }
    setup_seconds.push_back(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  }

  // The untraced phase. A traced run spends half its time here and the
  // other half replaying the same requests through the mirror.
  PhaseOptions options = DaemonPhase(deployment.get(), config, warmup);
  options.seconds = args.trace ? seconds / 2 : seconds;
  const PhaseResult phase = RunPhase(*deployment, options);
  // The phase's own request log grows with the requests it measured; it
  // is left out, so the metric is the daemon's footprint and not the
  // run's speed.
  const double peak_rss_mb =
      PeakRssMb() - static_cast<double>(phase.count * sizeof(RequestRecord)) /
                        (1024.0 * 1024.0);

  Verdict verdict = VerifyRequests(*deployment, phase.requests());
  if (!deployment->standing_ids().empty()) {
    const Verdict standing = VerifyStanding(*deployment, phase.end_index);
    verdict.checked += standing.checked;
    verdict.wrong += standing.wrong;
    if (verdict.first_error.empty()) verdict.first_error = standing.first_error;
  }
  run.attempted = phase.count + phase.writes.size();
  for (const RequestRecord& record : phase.requests()) {
    if (record.status != ServiceResponse::Status::kOk) ++run.failed;
  }
  for (const WriteRecord& write : phase.writes) {
    if (!write.ok) ++run.failed;
  }
  run.correct = verdict.wrong == 0;
  if (!run.correct) {
    std::fprintf(stderr, "bench_e2e: %s: %" PRIu64 " of %" PRIu64
                 " answers wrong; first: %s\n",
                 config.name.c_str(), verdict.wrong, verdict.checked,
                 verdict.first_error.c_str());
  }

  const double repeat_share = TemplateRepeatShare(*deployment, phase);
  run.json.Set("template_repeat_share", JsonValue::Number(repeat_share));
  JsonValue digests = JsonValue::Object();
  for (const auto& [count, digest] : PrefixDigests(phase.requests())) {
    digests.Set(std::to_string(count), JsonValue::String(Hex(digest)));
  }
  run.json.Set("prefix_digests", std::move(digests));

  if (!args.trace) {
    run.metrics = EndToEndMetrics(config, phase, seconds, warmup,
                                  setup_seconds, peak_rss_mb);
    for (const Metric& metric : run.metrics) PrintMetric(config.name, metric);
    PrintUnmeasured(config.name, run.metrics);
    std::printf("%-16s %-40s %16.4f %-6s n=%zu\n", config.name.c_str(),
                "template_repeat_share", repeat_share, "ratio", phase.count);
    run.json.Set("metrics", MetricsToJson(run.metrics));
  } else {
    // The traced phase: a fresh deployment with the backend timer in
    // place, warmed up identically, then the untraced phase's requests
    // again through the mirror.
    deployment.reset();
    deployment = SetUp(
        config, inputs.text, warmup,
        [](Source* inner) {
          return std::make_unique<TimedSource>(inner, Span::kBackend);
        },
        &error);
    if (deployment == nullptr) {
      std::fprintf(stderr, "bench_e2e: %s traced set-up failed: %s\n",
                   config.name.c_str(), error.c_str());
      return std::nullopt;
    }
    const DaemonSample before = SampleDaemon(deployment->daemon());
    Mirror mirror(deployment.get(), kTracedSlowest);
    PhaseOptions traced_options = DaemonPhase(deployment.get(), config, warmup);
    traced_options.limit = phase.count;
    traced_options.submit_query = [&mirror](const std::string& line) {
      return mirror.SubmitQuery(line);
    };
    traced_options.submit_write = [&mirror](const std::string& line) {
      return mirror.SubmitWrite(line);
    };
    const PhaseResult traced = RunPhase(*deployment, traced_options);
    const DaemonSample after = SampleDaemon(deployment->daemon());

    // Mirror cross-check: same answers on every request; on serial
    // workloads also the same physical calls and simulated time.
    std::string divergence;
    if (traced.count != phase.count) {
      divergence = "request count";
    } else {
      for (std::size_t i = 0; i < phase.count; ++i) {
        if (traced.records[i].digest != phase.records[i].digest) {
          divergence = "answer of request " +
                       std::to_string(phase.records[i].index);
          break;
        }
      }
    }
    if (divergence.empty() && config.clients == 1) {
      if (traced.backend_calls != phase.backend_calls) {
        divergence = "physical calls " + std::to_string(traced.backend_calls) +
                     " vs " + std::to_string(phase.backend_calls);
      } else if (traced.sim_micros != phase.sim_micros) {
        divergence = "simulated wall " + std::to_string(traced.sim_micros) +
                     " vs " + std::to_string(phase.sim_micros) + " us";
      }
    }
    if (!divergence.empty()) {
      std::fprintf(stderr, "bench_e2e: %s: trace mirror diverged (%s)\n",
                   config.name.c_str(), divergence.c_str());
      return std::nullopt;
    }

    const double untraced_per_req =
        phase.wall_seconds / static_cast<double>(std::max<std::uint64_t>(
                                 run.attempted, 1));
    const double traced_per_req =
        traced.wall_seconds /
        static_cast<double>(std::max<std::size_t>(
            traced.count + traced.writes.size(), 1));
    run.metrics = LayerMetrics(mirror, traced, before, after,
                               traced_per_req / untraced_per_req - 1.0);
    for (const Metric& metric : run.metrics) PrintMetric(config.name, metric);
    run.json.Set("layers", MetricsToJson(run.metrics));

    const std::string trace_path =
        args.trace_dir + "/bench_e2e_trace_" + config.name + ".json";
    if (!WriteFile(trace_path, mirror.ChromeTrace().Dump())) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
      return std::nullopt;
    }
    std::printf("%-16s chrome trace of the %zu slowest requests: %s\n",
                config.name.c_str(), kTracedSlowest, trace_path.c_str());
  }
  run.json.Set("correct", JsonValue::Bool(run.correct));
  run.json.Set("attempted",
               JsonValue::Number(static_cast<double>(run.attempted)));
  run.json.Set("failed", JsonValue::Number(static_cast<double>(run.failed)));
  run.json.Set("checked",
               JsonValue::Number(static_cast<double>(verdict.checked)));
  std::fflush(stdout);
  return run;
}

JsonValue ResultsDocument(const Args& args, JsonValue workloads) {
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::String("bench_e2e"));
  doc.Set("trace", JsonValue::Bool(args.trace));
  doc.Set("seconds", JsonValue::Number(args.seconds * args.scale));
  doc.Set("workloads", std::move(workloads));
  return doc;
}

// Runs `config` in a child process so its peak RSS is its own; the
// child's result comes back as JSON through a pipe.
std::optional<JsonValue> RunInChild(const WorkloadConfig& config,
                                    const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    std::optional<WorkloadRun> run = RunWorkload(config, args);
    int code = 1;
    if (run.has_value()) {
      const std::string text = run->json.Dump();
      std::size_t written = 0;
      while (written < text.size()) {
        const ssize_t n =
            write(fds[1], text.data() + written, text.size() - written);
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
      }
      code = written == text.size() && run->correct ? 0 : 1;
    }
    close(fds[1]);
    std::fflush(stdout);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::optional<JsonValue> result = ParseJson(text);
  if (!result.has_value()) return std::nullopt;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result->Set("child_failed", JsonValue::Bool(true));
  }
  return result;
}

// zipf_repeat_3c replays zipf_repeat's stream with three clients; both
// must answer alike over the longest prefix both measured.
bool ConcurrentMatchesSerial(const JsonValue& workloads) {
  const JsonValue* serial = nullptr;
  const JsonValue* concurrent = nullptr;
  for (const JsonValue& run : workloads.items()) {
    if (run.GetString("workload") == "zipf_repeat") serial = &run;
    if (run.GetString("workload") == "zipf_repeat_3c") concurrent = &run;
  }
  if (serial == nullptr || concurrent == nullptr) return true;
  const JsonValue* a = serial->Find("prefix_digests");
  const JsonValue* b = concurrent->Find("prefix_digests");
  std::string common;
  std::string digest_a;
  std::string digest_b;
  if (a != nullptr && b != nullptr) {
    for (const auto& [count, digest] : a->members()) {
      if (b->Find(count) != nullptr) {
        common = count;
        digest_a = digest.AsString();
        digest_b = b->GetString(count);
      }
    }
  }
  if (common.empty()) return true;
  std::printf("zipf_repeat_3c answers vs zipf_repeat over %s requests: %s\n",
              common.c_str(), digest_a == digest_b ? "match" : "MISMATCH");
  return digest_a == digest_b;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!args.workload.empty()) {
    std::optional<WorkloadRun> run =
        RunWorkload(*FindWorkload(args.workload), args);
    if (!run.has_value()) return 1;
    JsonValue workloads = JsonValue::Array();
    workloads.Append(run->json);
    if (!args.out.empty() &&
        !WriteFile(args.out, ResultsDocument(args, std::move(workloads)).Dump() +
                                 "\n")) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
      return 1;
    }
    JsonValue metrics = JsonValue::Object();
    for (const Metric& metric : run->metrics) {
      JsonValue entry = JsonValue::Object();
      entry.Set("value", JsonValue::Number(metric.value));
      entry.Set("unit", JsonValue::String(metric.unit));
      metrics.Set(metric.name, std::move(entry));
    }
    JsonValue result = JsonValue::Object();
    result.Set("correct", JsonValue::Bool(run->correct));
    result.Set("attempted",
               JsonValue::Number(static_cast<double>(run->attempted)));
    result.Set("failed", JsonValue::Number(static_cast<double>(run->failed)));
    result.Set("metrics", std::move(metrics));
    std::printf("%s\n", result.Dump().c_str());
    return run->correct ? 0 : 1;
  }

  JsonValue workloads = JsonValue::Array();
  bool ok = true;
  for (const WorkloadConfig& config : Workloads()) {
    std::optional<JsonValue> run = RunInChild(config, args);
    if (!run.has_value()) {
      std::fprintf(stderr, "bench_e2e: %s produced no result\n",
                   config.name.c_str());
      ok = false;
      continue;
    }
    ok = ok && !run->GetBool("child_failed") && run->GetBool("correct");
    workloads.Append(std::move(*run));
  }
  ok = ConcurrentMatchesSerial(workloads) && ok;
  if (!args.out.empty() &&
      !WriteFile(args.out,
                 ResultsDocument(args, std::move(workloads)).Dump() + "\n")) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("bench_e2e: %s\n", ok ? "all workloads correct" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ucqn::e2e

int main(int argc, char** argv) { return ucqn::e2e::Main(argc, argv); }
