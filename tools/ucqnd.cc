// ucqnd — the UCQ¬ mediator as a long-lived, multi-tenant query service.
// Where ucqnc runs one session and exits, ucqnd loads the schema and
// facts once, then serves any number of concurrent query sessions over a
// line-delimited JSON protocol (see docs/RUNTIME.md, "The daemon"),
// multiplexing all of them onto one shared runtime: a process-wide
// SharedCacheStore (so tenants reuse each other's physical calls), one
// StatsCatalog feeding the adaptive cost model, and one backend
// transport.
//
// Transports: --socket PATH listens on a Unix-domain stream socket (one
// response line per request line, per-connection ordering); --stdio
// serves a single session on stdin/stdout — the form tests and shell
// pipes use. Protocol example:
//
//   {"op": "query", "id": "q1", "tenant": "alice", "query": "Q(x) :- L(x)."}
//
// Admission control (--max-in-flight / --max-queued) triages arrivals
// into run / wait / shed; per-tenant quotas (--tenant-*) ride the
// call/deadline budgets the runtime stack already enforces. On SIGINT,
// SIGTERM, or stdin EOF the daemon drains: new work is refused, in-flight
// sessions finish, and — with --snapshot-dir — the cache and stats spill
// to JSON so the next start serves warm (a previously seen query costs
// zero physical calls).
//
// Run `ucqnd --help` for the flag reference.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "ast/parser.h"
#include "eval/database.h"
#include "flag_parse.h"
#include "schema/catalog.h"
#include "server/daemon.h"
#include "server/listener.h"
#include "server/snapshot.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int /*signum*/) { g_stop = 1; }

std::optional<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

constexpr char kUsageHead[] =
    "usage: ucqnd --schema FILE --facts FILE (--socket PATH | --stdio)\n"
    "             [options]\n"
    "\n"
    "input:\n"
    "  --schema FILE        relations + access patterns (required)\n"
    "  --facts FILE         database instance backing the sources (required)\n"
    "\n"
    "transport (exactly one):\n"
    "  --socket PATH        listen on a Unix-domain socket; one JSON request\n"
    "                       per line in, one JSON response per line out\n"
    "  --stdio              serve a single session on stdin/stdout; drains\n"
    "                       and exits at EOF\n"
    "\n"
    "daemon configuration (shared with ucqn_workload; defaults here: the\n"
    "static model, no retry):\n";

constexpr char kUsageTail[] =
    "\n"
    "ucqnd only:\n"
    "  --tenant-max-calls N per-tenant physical-call budget per query\n"
    "                       (a request's own max_calls is clamped to it)\n"
    "  --tenant-deadline-ms N\n"
    "                       per-tenant per-query deadline, virtual ms\n"
    "  --cache-negative-ttl-ms N\n"
    "                       expire *empty* results after N ms instead —\n"
    "                       negative answers go stale on the first insert\n"
    "                       at the source, so age them faster\n"
    "  --snapshot-dir DIR   restore DIR/cache.json + DIR/stats.json at\n"
    "                       start, spill them on drain (and on the\n"
    "                       \"snapshot\" protocol op)\n"
    "\n"
    "  --help               print this text and exit\n";

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "%s%s%s%s", kUsageHead, ucqn::kRuntimeFlagHelp,
               ucqn::kAdmissionFlagHelp, kUsageTail);
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucqn;
  const char* schema_path = nullptr;
  const char* facts_path = nullptr;
  const char* socket_path = nullptr;
  bool stdio = false;
  QueryDaemon::Options options;
  std::size_t cache_negative_ttl_ms = 0;
  std::size_t tenant_deadline_ms = 0;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char*& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    auto next_count = [&](std::size_t& slot) {
      return NextCount(argc, argv, &i, &slot);
    };
    auto next_millis = [&](std::size_t& slot) {
      return NextCount(argc, argv, &i, &slot, kMaxMillis);
    };
    const FlagMatch daemon_flag = ParseDaemonFlag(argc, argv, &i, &options);
    if (daemon_flag == FlagMatch::kBad) return Usage();
    if (daemon_flag == FlagMatch::kParsed) continue;
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--schema") == 0) {
      if (!next(schema_path)) return Usage();
    } else if (std::strcmp(argv[i], "--facts") == 0) {
      if (!next(facts_path)) return Usage();
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      if (!next(socket_path)) return Usage();
    } else if (std::strcmp(argv[i], "--stdio") == 0) {
      stdio = true;
    } else if (std::strcmp(argv[i], "--tenant-max-calls") == 0) {
      std::size_t max_calls = 0;
      if (!next_count(max_calls)) return Usage();
      options.default_quota.max_calls_per_query = max_calls;
    } else if (std::strcmp(argv[i], "--tenant-deadline-ms") == 0) {
      if (!next_millis(tenant_deadline_ms)) return Usage();
    } else if (std::strcmp(argv[i], "--cache-negative-ttl-ms") == 0) {
      if (!next_millis(cache_negative_ttl_ms)) return Usage();
    } else if (std::strcmp(argv[i], "--snapshot-dir") == 0) {
      const char* dir = nullptr;
      if (!next(dir)) return Usage();
      options.snapshot_dir = dir;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage();
    }
  }
  if (schema_path == nullptr || facts_path == nullptr) return Usage();
  if (stdio == (socket_path != nullptr)) {
    std::fprintf(stderr, "pick exactly one transport: --socket or --stdio\n");
    return Usage();
  }
  options.cache.negative_ttl_micros =
      static_cast<std::uint64_t>(cache_negative_ttl_ms) * 1000;
  options.default_quota.deadline_micros =
      static_cast<std::uint64_t>(tenant_deadline_ms) * 1000;

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

  DatabaseSource backend(&*db, &*catalog);
  // The backend reads this in-process database, so delta ops can mutate
  // it directly and maintain standing queries against the same instance.
  options.database = &*db;
  QueryDaemon daemon(&*catalog, &backend, options);

  SnapshotLoadReport loaded;
  if (!daemon.LoadSnapshots(&loaded, &error)) {
    std::fprintf(stderr, "snapshot load failed: %s\n", error.c_str());
    return 1;
  }
  if (loaded.cache_loaded || loaded.stats_loaded) {
    std::fprintf(stderr,
                 "warm start: %zu cache entr%s, stats for %zu relation(s)\n",
                 loaded.cache_entries, loaded.cache_entries == 1 ? "y" : "ies",
                 loaded.stats_relations);
  }

  // Diagnostics go to stderr throughout so stdout stays pure protocol in
  // --stdio mode.
  if (stdio) {
    std::fprintf(stderr, "ucqnd: serving on stdio (EOF drains and exits)\n");
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      std::printf("%s\n", daemon.SubmitLine(line).c_str());
      std::fflush(stdout);
    }
    daemon.Drain();
    std::fprintf(stderr, "ucqnd: drained (%llu queries served)\n",
                 static_cast<unsigned long long>(daemon.queries_served()));
    return 0;
  }

  SocketListener listener(&daemon);
  if (!listener.Start(socket_path, &error)) {
    std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::fprintf(stderr, "ucqnd: listening on %s\n", socket_path);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "ucqnd: draining\n");
  daemon.Drain();     // refuse new work, finish in-flight, spill snapshots
  listener.Stop();    // then tear the transport down
  std::fprintf(stderr, "ucqnd: drained (%llu queries served)\n",
               static_cast<unsigned long long>(daemon.queries_served()));
  return 0;
}
