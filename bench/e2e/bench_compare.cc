// bench_compare — judges two sets of bench_e2e results.
//
//   bench_compare [--bounds BENCHMARK.json] --base A1.json [A2.json ...]
//                 --new B1.json [B2.json ...]
//
// Each file is a bench_e2e --out document; runs of one side are pooled
// per (workload, metric). For each pair the tool prints both sides'
// median and quartiles and a verdict:
//
//   improved    the new side wins at least 9 of 10 pairs (runs paired in
//               file order, ties counting for neither) and the medians
//               differ by more than the base side's interquartile range;
//   regressed   the new median is worse than the base median by more
//               than the metric's bound (and its absolute floor), or
//               failed_share rose at all;
//   unresolved  the base side's own spread is wider than the bound and
//               not every new run beats every base run;
//   unchanged   otherwise.
//
// Bounds come from BENCHMARK.json's end_to_end list where it names the
// metric, else from the bound recorded in the results. Exits 1 when any
// pair regressed, 2 on bad input.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace {

struct Series {
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;
  double floor = 0.0;
  std::vector<double> base;
  std::vector<double> fresh;
};

std::optional<ucqn::JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  std::optional<ucqn::JsonValue> json = ucqn::ParseJson(buffer.str(), &error);
  if (!json.has_value() || !json->is_object()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 error.empty() ? "not a JSON object" : error.c_str());
    return std::nullopt;
  }
  return json;
}

// Python's statistics.quantiles(values, n=4) (the 'exclusive' method);
// the middle one is the median.
std::vector<double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  std::vector<double> out;
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i < 4; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    out.push_back((values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0);
  }
  return out;
}

bool Load(const std::string& path, bool base,
          std::map<std::pair<std::string, std::string>, Series>* series) {
  std::optional<ucqn::JsonValue> doc = ReadJson(path);
  if (!doc.has_value()) return false;
  const ucqn::JsonValue* workloads = doc->Find("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    std::fprintf(stderr, "bench_compare: %s has no workloads\n", path.c_str());
    return false;
  }
  for (const ucqn::JsonValue& run : workloads->items()) {
    const ucqn::JsonValue* metrics = run.Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) continue;
    for (const auto& [name, metric] : metrics->members()) {
      Series& s = (*series)[{run.GetString("workload"), name}];
      s.unit = metric.GetString("unit");
      s.higher_is_better = metric.GetString("better") == "higher";
      s.bound = metric.GetNumber("bound");
      s.floor = metric.GetNumber("floor");
      (base ? s.base : s.fresh).push_back(metric.GetNumber("value"));
    }
  }
  return true;
}

const char* Verdict(const std::string& metric, const Series& s) {
  const std::vector<double> q = Quartiles(s.base);
  const double base = q[1];
  const double fresh = Quartiles(s.fresh)[1];
  // Positive = the new side is worse.
  const double worse = s.higher_is_better ? base - fresh : fresh - base;
  if (metric == "failed_share") {
    return *std::max_element(s.fresh.begin(), s.fresh.end()) >
                   *std::max_element(s.base.begin(), s.base.end())
               ? "regressed"
               : "unchanged";
  }
  const auto better = [&](double a, double b) {
    return s.higher_is_better ? a > b : a < b;
  };
  const std::size_t pairs = std::min(s.base.size(), s.fresh.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (better(s.fresh[i], s.base[i])) ++wins;
  }
  const double iqr = q[2] - q[0];
  if (pairs > 0 && 10 * wins >= 9 * pairs && std::fabs(fresh - base) > iqr &&
      worse < 0.0) {
    return "improved";
  }
  const double spread = base == 0.0 ? 0.0 : iqr / std::fabs(base);
  if (s.bound > 0.0 && spread > s.bound) {
    const double worst_new =
        s.higher_is_better
            ? *std::min_element(s.fresh.begin(), s.fresh.end())
            : *std::max_element(s.fresh.begin(), s.fresh.end());
    const double best_base =
        s.higher_is_better
            ? *std::max_element(s.base.begin(), s.base.end())
            : *std::min_element(s.base.begin(), s.base.end());
    return better(worst_new, best_base) ? "improved" : "unresolved";
  }
  const double allowed = std::max(s.bound * std::fabs(base), s.floor);
  return worse > allowed ? "regressed" : "unchanged";
}

}  // namespace

int main(int argc, char** argv) {
  std::string bounds_path;
  std::vector<std::string> base_files;
  std::vector<std::string> new_files;
  std::vector<std::string>* side = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bounds" && i + 1 < argc) {
      bounds_path = argv[++i];
    } else if (arg == "--base") {
      side = &base_files;
    } else if (arg == "--new") {
      side = &new_files;
    } else if (side != nullptr && arg.rfind("--", 0) != 0) {
      side->push_back(arg);
    } else {
      side = nullptr;
      break;
    }
  }
  if (side == nullptr || base_files.empty() || new_files.empty()) {
    std::fputs(
        "usage: bench_compare [--bounds BENCHMARK.json] --base FILE... "
        "--new FILE...\n",
        stderr);
    return 2;
  }

  std::map<std::pair<std::string, std::string>, Series> series;
  for (const std::string& path : base_files) {
    if (!Load(path, true, &series)) return 2;
  }
  for (const std::string& path : new_files) {
    if (!Load(path, false, &series)) return 2;
  }
  if (!bounds_path.empty()) {
    std::optional<ucqn::JsonValue> bench = ReadJson(bounds_path);
    if (!bench.has_value()) return 2;
    const ucqn::JsonValue* end_to_end = bench->Find("end_to_end");
    if (end_to_end != nullptr && end_to_end->is_array()) {
      for (const ucqn::JsonValue& metric : end_to_end->items()) {
        for (auto& [key, s] : series) {
          if (key.second == metric.GetString("name")) {
            s.bound = metric.GetNumber("bound", s.bound);
          }
        }
      }
    }
  }

  std::printf("%-16s %-24s %-8s %30s %30s  %s\n", "workload", "metric",
              "unit", "base median [q1, q3]", "new median [q1, q3]",
              "verdict");
  int regressed = 0;
  for (const auto& [key, s] : series) {
    if (s.base.empty() || s.fresh.empty()) continue;
    const std::vector<double> qb = Quartiles(s.base);
    const std::vector<double> qn = Quartiles(s.fresh);
    const char* verdict = Verdict(key.second, s);
    if (std::string(verdict) == "regressed") ++regressed;
    char base_text[64];
    char new_text[64];
    std::snprintf(base_text, sizeof(base_text), "%.4g [%.4g, %.4g]",
                  qb[1], qb[0], qb[2]);
    std::snprintf(new_text, sizeof(new_text), "%.4g [%.4g, %.4g]",
                  qn[1], qn[0], qn[2]);
    std::printf("%-16s %-24s %-8s %30s %30s  %s\n", key.first.c_str(),
                key.second.c_str(), s.unit.c_str(), base_text, new_text,
                verdict);
  }
  std::printf("bench_compare: %d regression(s)\n", regressed);
  return regressed > 0 ? 1 : 0;
}
