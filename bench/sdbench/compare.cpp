// `sdbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]` judges B
// (the candidate) against A (the baseline) on every (end-to-end metric,
// workload) pair, with the bounds and directions in BENCHMARK.json.
//
// A results file holds the lines `sdbench --out` appends, one per
// workload run; several runs of one side give its median and spread
// (interquartile range over median).  Traced runs are ignored, and so are
// incorrect runs except in `error_rate`.  Verdicts:
//
//   regressed   B's median is worse than A's by more than the bound (for
//               setup_s: by more than the bound or 50 ms, whichever is
//               larger); for error_rate: any failed operation in B
//   unresolved  a side's spread exceeds the bound, so a bound-sized change
//               cannot be told from noise — unless every run of B is
//               better than every run of A — or a side has no runs
//   pass        otherwise
//
// Exit code: 1 when any pair regressed, 2 on unreadable input, else 0.
#include <algorithm>
#include <fstream>
#include <set>

#include "obs/json_parse.hpp"
#include "sdbench.hpp"

namespace sdbench {

namespace {

using sdc::obs::JsonObject;
using sdc::obs::JsonValue;

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0;
};

/// Absolute allowances: a metric may worsen by its bound or by this much,
/// whichever is larger.
constexpr std::pair<std::string_view, double> kAbsoluteFloors[] = {
    {"setup_s", 0.05},
};

/// One side's untraced runs.
struct Runs {
  /// workload -> metric -> one value per correct run.
  std::map<std::string, std::map<std::string, std::vector<double>>> metrics;
  /// workload -> {attempted, failed} operations over every run.
  std::map<std::string, std::pair<double, double>> ops;
};

std::optional<std::vector<Bound>> load_bounds(const fs::path& file) {
  const std::optional<std::string> text = read_text(file);
  JsonValue doc;
  std::string error;
  if (!text || !sdc::obs::parse_json(*text, doc, error) || !doc.object()) {
    return std::nullopt;
  }
  const JsonValue* list = sdc::obs::json_find(*doc.object(), "end_to_end");
  if (!list || !list->array()) return std::nullopt;
  std::vector<Bound> bounds;
  for (const JsonValue& item : *list->array()) {
    if (!item.object()) return std::nullopt;
    const JsonValue* name = sdc::obs::json_find(*item.object(), "name");
    const JsonValue* better = sdc::obs::json_find(*item.object(), "better");
    const JsonValue* bound = sdc::obs::json_find(*item.object(), "bound");
    if (!name || !name->string() || !better || !better->string() || !bound ||
        !bound->number()) {
      return std::nullopt;
    }
    bounds.push_back({*name->string(), *better->string() == "higher",
                      *bound->number()});
  }
  return bounds;
}

std::optional<Runs> load_runs(const fs::path& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  Runs runs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue doc;
    std::string error;
    if (!sdc::obs::parse_json(line, doc, error) || !doc.object()) {
      return std::nullopt;
    }
    const JsonObject& run = *doc.object();
    const JsonValue* workload = sdc::obs::json_find(run, "workload");
    const JsonValue* trace = sdc::obs::json_find(run, "trace");
    const JsonValue* correct = sdc::obs::json_find(run, "correct");
    const JsonValue* attempted = sdc::obs::json_find(run, "attempted");
    const JsonValue* failed = sdc::obs::json_find(run, "failed");
    const JsonValue* metrics = sdc::obs::json_find(run, "metrics");
    if (!workload || !workload->string() || !metrics || !metrics->object() ||
        !attempted || !attempted->number() || !failed || !failed->number()) {
      return std::nullopt;
    }
    if (trace && trace->boolean() && *trace->boolean()) continue;
    auto& [attempted_sum, failed_sum] = runs.ops[*workload->string()];
    attempted_sum += *attempted->number();
    failed_sum += *failed->number();
    if (!correct || !correct->boolean() || !*correct->boolean()) continue;
    for (const auto& [name, metric] : *metrics->object()) {
      if (!metric.object()) continue;
      const JsonValue* value = sdc::obs::json_find(*metric.object(), "value");
      if (value && value->number()) {
        runs.metrics[*workload->string()][name].push_back(*value->number());
      }
    }
  }
  return runs;
}

double spread(const std::vector<double>& values) {
  const double median = percentile(values, 50);
  if (values.size() < 2 || median == 0) return 0;
  return (percentile(values, 75) - percentile(values, 25)) / median;
}

double error_rate(const Runs& runs, const std::string& workload) {
  const auto it = runs.ops.find(workload);
  if (it == runs.ops.end() || it->second.first <= 0) return 0;
  return it->second.second / it->second.first;
}

double absolute_floor(const std::string& metric) {
  for (const auto& [name, floor] : kAbsoluteFloors) {
    if (name == metric) return floor;
  }
  return 0;
}

}  // namespace

int compare_main(const std::vector<std::string>& args) {
  fs::path benchmark = "BENCHMARK.json";
  std::vector<fs::path> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--benchmark" && i + 1 < args.size()) {
      benchmark = args[++i];
    } else {
      files.emplace_back(args[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: sdbench compare A.jsonl B.jsonl [--benchmark FILE]\n");
    return 2;
  }
  const std::optional<std::vector<Bound>> bounds = load_bounds(benchmark);
  const std::optional<Runs> a = load_runs(files[0]);
  const std::optional<Runs> b = load_runs(files[1]);
  if (!bounds || !a || !b) {
    std::fprintf(stderr, "sdbench compare: cannot read %s\n",
                 !bounds ? benchmark.c_str()
                         : (!a ? files[0].c_str() : files[1].c_str()));
    return 2;
  }
  std::set<std::string> workloads;
  for (const auto& [workload, ops] : a->ops) workloads.insert(workload);
  for (const auto& [workload, ops] : b->ops) workloads.insert(workload);

  std::size_t regressed = 0;
  std::printf("%-12s %-14s %14s %14s %9s %7s %8s  %s\n", "workload", "metric",
              "A median", "B median", "worse", "bound", "spread", "verdict");
  for (const std::string& workload : workloads) {
    for (const Bound& bound : *bounds) {
      const auto find = [&](const Runs& runs) {
        const auto w = runs.metrics.find(workload);
        if (w == runs.metrics.end()) return std::vector<double>{};
        const auto m = w->second.find(bound.name);
        return m == w->second.end() ? std::vector<double>{} : m->second;
      };
      const std::vector<double> va = find(*a);
      const std::vector<double> vb = find(*b);
      if (va.empty() || vb.empty()) {
        std::printf("%-12s %-14s %14s %14s %9s %6.0f%% %8s  unresolved "
                    "(no runs on one side)\n",
                    workload.c_str(), bound.name.c_str(), "-", "-", "-",
                    bound.bound * 100, "-");
        continue;
      }
      const double ma = percentile(va, 50);
      const double mb = percentile(vb, 50);
      const double worse_by = bound.higher_is_better ? ma - mb : mb - ma;
      const double worse = ma == 0 ? 0 : worse_by / ma;
      const double noise = std::max(spread(va), spread(vb));
      const auto [a_lo, a_hi] = std::minmax_element(va.begin(), va.end());
      const auto [b_lo, b_hi] = std::minmax_element(vb.begin(), vb.end());
      const bool b_always_better =
          bound.higher_is_better ? *b_lo > *a_hi : *b_hi < *a_lo;
      const char* verdict = "pass";
      if (noise > bound.bound && !b_always_better) {
        verdict = "unresolved (spread wider than the bound)";
      } else if (worse > bound.bound &&
                 worse_by > absolute_floor(bound.name)) {
        verdict = "regressed";
        ++regressed;
      }
      std::printf("%-12s %-14s %14.6g %14.6g %8.1f%% %6.0f%% %7.1f%%  %s\n",
                  workload.c_str(), bound.name.c_str(), ma, mb, worse * 100,
                  bound.bound * 100, noise * 100, verdict);
    }
    // Absolute bound 0: a candidate with any failed operation regressed.
    const double ea = error_rate(*a, workload);
    const double eb = error_rate(*b, workload);
    const bool failing = eb > 0;
    if (failing) ++regressed;
    std::printf("%-12s %-14s %14.6g %14.6g %9s %7s %8s  %s\n",
                workload.c_str(), "error_rate", ea, eb, "-", "0", "-",
                failing ? "regressed" : "pass");
  }
  std::printf("%zu regressed\n", regressed);
  return regressed == 0 ? 0 : 1;
}

}  // namespace sdbench
