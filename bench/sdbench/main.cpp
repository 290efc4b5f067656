// sdbench entry point: argument parsing, the per-workload orchestration
// (generator -> set-up probes -> measuring child + load generator), the
// end-to-end and per-layer metrics, and the result lines.
//
//   sdbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//           [--trace-out FILE] [--out FILE] [--work-dir DIR]
//           [--git-describe TEXT]
//   sdbench --smoke [--out FILE]
//   sdbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; the metrics are the end-to-end set,
// or with --trace 1 the per-layer set.  Exit code 0 only when every
// correctness gate passed.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/json.hpp"
#include "sdbench.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"

#ifndef SDBENCH_BUILD_TYPE
#define SDBENCH_BUILD_TYPE "unknown"
#endif

namespace sdbench {

namespace {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Gated by BENCHMARK.json (same names, same order).
constexpr MetricDef kEndToEnd[] = {
    {"lines_per_s", "lines/s"},
    {"lag_s_p50", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Recorded, never gated: they did not repeat within their bound.  The
/// scrape latencies are follow-live's only (0 for batch workloads).
constexpr MetricDef kTails[] = {
    {"tail.run_s_p90", "s"},
    {"tail.lag_s_p90", "s"},
    {"tail.scrape_s_p50", "s"},
    {"tail.scrape_s_p90", "s"},
};

/// The traced run's metrics (BENCHMARK.json per_layer, same order).
constexpr MetricDef kPerLayer[] = {
    {"logging.read_s", "s"},
    {"logging.files", "files"},
    {"logging.bytes", "bytes"},
    {"sdchecker.mine_s", "s"},
    {"sdchecker.mine.chunk_busy_s", "s"},
    {"sdchecker.mine.prefilter_skip_ratio", "ratio"},
    {"sdchecker.mine.event_yield", "ratio"},
    {"sdchecker.mine.lines", "lines"},
    {"sdchecker.mine.events", "events"},
    {"sdchecker.mine.streams", "streams"},
    {"sdchecker.mine.stitch_s", "s"},
    {"sdchecker.mine.merge_s", "s"},
    {"sdchecker.group_s", "s"},
    {"sdchecker.finalize_s", "s"},
    {"sdchecker.finalize.merge_s", "s"},
    {"sdchecker.apps", "apps"},
    {"sdchecker.export_s", "s"},
    {"sdchecker.export.bytes", "bytes"},
    {"sdchecker.fleet_s", "s"},
    {"sdchecker.fleet.sequential_s", "s"},
    {"sdchecker.fleet.parallel_gain", "ratio"},
    {"sdchecker.compare_s", "s"},
    {"common.pool.tasks", "tasks"},
    {"common.pool.help_ratio", "ratio"},
    {"sdchecker.follow.poll_s", "s"},
    {"sdchecker.follow.polls", "polls"},
    {"sdchecker.follow.lines_per_poll", "lines"},
    {"sdchecker.follow.busy_share", "ratio"},
    {"sdchecker.follow.rotations", "rotations"},
    {"sdchecker.incremental.snapshot_s", "s"},
    {"sdchecker.incremental.apps_resident_max", "apps"},
    {"sdchecker.incremental.apps_retired", "apps"},
    {"obs.http.requests", "requests"},
    {"obs.http.errors", "errors"},
    {"obs.http.server_ms_p50.analysis", "ms"},
    {"bench.gen_s", "s"},
    {"bench.generator_late_s_max", "s"},
    {"bench.trace_overhead_ratio", "ratio"},
};

/// The live writer's validity gate, on the 99th percentile of its per-line
/// lateness: a run in which more than one line in a hundred was written
/// further behind schedule than this measured the generator, not the
/// service.  The maximum is not gated: the writer's file creates and
/// appends now and then block for tens of milliseconds (up to 61 ms seen
/// on an ext4 virtual disk, in about one run in five), which delays a few
/// hundred of ~400k lines and leaves lag_s_p50 unchanged.
constexpr double kMaxGeneratorLateS = 0.05;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> values;
  std::vector<std::string> notes;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

std::string note(std::string_view what, const Summary& s,
                 std::string_view unit) {
  return std::string(what) + ": median " + num(s.median) + " " +
         std::string(unit) + ", p90 " + num(s.p90) + " " + std::string(unit) +
         ", n " + std::to_string(s.n);
}

ChildExit run_child(pid_t pid, double limit_s) {
  return wait_children({pid}, now_s() + limit_s, nullptr).front();
}

/// One measured session: the measuring child and, for follow-live, the
/// load generator beside it.
struct Session {
  std::vector<ChildExit> exits;
  std::optional<Record> measured;
  std::optional<Record> load;
};

Session run_session(const Config& config, const Record& gen, bool live) {
  const fs::path measured_out = config.dir / "measure.json";
  const fs::path load_out = config.dir / "load.json";
  Shared* shared = live ? map_shared() : nullptr;
  const double t_fork = now_s();
  std::vector<pid_t> pids = {spawn([&] {
    return measure(config, gen, t_fork, false, shared, measured_out);
  })};
  if (live) {
    pids.push_back(spawn([&] { return loadgen(config, shared, load_out); }));
  }
  Session session;
  session.exits = wait_children(pids, t_fork + 2 * config.seconds + 90, shared);
  unmap_shared(shared);
  session.measured = Record::load(measured_out);
  if (live) session.load = Record::load(load_out);
  return session;
}

/// Lag of written line i: from its due time to the first publish whose
/// cumulative ingested-line count covers it.
std::vector<double> line_lags(const Record& load, const Record& measured,
                              std::size_t* unpublished) {
  const auto lines = static_cast<std::size_t>(load.get("lines_written"));
  const double t0 = load.get("writer_t0");
  const double rate = load.get("rate");
  const std::vector<double>& pub_t = measured.values("publish_t");
  const std::vector<double>& pub_lines = measured.values("publish_lines");
  std::vector<double> lags;
  lags.reserve(lines);
  std::size_t k = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    while (k < pub_t.size() && pub_lines[k] <= static_cast<double>(i)) ++k;
    if (k == pub_t.size()) {
      *unpublished = lines - i;
      break;
    }
    lags.push_back(pub_t[k] - (t0 + static_cast<double>(i) / rate));
  }
  return lags;
}

Outcome measure_workload(const Config& config) {
  Outcome o;
  std::error_code ec;
  fs::remove_all(config.dir, ec);
  fs::create_directories(config.dir);
  const bool live = config.workload == "follow-live";

  const double gen_start = now_s();
  const ChildExit gen_exit =
      run_child(spawn([&] { return generate(config); }), 150);
  o.values["bench.gen_s"] = now_s() - gen_start;
  const std::optional<Record> gen = Record::load(config.dir / "gen.json");
  if (!gen_exit.ok || !gen) {
    o.fail("input generator failed");
    return o;
  }

  std::vector<double> setups;
  for (std::size_t k = 0; k < config.sizes.setup_probes; ++k) {
    const fs::path out = config.dir / ("probe" + std::to_string(k) + ".json");
    const double t_fork = now_s();
    const ChildExit probe = run_child(spawn([&] {
      return measure(config, *gen, t_fork, true, nullptr, out);
    }), 60);
    const std::optional<Record> rec = Record::load(out);
    if (!probe.ok || !rec) {
      o.fail("set-up probe failed" + (rec ? ": " + rec->str("errors") : ""));
      return o;
    }
    setups.push_back(rec->get("setup_s"));
  }

  const Session session = run_session(config, *gen, live);
  const std::vector<ChildExit>& exits = session.exits;
  const std::optional<Record>& m = session.measured;
  if (!exits[0].ok || !m) {
    o.fail("measuring child failed (status " + std::to_string(exits[0].status) +
           (exits[0].timed_out ? ", timed out)" : ")"));
    return o;
  }

  setups.push_back(m->get("setup_s"));
  o.values["setup_s"] = percentile(setups, 50);
  o.values["peak_rss_mb"] = m->get("peak_rss_mb");
  o.notes.push_back(note("setup_s", summarize(setups), "s"));
  o.failed += static_cast<std::uint64_t>(m->get("failed"));
  if (!m->str("errors").empty()) o.fail(m->str("errors"));

  if (live) {
    const std::optional<Record>& l = session.load;
    if (!exits[1].ok || !l) {
      o.fail("load generator failed (status " +
             std::to_string(exits[1].status) + ")");
      return o;
    }
    const std::vector<double>& status = l->values("scrape_status");
    const auto bad_scrapes = static_cast<std::uint64_t>(
        std::count_if(status.begin(), status.end(),
                      [](double code) { return code != 200; }));
    const Summary scrapes = summarize(l->values("scrape_s"));
    o.values["tail.scrape_s_p50"] = scrapes.median;
    o.values["tail.scrape_s_p90"] = scrapes.p90;
    o.notes.push_back(note("scrape_s (GET /analysis)", scrapes, "s"));
    o.attempted += scrapes.n;
    o.failed += bad_scrapes;
    if (scrapes.n == 0) o.fail("no scrape was made");
    if (bad_scrapes != 0) {
      o.fail(std::to_string(bad_scrapes) + " scrapes did not return 200");
    }
    if (l->str("final_digest") != m->str("published_digest")) {
      ++o.failed;
      o.fail("the last scraped /analysis differs from the published document");
    }

    std::size_t unpublished = 0;
    const Summary lag = summarize(line_lags(*l, *m, &unpublished));
    const Summary cycles = summarize(m->values("cycle_s"));
    o.values["lines_per_s"] =
        m->get("busy_s") > 0 ? m->get("lines") / m->get("busy_s") : 0;
    o.values["lag_s_p50"] = lag.median;
    o.values["tail.lag_s_p90"] = lag.p90;
    o.values["tail.run_s_p90"] = cycles.p90;
    o.notes.push_back(note("lag_s (due -> first publish, per line)", lag, "s"));
    o.notes.push_back(note("publish cycle (poll + snapshot + export + publish)",
                           cycles, "s"));
    o.attempted += cycles.n + 2;
    if (unpublished != 0) {
      ++o.failed;
      o.fail(std::to_string(unpublished) + " written lines never published");
    } else if (m->get("lines") != l->get("lines_written")) {
      ++o.failed;
      o.fail("ingested " + num(m->get("lines")) + " lines for " +
             num(l->get("lines_written")) + " written");
    }
    // Parity: the drained snapshot against a batch analyze of the live
    // directory as the writer left it (rotated segments included).
    const sdc::checker::AnalysisResult batch =
        sdc::checker::SdChecker({.threads = 1, .analyze_shards = 1})
            .analyze_directory(config.dir / "live");
    if (digest(sdc::checker::analysis_json(batch)) !=
        m->str("published_digest")) {
      ++o.failed;
      o.fail("drained follow snapshot differs from a batch analyze");
    }
    const double late_p99 = l->get("late_p99");
    o.values["bench.generator_late_s_max"] = l->get("late_max");
    o.notes.push_back("writer lateness: p99 " + num(late_p99) + " s, max " +
                      num(l->get("late_max")) + " s");
    if (late_p99 > kMaxGeneratorLateS) {
      ++o.failed;
      o.fail("the writer's p99 lateness was " + num(late_p99) + " s (limit " +
             num(kMaxGeneratorLateS) + " s): run invalid");
    }
  } else {
    const Summary runs = summarize(m->values("run_s"));
    o.values["lines_per_s"] =
        runs.median > 0 ? gen->get("lines") / runs.median : 0;
    o.values["lag_s_p50"] = runs.median;
    o.values["tail.lag_s_p90"] = runs.p90;
    o.values["tail.run_s_p90"] = runs.p90;
    o.values["logging.files"] = gen->get("files");
    o.values["logging.bytes"] = gen->get("bytes");
    o.values["bench.generator_late_s_max"] = 0;
    o.notes.push_back(note("run_s (input -> analysis document)", runs, "s"));
    o.attempted += static_cast<std::uint64_t>(m->get("runs"));
    if (runs.n == 0) o.fail("no timed run");
  }
  for (const auto& [key, value] : m->num) {
    if (key.rfind("layer.", 0) == 0) o.values[key.substr(6)] = value;
  }
  if (config.trace && m->get("trace_ok") != 1) {
    ++o.failed;
    o.fail(m->str("trace_error"));
  }
  o.notes.push_back("input: " + num(gen->get("lines")) + " lines, " +
                    num(gen->get("files")) + " files, " +
                    num(gen->get("bytes")) + " bytes");
  fs::remove_all(config.dir, ec);
  return o;
}

/// One workload run; an incorrect run always reports a failed operation.
Outcome run_workload(const Config& config) {
  Outcome o = measure_workload(config);
  if (!o.correct) {
    o.failed = std::max<std::uint64_t>(o.failed, 1);
    o.attempted = std::max(o.attempted, o.failed);
  }
  return o;
}

// --- reporting ---------------------------------------------------------------

struct Header {
  std::size_t nproc = 1;
  unsigned hardware_concurrency = 0;
  std::size_t threads = 1;
  std::string git = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  Sizes sizes;

  void write(sdc::json::Writer& w) const {
    w.begin_object();
    w.field("nproc", static_cast<std::int64_t>(nproc));
    w.field("hardware_concurrency",
            static_cast<std::int64_t>(hardware_concurrency));
    w.field("T", static_cast<std::int64_t>(threads));
    w.field("build_type", SDBENCH_BUILD_TYPE);
    w.field("git_describe", git);
    w.field("seed", static_cast<std::int64_t>(seed));
    w.key("run_seconds").raw(num(seconds));
    w.field("collection_queries",
            static_cast<std::int64_t>(sizes.collection_queries));
    w.field("dense_lines", static_cast<std::int64_t>(sizes.dense_lines));
    w.field("dense_apps", static_cast<std::int64_t>(sizes.dense_apps));
    w.field("fleet_corpora", static_cast<std::int64_t>(sizes.fleet_corpora));
    w.key("live_rate_lines_per_s").raw(num(sizes.live_rate));
    w.key("live_queries_per_s").raw(num(sizes.live_queries_per_s));
    w.end_object();
  }
  void print() const {
    std::printf("sdbench: nproc=%zu hardware_concurrency=%u T=%zu build=%s "
                "git=%s seed=%llu run_seconds=%s\n",
                nproc, hardware_concurrency, threads, SDBENCH_BUILD_TYPE,
                git.c_str(), static_cast<unsigned long long>(seed),
                num(seconds).c_str());
    std::printf("sdbench: sizes collection=%d queries, dense-rm=%zu lines/%zu "
                "apps, fleet=%zu corpora, follow-live=%s lines/s x %s "
                "queries/s\n",
                sizes.collection_queries, sizes.dense_lines, sizes.dense_apps,
                sizes.fleet_corpora, num(sizes.live_rate).c_str(),
                num(sizes.live_queries_per_s).c_str());
  }
};

/// The metrics a run reports: end-to-end (+ tails for humans and result
/// files), or per-layer when traced.
std::vector<MetricDef> reported(bool trace, bool with_tails) {
  std::vector<MetricDef> out;
  if (trace) {
    out.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    out.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    if (with_tails) out.insert(out.end(), std::begin(kTails), std::end(kTails));
  }
  return out;
}

double value_of(const Outcome& o, std::string_view name) {
  const auto it = o.values.find(std::string(name));
  return it == o.values.end() ? 0.0 : it->second;
}

void print_outcome(const std::string& workload, bool trace, const Outcome& o) {
  for (const MetricDef& d : reported(trace, true)) {
    std::printf("[%s] %-40s %s %s\n", workload.c_str(),
                std::string(d.name).c_str(), num(value_of(o, d.name)).c_str(),
                std::string(d.unit).c_str());
  }
  for (const std::string& line : o.notes) {
    std::printf("[%s]   %s\n", workload.c_str(), line.c_str());
  }
  std::printf("[%s] correct=%s attempted=%llu failed=%llu error_rate=%s\n",
              workload.c_str(), o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              num(o.attempted ? static_cast<double>(o.failed) /
                                    static_cast<double>(o.attempted)
                              : 1.0)
                  .c_str());
  for (const std::string& error : o.errors) {
    std::printf("[%s] FAIL: %s\n", workload.c_str(), error.c_str());
  }
  std::fflush(stdout);
}

void append_result(const fs::path& file, const Header& header,
                   const std::string& workload, bool trace, const Outcome& o) {
  sdc::json::Writer w;
  w.begin_object();
  w.key("header");
  header.write(w);
  w.field("workload", workload);
  w.field("trace", trace);
  w.field("correct", o.correct);
  w.field("attempted", static_cast<std::int64_t>(o.attempted));
  w.field("failed", static_cast<std::int64_t>(o.failed));
  w.key("metrics").begin_object();
  for (const MetricDef& d : reported(trace, true)) {
    w.key(d.name).begin_object();
    w.key("value").raw(num(value_of(o, d.name)));
    w.field("unit", d.unit);
    w.end_object();
  }
  w.end_object();
  w.key("errors").begin_array();
  for (const std::string& error : o.errors) w.value(error);
  w.end_array();
  w.end_object();
  std::ofstream out(file, std::ios::app);
  out << w.str() << '\n';
}

// --- command line ------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: sdbench [--workload NAME|all] [--seed N] [--seconds S]\n"
               "               [--trace 0|1] [--trace-out FILE] [--out FILE]\n"
               "               [--work-dir DIR] [--git-describe TEXT]\n"
               "       sdbench --smoke [--out FILE]\n"
               "       sdbench compare A.jsonl B.jsonl [--benchmark FILE]\n"
               "workloads: collection dense-rm fleet follow-live\n");
  return 2;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// Removes the run's scratch directory however main exits.
struct ScratchGuard {
  fs::path dir;
  ~ScratchGuard() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

int run_main(const std::vector<std::string>& args) {
  std::string workload = "all";
  std::uint64_t seed = 1;
  std::optional<double> seconds;
  bool trace = false;
  bool smoke = false;
  fs::path trace_out;
  fs::path out;
  fs::path work_dir = ".";
  std::string git = "unknown";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= args.size()) return usage();
    const std::string& value = args[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(*seconds > 0) || *seconds > 600) {
        return usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = fs::absolute(value);
    } else if (flag == "--out") {
      out = fs::absolute(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--git-describe") {
      git = value;
    } else {
      return usage();
    }
  }
  std::vector<std::string> workloads;
  for (const std::string_view name : kWorkloads) {
    if (workload == "all" || workload == name) workloads.emplace_back(name);
  }
  if (workloads.empty()) return usage();

  Header header;
  header.nproc = affinity_cpus();
  header.hardware_concurrency = std::thread::hardware_concurrency();
  header.threads = std::min<std::size_t>(4, header.nproc);
  header.git = git;
  header.seed = seed;
  header.seconds = seconds.value_or(smoke ? 0.5 : 10.0);
  header.sizes = smoke ? smoke_sizes() : Sizes{};
  header.print();

  ScratchGuard scratch{fs::absolute(work_dir) /
                       (".sdbench-" + std::to_string(::getpid()))};
  fs::create_directories(scratch.dir);

  // Smoke runs every workload untraced and traced; otherwise one mode.
  std::vector<bool> modes = smoke ? std::vector<bool>{false, true}
                                  : std::vector<bool>{trace};
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  sdc::json::Writer metrics;
  metrics.begin_object();
  const bool single = workloads.size() == 1 && modes.size() == 1;
  for (const std::string& name : workloads) {
    for (const bool traced : modes) {
      Config config;
      config.workload = name;
      config.seed = seed;
      config.seconds = header.seconds;
      config.trace = traced;
      config.threads = header.threads;
      config.dir = scratch.dir / name;
      config.trace_out = trace_out;
      config.sizes = header.sizes;
      const Outcome o = run_workload(config);
      print_outcome(name + (traced ? " traced" : ""), traced, o);
      if (!out.empty()) append_result(out, header, name, traced, o);
      correct = correct && o.correct;
      attempted += o.attempted;
      failed += o.failed;
      for (const MetricDef& d : reported(traced, false)) {
        const std::string key =
            single ? std::string(d.name)
                   : name + (traced ? "/traced/" : "/") + std::string(d.name);
        metrics.key(key).begin_object();
        metrics.key("value").raw(num(value_of(o, d.name)));
        metrics.field("unit", d.unit);
        metrics.end_object();
      }
    }
  }
  metrics.end_object();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace sdbench

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args.front() == "compare") {
      return sdbench::compare_main({args.begin() + 1, args.end()});
    }
    return sdbench::run_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdbench: %s\n", e.what());
    return 1;
  }
}
