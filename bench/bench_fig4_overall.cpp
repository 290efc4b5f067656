// E1 — Figure 4: overall scheduling delays for the long TPC-H trace
// (paper: 2,000 Spark-SQL queries, 2 GB input, 4 executors).
//
//   (a) CDFs of job runtime, total, am, in, out
//       paper p95: total 17.2 s, am 6 s, in 12.7 s, out 5.3 s
//   (b) normalized delays: total/job ~40% (60% worst); am/total ~35%;
//       in/total >70%; out/total <30%
//   (c) standard deviations: `in` varies more than `out` and dominates
//       the variance of `total`
//
// Override the trace length with SDC_JOBS (default 2000).
#include <cstdlib>

#include "bench_common.hpp"

namespace {

using namespace sdc;
using benchutil::print_cdf;
using benchutil::print_dist_row;

int jobs_from_env(int fallback) {
  const char* env = std::getenv("SDC_JOBS");
  if (!env) return fallback;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : fallback;
}

void experiment() {
  const int jobs = jobs_from_env(2000);
  benchutil::print_header(
      "Figure 4: overall scheduling delays (" + std::to_string(jobs) +
          " TPC-H queries, 2GB input, 4 executors)",
      "paper Fig. 4 (a)-(c), §IV-B");

  harness::ScenarioConfig scenario;
  scenario.seed = 42;
  benchutil::add_tpch_trace(scenario, jobs, 2048, 4);
  const auto out = benchutil::run_and_analyze(scenario);
  std::printf("  simulated %zu jobs, %zu log lines, %zu apps mined\n\n",
              out.sim.jobs.size(), out.sim.logs.total_lines(),
              out.analysis.timelines.size());

  // ---- (a) delay CDFs -----------------------------------------------------
  std::printf("  (a) delay CDFs [paper p95: total 17.2s am 6.0s in 12.7s "
              "out 5.3s]\n");
  const SampleSet job = benchutil::job_runtimes(out.sim);
  print_cdf("job", job);
  const auto& agg = out.analysis.aggregate;
  print_cdf("total", agg.total);
  print_cdf("am", agg.am);
  print_cdf("in", agg.in_app);
  print_cdf("out", agg.out_app);

  // ---- (b) normalized delays ----------------------------------------------
  std::printf("\n  (b) normalized delays [paper: total/job ~40%% median, "
              "~60%% worst; am/total ~35%%; in/total >70%%]\n");
  const auto opt_ms = [](const std::optional<std::int64_t>& v) {
    return v ? std::optional<double>(static_cast<double>(*v) / 1000.0)
             : std::nullopt;
  };
  const auto total_over_job = benchutil::ratio_samples(
      out.analysis, out.sim,
      [&](const checker::Delays& d, const spark::JobRecord&) {
        return opt_ms(d.total);
      },
      [](const checker::Delays&, const spark::JobRecord& j) {
        return std::optional<double>(to_seconds(j.finished_at - j.submitted_at));
      });
  const auto frac_of_total = [&](auto member) {
    return benchutil::ratio_samples(
        out.analysis, out.sim,
        [member, &opt_ms](const checker::Delays& d, const spark::JobRecord&) {
          return opt_ms(d.*member);
        },
        [&opt_ms](const checker::Delays& d, const spark::JobRecord&) {
          return opt_ms(d.total);
        });
  };
  print_dist_row("total/job", total_over_job, "");
  print_dist_row("am/total", frac_of_total(&checker::Delays::am), "");
  print_dist_row("in/total", frac_of_total(&checker::Delays::in_app), "");
  print_dist_row("out/total", frac_of_total(&checker::Delays::out_app), "");

  // ---- (c) standard deviations ----------------------------------------------
  std::printf("\n  (c) standard deviations [paper: in varies most and "
              "dominates total's variance]\n");
  std::printf("      std(total)=%.3fs std(am)=%.3fs std(in)=%.3fs "
              "std(out)=%.3fs\n",
              agg.total.stddev(), agg.am.stddev(), agg.in_app.stddev(),
              agg.out_app.stddev());

  std::printf("\n  full aggregate:\n%s",
              out.analysis.aggregate.render_text().c_str());
}

// --- timed kernels: SDchecker analysis throughput, serial vs parallel -------

const logging::LogBundle& shared_bundle() {
  static const logging::LogBundle bundle = [] {
    harness::ScenarioConfig scenario;
    scenario.seed = 7;
    benchutil::add_tpch_trace(scenario, 100, 2048, 4);
    return harness::run_scenario(scenario).logs;
  }();
  return bundle;
}

void BM_MineLogs(benchmark::State& state) {
  const auto& bundle = shared_bundle();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    events = checker::SdChecker({.threads = threads}).analyze(bundle)
                 .events_total;
    benchmark::DoNotOptimize(events);
  }
  state.counters["lines"] = static_cast<double>(bundle.total_lines());
  state.counters["events"] = static_cast<double>(events);
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(bundle.total_lines() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MineLogs)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FullAnalysis(benchmark::State& state) {
  const auto& bundle = shared_bundle();
  for (auto _ : state) {
    const auto analysis = checker::SdChecker({.threads = 2}).analyze(bundle);
    benchmark::DoNotOptimize(analysis.delays.size());
  }
}
BENCHMARK(BM_FullAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return sdc::benchutil::bench_main(argc, argv, experiment);
}
