#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "common/rng.hpp"
#include "logging/timestamp.hpp"
#include "trace/submission_trace.hpp"
#include "workloads/tpch.hpp"

namespace sdbench {

namespace fs = std::filesystem;

sdc::harness::ScenarioResult simulate_tpch(const TpchTrace& trace) {
  sdc::harness::ScenarioConfig scenario;
  scenario.seed = trace.seed;
  sdc::trace::TraceConfig submissions;
  submissions.count = trace.queries;
  submissions.mean_interarrival = sdc::seconds(4);
  submissions.start = sdc::seconds(5);
  submissions.seed = trace.seed + 1;
  for (const auto& submission : sdc::trace::generate_trace(submissions)) {
    sdc::harness::SparkSubmissionPlan plan;
    plan.at = submission.at;
    plan.app = sdc::workloads::make_tpch_query(
        1 + submission.workload_index % sdc::workloads::kTpchQueryCount,
        trace.input_mb, trace.executors);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  return sdc::harness::run_scenario(scenario);
}

void write_fleet(const fs::path& root, std::size_t corpora,
                 std::uint64_t seed) {
  sdc::Rng rng(seed);
  for (std::size_t i = 0; i < corpora; ++i) {
    sdc::Rng corpus_rng = rng.fork(i);
    TpchTrace trace;
    trace.queries = 3 + static_cast<std::int32_t>(std::min(
                            4.0, std::floor(corpus_rng.exponential(3.0))));
    trace.input_mb = 1024.0 * static_cast<double>(corpus_rng.uniform_int(1, 4));
    trace.executors = static_cast<std::int32_t>(corpus_rng.uniform_int(2, 4));
    trace.seed = seed * 1000 + i;
    const sdc::harness::ScenarioResult sim = simulate_tpch(trace);
    char name[32];
    std::snprintf(name, sizeof(name), "corpus%03zu", i);
    sim.logs.write_to_directory(root / name);
  }
}

Replay replay_order(const sdc::logging::LogBundle& logs) {
  Replay replay;
  replay.files = logs.stream_names();
  // (key, file, line) — the key is the stream's running-maximum timestamp,
  // non-decreasing within a file, so sorting keeps every file's order.
  std::vector<std::tuple<std::int64_t, std::uint32_t, std::uint32_t>> order;
  order.reserve(logs.total_lines());
  for (std::uint32_t f = 0; f < replay.files.size(); ++f) {
    const std::vector<std::string>& lines = logs.lines(replay.files[f]);
    std::int64_t key = 0;
    for (std::uint32_t i = 0; i < lines.size(); ++i) {
      const std::string_view head =
          std::string_view(lines[i]).substr(0, sdc::logging::kTimestampWidth);
      if (const auto ts = sdc::logging::parse_epoch_ms(head)) {
        key = std::max(key, *ts);
      }
      order.emplace_back(key, f, i);
    }
  }
  std::sort(order.begin(), order.end());
  replay.file_of.reserve(order.size());
  replay.lines.reserve(order.size());
  for (const auto& [key, f, i] : order) {
    replay.file_of.push_back(f);
    replay.lines.push_back(logs.lines(replay.files[f])[i]);
  }
  return replay;
}

namespace {

void put_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_str(std::ofstream& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::uint32_t get_u32(std::ifstream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("replay file truncated");
  return v;
}

std::string get_str(std::ifstream& in) {
  std::string s(get_u32(in), '\0');
  in.read(s.data(), static_cast<std::streamsize>(s.size()));
  if (!in) throw std::runtime_error("replay file truncated");
  return s;
}

}  // namespace

void save_replay(const fs::path& file, const Replay& replay) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  put_u32(out, static_cast<std::uint32_t>(replay.files.size()));
  for (const std::string& name : replay.files) put_str(out, name);
  put_u32(out, static_cast<std::uint32_t>(replay.lines.size()));
  for (std::size_t i = 0; i < replay.lines.size(); ++i) {
    put_u32(out, replay.file_of[i]);
    put_str(out, replay.lines[i]);
  }
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

Replay load_replay(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  Replay replay;
  replay.files.resize(get_u32(in));
  for (std::string& name : replay.files) name = get_str(in);
  const std::uint32_t lines = get_u32(in);
  replay.file_of.reserve(lines);
  replay.lines.reserve(lines);
  for (std::uint32_t i = 0; i < lines; ++i) {
    const std::uint32_t f = get_u32(in);
    if (f >= replay.files.size()) throw std::runtime_error("bad replay file");
    replay.file_of.push_back(f);
    replay.lines.push_back(get_str(in));
  }
  return replay;
}

// --- dense RM ----------------------------------------------------------------

namespace {

constexpr std::int64_t kEpoch = 1'499'100'000'000;

/// One log file written as log4j lines.
class LogFile {
 public:
  explicit LogFile(const fs::path& path) : out_(path, std::ios::trunc) {
    if (!out_) throw std::runtime_error("cannot write " + path.string());
  }
  void line(std::int64_t offset_ms, std::string_view cls,
            std::string_view message) {
    out_ << sdc::logging::format_epoch_ms(kEpoch + offset_ms) << " INFO  "
         << cls << ": " << message << '\n';
    ++lines_;
  }
  [[nodiscard]] std::size_t lines() const { return lines_; }

 private:
  std::ofstream out_;
  std::size_t lines_ = 0;
};

std::string app_id(std::size_t app) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "application_1499100000000_%04zu", app);
  return buf;
}

std::string container_id(std::size_t app, int container) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "container_1499100000000_%04zu_01_%06d",
                app, container);
  return buf;
}

constexpr std::string_view kRmApp =
    "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
constexpr std::string_view kRmContainer =
    "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl";
constexpr std::string_view kRmClient =
    "org.apache.hadoop.yarn.server.resourcemanager.ClientRMService";
constexpr std::string_view kRmScheduler =
    "org.apache.hadoop.yarn.server.resourcemanager.scheduler.capacity."
    "CapacityScheduler";
constexpr std::string_view kRmAudit =
    "org.apache.hadoop.yarn.server.resourcemanager.RMAuditLogger";
constexpr std::string_view kNmContainer =
    "org.apache.hadoop.yarn.server.nodemanager.containermanager.container."
    "ContainerImpl";
constexpr std::string_view kNmLocal =
    "org.apache.hadoop.yarn.server.nodemanager.containermanager.localizer."
    "ResourceLocalizationService";
constexpr std::string_view kAm =
    "org.apache.spark.deploy.yarn.ApplicationMaster";
constexpr std::string_view kCtx = "org.apache.spark.SparkContext";
constexpr std::string_view kBackend =
    "org.apache.spark.executor.CoarseGrainedExecutorBackend";

/// Instrumented apps with driver/executor files.  A collection run holds
/// tens of application instances, not thousands.
constexpr std::size_t kInstanceApps = 24;

/// Lines for item `index` of `count` when `quota` is spread over them with
/// +-25% seeded jitter; the running remainder keeps the total on quota.
std::size_t share(sdc::Rng& rng, std::size_t quota, std::size_t used,
                  std::size_t index, std::size_t count) {
  const std::size_t left = quota > used ? quota - used : 0;
  if (index + 1 >= count) return left;
  const double even = static_cast<double>(left) /
                      static_cast<double>(count - index);
  return static_cast<std::size_t>(even * rng.uniform(0.75, 1.25));
}

}  // namespace

void write_dense_rm(const fs::path& dir, const DenseRm& shape) {
  fs::create_directories(dir);
  sdc::Rng rng(shape.seed);
  const std::size_t apps = std::max<std::size_t>(shape.apps, kInstanceApps);
  const std::size_t rm_quota = shape.lines * 7 / 10;
  const std::size_t nm_quota = shape.lines * 2 / 10;
  const std::size_t instance_quota = shape.lines - rm_quota - nm_quota;

  // RM: eight Table-I transitions per app, then scheduler noise.
  {
    LogFile rm(dir / "rm.log");
    std::int64_t t = 0;
    for (std::size_t app = 1; app <= apps; ++app) {
      const std::string id = app_id(app);
      rm.line(t, kRmApp, id + " State change from NEW_SAVING to SUBMITTED on "
                              "event = APP_NEW_SAVED");
      rm.line(t + 40, kRmApp,
              id + " State change from SUBMITTED to ACCEPTED on event = "
                   "APP_ACCEPTED");
      for (int c = 1; c <= 3; ++c) {
        rm.line(t + 100 + c, kRmContainer,
                container_id(app, c) +
                    " Container Transitioned from NEW to ALLOCATED");
      }
      for (int c = 1; c <= 3; ++c) {
        rm.line(t + 200 + c, kRmContainer,
                container_id(app, c) +
                    " Container Transitioned from ALLOCATED to ACQUIRED");
      }
      const std::size_t budget =
          share(rng, rm_quota, rm.lines(), app - 1, apps);
      const std::size_t noise = budget > 8 ? budget - 8 : 0;
      for (std::size_t k = 0; k < noise; ++k) {
        const std::int64_t ts = t + 300 + static_cast<std::int64_t>(k);
        switch (rng.uniform_int(0, 2)) {
          case 0:
            rm.line(ts, kRmClient,
                    "Allocated new applicationId: " +
                        std::to_string(rng.uniform_int(1, 99999)));
            break;
          case 1:
            rm.line(ts, kRmScheduler,
                    "Null container completed for application attempt " +
                        id);
            break;
          default:
            rm.line(ts, kRmAudit,
                    "USER=spark\tOPERATION=AM Released Container\t"
                    "TARGET=SchedulerApp\tRESULT=SUCCESS\tAPPID=" + id);
            break;
        }
      }
      t += 400 + static_cast<std::int64_t>(noise);
    }
  }

  // NMs: container lifecycle transitions around localization noise.
  {
    std::vector<LogFile> nodes;
    for (int n = 1; n <= 8; ++n) {
      nodes.emplace_back(dir /
                         ("nm-node0" + std::to_string(n) + ".cluster.log"));
    }
    std::size_t used = 0;
    std::int64_t t = 0;
    for (std::size_t app = 1; app <= apps; ++app) {
      std::int64_t longest = 0;
      for (int c = 1; c <= 3; ++c) {
        LogFile& node = nodes[(app + static_cast<std::size_t>(c)) % 8];
        const std::string cid = container_id(app, c);
        const std::size_t budget =
            share(rng, nm_quota, used,
                  (app - 1) * 3 + static_cast<std::size_t>(c - 1), apps * 3);
        const std::size_t noise = budget > 2 ? budget - 2 : 0;
        node.line(t, kNmContainer,
                  "Container " + cid + " transitioned from NEW to LOCALIZING");
        for (std::size_t k = 0; k < noise; ++k) {
          node.line(t + 50 + static_cast<std::int64_t>(k), kNmLocal,
                    "Downloading public resource hdfs://nn:8020/user/spark/"
                    "lib/dep-" + std::to_string(rng.uniform_int(0, 63)) +
                        ".jar");
        }
        const std::int64_t running = t + 60 + static_cast<std::int64_t>(noise);
        node.line(running, kNmContainer,
                  "Container " + cid +
                      " transitioned from LOCALIZING to RUNNING");
        longest = std::max(longest, running - t);
        used += noise + 2;
      }
      t += 500 + longest;
    }
  }

  // Driver + executor files of the instrumented apps: ~60% driver chatter,
  // the rest split across two executors.
  std::size_t used = 0;
  for (std::size_t app = 1; app <= kInstanceApps; ++app) {
    const std::size_t quota =
        share(rng, instance_quota, used, app - 1, kInstanceApps);
    used += quota;
    const std::int64_t t = 1000 * static_cast<std::int64_t>(app);
    {
      LogFile driver(dir / ("driver-" + app_id(app) + ".log"));
      driver.line(t, kAm,
                  "ApplicationAttemptId: appattempt_1499100000000_" +
                      std::to_string(app) + "_000001");
      driver.line(t + 100, kAm, "Registering the ApplicationMaster");
      for (std::size_t k = 0; k < quota * 6 / 10; ++k) {
        driver.line(t + 200 + static_cast<std::int64_t>(k), kCtx,
                    "Submitted stage " + std::to_string(k) + " (" +
                        std::to_string(rng.uniform_int(1, 400)) + " tasks)");
      }
    }
    for (int c = 2; c <= 3; ++c) {
      LogFile exec(dir / ("executor-" + container_id(app, c) + ".log"));
      exec.line(t + 300, kBackend,
                "Connecting to driver for container " + container_id(app, c));
      exec.line(t + 900, kBackend, "Got assigned task 0");
      for (std::size_t k = 0; k < quota / 5; ++k) {
        exec.line(t + 1000 + static_cast<std::int64_t>(k), kBackend,
                  "Finished task " + std::to_string(k) + " in " +
                      std::to_string(rng.uniform_int(5, 900)) + " ms");
      }
    }
  }
}

}  // namespace sdbench
