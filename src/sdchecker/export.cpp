#include "sdchecker/export.hpp"

#include <cstdio>

#include "common/json.hpp"

namespace sdc::checker {
namespace {

void append_opt(std::string& out, const std::optional<std::int64_t>& value,
                bool trailing_comma = true) {
  if (value) out += std::to_string(*value);
  if (trailing_comma) out += ',';
}

/// About the bytes `analysis_json` writes for `result`, escapes aside: a
/// fixed head, then a little more per row than the simulated 2,000-query
/// collection's rows take (about 204 B per app and 170 B per container),
/// so the estimate rather overshoots than regrows.
std::size_t analysis_json_estimate(const AnalysisResult& result) {
  std::size_t bytes = 4096;
  for (const auto& [app, delays] : result.delays) {
    bytes += 224 + 176 * delays.containers.size();
  }
  for (const logging::Diagnostic& diagnostic : result.diagnostics) {
    bytes += 96 + diagnostic.stream.size() + diagnostic.detail.size();
  }
  for (const Anomaly& anomaly : result.anomalies) {
    bytes += 96 + anomaly.entity.size() + anomaly.detail.size();
  }
  return bytes;
}

}  // namespace

std::string delays_csv(const AnalysisResult& result) {
  std::string out =
      "app,total_ms,am_ms,cf_ms,cl_ms,cl_minus_cf_ms,driver_ms,executor_ms,"
      "in_app_ms,out_app_ms,alloc_ms\n";
  for (const auto& [app, delays] : result.delays) {
    out += app.str();
    out += ',';
    append_opt(out, delays.total);
    append_opt(out, delays.am);
    append_opt(out, delays.cf);
    append_opt(out, delays.cl);
    append_opt(out, delays.cl_minus_cf);
    append_opt(out, delays.driver);
    append_opt(out, delays.executor);
    append_opt(out, delays.in_app);
    append_opt(out, delays.out_app);
    append_opt(out, delays.alloc, /*trailing_comma=*/false);
    out += '\n';
  }
  return out;
}

std::string containers_csv(const AnalysisResult& result) {
  std::string out =
      "app,container,is_am,acquisition_ms,localization_ms,queuing_ms,"
      "launching_ms\n";
  for (const auto& [app, delays] : result.delays) {
    for (const ContainerDelays& container : delays.containers) {
      out += app.str();
      out += ',';
      out += container.id.str();
      out += ',';
      out += container.is_am ? "1," : "0,";
      append_opt(out, container.acquisition);
      append_opt(out, container.localization);
      append_opt(out, container.queuing);
      append_opt(out, container.launching, /*trailing_comma=*/false);
      out += '\n';
    }
  }
  return out;
}

std::string events_csv(const AnalysisResult& result) {
  std::string out = "app,container,table1,event,epoch_ms\n";
  const auto emit = [&out](const ApplicationId& app, const std::string& cid,
                           EventKind kind, std::int64_t ts) {
    out += app.str();
    out += ',';
    out += cid;
    out += ',';
    out += std::to_string(table1_number(kind));
    out += ',';
    out += event_name(kind);
    out += ',';
    out += std::to_string(ts);
    out += '\n';
  };
  for (const auto& [app, timeline] : result.timelines) {
    for (const auto& [kind, ts] : timeline.first_ts) {
      emit(app, "", kind, ts);
    }
    for (const auto& [cid, container] : timeline.containers) {
      for (const auto& [kind, ts] : container.first_ts) {
        emit(app, cid.str(), kind, ts);
      }
    }
  }
  return out;
}

std::string analysis_json(const AnalysisResult& result) {
  json::Writer w;
  // Sized once: a document of megabytes is not grown by doubling.
  w.reserve(analysis_json_estimate(result));
  w.begin_object();
  w.key("summary").begin_object();
  w.field("lines_total", static_cast<std::int64_t>(result.lines_total));
  w.field("lines_unparsed", static_cast<std::int64_t>(result.lines_unparsed));
  w.field("events_total", static_cast<std::int64_t>(result.events_total));
  w.field("events_unattributed",
          static_cast<std::int64_t>(result.events_unattributed));
  // `delays` covers retired (evicted-timeline) applications too; in a
  // batch analysis it always equals `timelines.size()`.
  w.field("applications", static_cast<std::int64_t>(result.delays.size()));
  w.field("anomalies", static_cast<std::int64_t>(result.anomalies.size()));
  w.field("diagnostics",
          static_cast<std::int64_t>(result.diag_counts.total()));
  w.end_object();

  // Per-kind totals (always every kind, zero included, so consumers can
  // key on a stable schema) plus the individual records.
  w.key("diagnostics").begin_object();
  w.key("counts").begin_object();
  for (std::size_t i = 0; i < logging::kDiagnosticKindCount; ++i) {
    const auto kind = static_cast<logging::DiagnosticKind>(i);
    w.field(logging::diagnostic_kind_name(kind),
            static_cast<std::int64_t>(result.diag_counts.of(kind)));
  }
  w.end_object();
  w.key("records").begin_array();
  for (const logging::Diagnostic& diagnostic : result.diagnostics) {
    w.begin_object();
    w.field("kind", logging::diagnostic_kind_name(diagnostic.kind));
    w.field("stream", diagnostic.stream);
    w.field("line", static_cast<std::int64_t>(diagnostic.line_no));
    w.field("count", static_cast<std::int64_t>(diagnostic.count));
    w.field("detail", diagnostic.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("aggregate").begin_object();
  for (const auto& [name, set] : result.aggregate.metrics()) {
    w.key(name).begin_object();
    w.field("n", static_cast<std::int64_t>(set->size()));
    if (!set->empty()) {
      w.field("median_s", set->median());
      w.field("p95_s", set->p95());
      w.field("mean_s", set->mean());
      w.field("stddev_s", set->stddev());
    }
    w.end_object();
  }
  w.end_object();

  w.key("apps").begin_array();
  for (const auto& [app, delays] : result.delays) {
    w.begin_object();
    w.field("app", app.str());
    w.field("total_ms", delays.total);
    w.field("am_ms", delays.am);
    w.field("cf_ms", delays.cf);
    w.field("cl_ms", delays.cl);
    w.field("driver_ms", delays.driver);
    w.field("executor_ms", delays.executor);
    w.field("in_app_ms", delays.in_app);
    w.field("out_app_ms", delays.out_app);
    w.field("alloc_ms", delays.alloc);
    w.key("containers").begin_array();
    for (const ContainerDelays& container : delays.containers) {
      w.begin_object();
      w.field("container", container.id.str());
      w.field("is_am", container.is_am);
      w.field("acquisition_ms", container.acquisition);
      w.field("localization_ms", container.localization);
      w.field("queuing_ms", container.queuing);
      w.field("launching_ms", container.launching);
      w.field("executor_idle_ms", container.executor_idle);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("anomalies").begin_array();
  for (const Anomaly& anomaly : result.anomalies) {
    w.begin_object();
    w.field("type", anomaly_type_name(anomaly.type));
    w.field("app", anomaly.app.str());
    w.field("entity", anomaly.entity);
    w.field("detail", anomaly.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string cdf_csv(const SampleSet& samples, std::size_t points) {
  std::string out = "value,probability\n";
  char buf[64];
  for (const auto& [value, probability] : samples.cdf(points)) {
    std::snprintf(buf, sizeof(buf), "%.6f,%.4f\n", value, probability);
    out += buf;
  }
  return out;
}

}  // namespace sdc::checker
