#include "sdchecker/export.hpp"

#include <charconv>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common/json.hpp"

namespace sdc::checker {
namespace {

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void append_opt(std::string& out, const std::optional<std::int64_t>& value,
                bool trailing_comma = true) {
  if (value) append_int(out, *value);
  if (trailing_comma) out += ',';
}

/// A JSON number, or `null` for an absent value.
void append_json_ms(std::string& out, const std::optional<std::int64_t>& ms) {
  if (ms) {
    append_int(out, *ms);
  } else {
    out += "null";
  }
}

/// The delay fields of an `apps` row and of one of its containers, in
/// document order, each with the fragment that precedes its value.
template <typename Row>
using Field = std::pair<std::string_view, std::optional<std::int64_t> Row::*>;

constexpr Field<Delays> kAppFields[] = {
    {",\"total_ms\":", &Delays::total},
    {",\"am_ms\":", &Delays::am},
    {",\"cf_ms\":", &Delays::cf},
    {",\"cl_ms\":", &Delays::cl},
    {",\"driver_ms\":", &Delays::driver},
    {",\"executor_ms\":", &Delays::executor},
    {",\"in_app_ms\":", &Delays::in_app},
    {",\"out_app_ms\":", &Delays::out_app},
    {",\"alloc_ms\":", &Delays::alloc},
};

constexpr Field<ContainerDelays> kContainerFields[] = {
    {",\"acquisition_ms\":", &ContainerDelays::acquisition},
    {",\"localization_ms\":", &ContainerDelays::localization},
    {",\"queuing_ms\":", &ContainerDelays::queuing},
    {",\"launching_ms\":", &ContainerDelays::launching},
    {",\"executor_idle_ms\":", &ContainerDelays::executor_idle},
};

/// Writes one `apps` row into `row`: literal keys, numbers and ids
/// appended in place.  Ids are letters, digits and `_`, and the keys are
/// fixed, so nothing here needs escaping.
void render_app_row(std::string& row, const ApplicationId& app,
                    const Delays& delays) {
  row.clear();
  row += "{\"app\":\"";
  app.append_to(row);
  row += '"';
  for (const auto& [fragment, member] : kAppFields) {
    row += fragment;
    append_json_ms(row, delays.*member);
  }
  row += ",\"containers\":[";
  bool first = true;
  for (const ContainerDelays& container : delays.containers) {
    row += first ? "{\"container\":\"" : ",{\"container\":\"";
    first = false;
    container.id.append_to(row);
    row += container.is_am ? "\",\"is_am\":true" : "\",\"is_am\":false";
    for (const auto& [fragment, member] : kContainerFields) {
      row += fragment;
      append_json_ms(row, container.*member);
    }
    row += '}';
  }
  row += "]}";
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
    app.append_to(out);
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
      app.append_to(out);
      out += ',';
      container.id.append_to(out);
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
  // An app-level event has no container: its cell stays empty.
  const auto emit = [&out](const ApplicationId& app, const ContainerId* cid,
                           EventKind kind, std::int64_t ts) {
    app.append_to(out);
    out += ',';
    if (cid != nullptr) cid->append_to(out);
    out += ',';
    append_int(out, table1_number(kind));
    out += ',';
    out += event_name(kind);
    out += ',';
    append_int(out, ts);
    out += '\n';
  };
  for (const auto& [app, timeline] : result.timelines) {
    for (const auto& [kind, ts] : timeline.first_ts) {
      emit(app, nullptr, kind, ts);
    }
    for (const auto& [cid, container] : timeline.containers) {
      for (const auto& [kind, ts] : container.first_ts) {
        emit(app, &cid, kind, ts);
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

  // One reused buffer per row, spliced in whole: the rows are most of
  // the document.
  w.key("apps").begin_array();
  std::string row;
  for (const auto& [app, delays] : result.delays) {
    render_app_row(row, app, delays);
    w.raw(row);
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
