#include "sdchecker/stream_cursor.hpp"

#include <algorithm>

namespace sdc::checker {

using logging::Diagnostic;
using logging::DiagnosticKind;

std::optional<ParsedLine> StreamCursor::feed(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  ++line_no_;
  auto parsed = parse_line(line);
  if (!parsed) {
    note_unparsed(line);
    return parsed;
  }
  // This line closes the run that was open before it.
  if (!runs_.empty()) {
    const Run& closed = runs_.back();
    if (closed.start + closed.len == line_no_ && !retained(closed)) {
      runs_.pop_back();
    }
  }
  if (!first_ts_) {
    first_ts_ = parsed->epoch_ms;
    first_parsed_line_ = line_no_;
  }
  if (last_ts_ && *last_ts_ - parsed->epoch_ms > kSkewBudgetMs) {
    note_regression(line_no_, *last_ts_ - parsed->epoch_ms);
  }
  last_ts_ = parsed->epoch_ms;
  if (kind_ == StreamKind::kUnknown) kind_ = classify_line(*parsed);
  if (!first_container_) first_container_ = find_container_id(parsed->message);
  if (!bound_app_) {
    // Unbound so far, a container seen now was found on this line.
    bound_app_ = find_application_id(parsed->message);
    if (!bound_app_ && first_container_) bound_app_ = first_container_->app;
  }
  return parsed;
}

void StreamCursor::note_unparsed(std::string_view line) {
  ++unparsed_;
  const UnparsedClass fail = classify_unparsed_line(line);
  if (fail == UnparsedClass::kBinaryGarbage) garbage_.note(line_no_);
  if (fail == UnparsedClass::kTruncated) cut_.note(line_no_);
  const bool plain = fail == UnparsedClass::kPlain;
  if (runs_.empty() || runs_.back().start + runs_.back().len != line_no_) {
    runs_.push_back(Run{line_no_, 0, plain, plain});
  }
  ++runs_.back().len;
  runs_.back().last_plain = plain;
}

void StreamCursor::note_regression(std::size_t line, std::int64_t jump_ms) {
  regression_.note(line);
  regression_max_ms_ = std::max(regression_max_ms_, jump_ms);
}

void StreamCursor::join(const StreamCursor& next) {
  const std::size_t base = line_no_;
  unparsed_ += next.unparsed_;
  garbage_.join(next.garbage_, base);
  cut_.join(next.cut_, base);
  // A jump backwards across the seam precedes every jump inside `next`.
  if (next.first_ts_ && last_ts_ &&
      *last_ts_ - *next.first_ts_ > kSkewBudgetMs) {
    note_regression(base + next.first_parsed_line_,
                    *last_ts_ - *next.first_ts_);
  }
  regression_.join(next.regression_, base);
  regression_max_ms_ = std::max(regression_max_ms_, next.regression_max_ms_);
  if (next.last_ts_) last_ts_ = next.last_ts_;
  if (!first_ts_ && next.first_ts_) {
    first_ts_ = next.first_ts_;
    first_parsed_line_ = base + next.first_parsed_line_;
  }
  if (kind_ == StreamKind::kUnknown) kind_ = next.kind_;
  if (!bound_app_) bound_app_ = next.bound_app_;
  if (!first_container_) first_container_ = next.first_container_;
  // Our open run continues into the run at `next`'s first line.
  for (Run run : next.runs_) {
    run.start += base;
    if (!runs_.empty() && runs_.back().start + runs_.back().len == run.start) {
      runs_.back().len += run.len;
      runs_.back().last_plain = run.last_plain;
    } else {
      runs_.push_back(run);
    }
  }
  line_no_ = base + next.line_no_;
  std::erase_if(runs_, [this](const Run& run) { return !retained(run); });
}

void StreamCursor::render(const std::string& stream,
                          std::vector<Diagnostic>& out) const {
  if (garbage_.count > 0) {
    out.push_back(Diagnostic{DiagnosticKind::kBinaryGarbage, stream,
                             garbage_.first_line, garbage_.count,
                             "line(s) contain NUL or mostly non-printable "
                             "bytes"});
  }
  if (cut_.count > 0) {
    out.push_back(Diagnostic{DiagnosticKind::kTruncatedLine, stream,
                             cut_.first_line, cut_.count,
                             "line(s) cut mid-write: timestamp intact, "
                             "remainder malformed"});
  }
  const bool head_tear =
      !runs_.empty() && runs_.front().start == 1 && runs_.front().first_plain;
  if (head_tear) {
    out.push_back(Diagnostic{DiagnosticKind::kTruncatedLine, stream, 1, 1,
                             "stream begins mid-line (head truncation or "
                             "rotation tear)"});
  }
  for (const Run& run : runs_) {
    if (run.len >= kUnparsableBurstMin) {
      out.push_back(Diagnostic{DiagnosticKind::kUnparsableBurst, stream,
                               run.start, run.len,
                               std::to_string(run.len) +
                                   " consecutive unparsable lines"});
    }
  }
  if (!runs_.empty()) {
    const Run& last = runs_.back();
    const bool is_tail = last.start + last.len == line_no_ + 1;
    // A one-line stream torn at both ends is reported once, as the head.
    const bool head_already = head_tear && last.start == 1 && last.len == 1;
    if (is_tail && last.last_plain && !head_already) {
      out.push_back(Diagnostic{DiagnosticKind::kTruncatedLine, stream,
                               line_no_, 1,
                               "stream ends mid-line (tail truncation)"});
    }
  }
  if (regression_.count > 0) {
    out.push_back(Diagnostic{
        DiagnosticKind::kTimestampRegression, stream, regression_.first_line,
        regression_.count,
        "timestamp jumped backwards by up to " +
            std::to_string(regression_max_ms_) + " ms (budget " +
            std::to_string(kSkewBudgetMs) + " ms)"});
  }
}

std::optional<EventKind> StreamCursor::first_log_kind() const {
  if (kind_ == StreamKind::kDriver) return EventKind::kDriverFirstLog;
  if (kind_ == StreamKind::kExecutor) return EventKind::kExecutorFirstLog;
  return std::nullopt;
}

}  // namespace sdc::checker
