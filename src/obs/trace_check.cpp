#include "obs/trace_check.hpp"

#include <map>
#include <set>
#include <utility>

#include "obs/json_parse.hpp"

namespace sdc::obs {
namespace {

const JsonValue* find(const JsonObject& object, const std::string& key) {
  return json_find(object, key);
}

}  // namespace

TraceCheckResult check_trace_json(std::string_view text,
                                  const TraceCheckOptions& options) {
  TraceCheckResult result;
  JsonValue root;
  std::string error;
  if (!parse_json(text, root, error)) {
    result.fail("parse error: " + error);
    return result;
  }
  const JsonObject* top = root.object();
  if (top == nullptr) {
    result.fail("top level is not an object");
    return result;
  }
  const JsonValue* events_value = find(*top, "traceEvents");
  const JsonArray* events =
      events_value != nullptr ? events_value->array() : nullptr;
  if (events == nullptr) {
    result.fail("missing \"traceEvents\" array");
    return result;
  }

  // Per-(pid,tid) last slice timestamp for the monotonicity check; per-pid
  // process names and slice-name sets for the required-slice check.
  std::map<std::pair<double, double>, double> last_ts;
  std::map<double, std::string> process_names;
  std::map<double, std::set<std::string>> slices_by_pid;

  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonObject* event = (*events)[i].object();
    const std::string at = "event #" + std::to_string(i);
    if (event == nullptr) {
      result.fail(at + ": not an object");
      continue;
    }
    ++result.events;
    const JsonValue* name = find(*event, "name");
    const JsonValue* ph = find(*event, "ph");
    const JsonValue* pid = find(*event, "pid");
    const JsonValue* tid = find(*event, "tid");
    if (name == nullptr || name->string() == nullptr) {
      result.fail(at + ": missing string \"name\"");
      continue;
    }
    if (ph == nullptr || ph->string() == nullptr || ph->string()->size() != 1) {
      result.fail(at + ": missing one-char \"ph\"");
      continue;
    }
    if (pid == nullptr || pid->number() == nullptr || tid == nullptr ||
        tid->number() == nullptr) {
      result.fail(at + ": missing numeric \"pid\"/\"tid\"");
      continue;
    }
    const char phase = (*ph->string())[0];
    if (phase == 'M') {
      if (*name->string() == "process_name") {
        const JsonValue* args = find(*event, "args");
        const JsonObject* args_object =
            args != nullptr ? args->object() : nullptr;
        const JsonValue* pname =
            args_object != nullptr ? find(*args_object, "name") : nullptr;
        if (pname == nullptr || pname->string() == nullptr) {
          result.fail(at + ": process_name without args.name");
        } else {
          process_names[*pid->number()] = *pname->string();
        }
      }
      continue;
    }
    if (phase != 'X' && phase != 'i' && phase != 'I') {
      result.fail(at + ": unsupported phase '" + std::string(1, phase) + "'");
      continue;
    }
    const JsonValue* ts = find(*event, "ts");
    if (ts == nullptr || ts->number() == nullptr) {
      result.fail(at + ": missing numeric \"ts\"");
      continue;
    }
    if (phase == 'X') {
      const JsonValue* dur = find(*event, "dur");
      if (dur == nullptr || dur->number() == nullptr) {
        result.fail(at + ": complete slice without numeric \"dur\"");
        continue;
      }
      if (*dur->number() < 0) {
        result.fail(at + " (" + *name->string() + "): negative dur");
      }
      const auto track = std::make_pair(*pid->number(), *tid->number());
      const auto it = last_ts.find(track);
      if (it != last_ts.end() && *ts->number() < it->second) {
        result.fail(at + " (" + *name->string() +
                    "): slice ts goes backwards on its track");
      }
      last_ts[track] = *ts->number();
      slices_by_pid[*pid->number()].insert(*name->string());
    }
  }

  result.processes = process_names.size();
  const auto require = [&](const std::string& pname, double pid,
                           const std::vector<std::string>& slices) {
    const auto it = slices_by_pid.find(pid);
    for (const std::string& required : slices) {
      if (it == slices_by_pid.end() ||
          it->second.find(required) == it->second.end()) {
        result.fail("process \"" + pname + "\": missing required slice \"" +
                    required + "\"");
      }
    }
  };
  std::set<std::string_view> named_seen;
  for (const auto& [pid, pname] : process_names) {
    if (!options.required_process_prefix.empty() &&
        pname.rfind(options.required_process_prefix, 0) == 0) {
      require(pname, pid, options.required_slices);
    }
    const auto named = options.required_slices_of.find(pname);
    if (named != options.required_slices_of.end()) {
      named_seen.insert(named->first);
      require(pname, pid, named->second);
    }
  }
  for (const auto& [pname, slices] : options.required_slices_of) {
    if (named_seen.count(pname) == 0) {
      result.fail("process \"" + pname + "\": missing");
    }
  }
  return result;
}

}  // namespace sdc::obs
