// Check (d): the observability vocabulary covers the decomposition.
//
// Every delay component the analyzer reports (AggregateReport::metrics())
// must appear in the shared component catalog
// (checker::delay_component_specs()), carry a histogram that observing
// a fully-populated synthetic application registers, and materialize as
// a trace slice when that application is rendered through the
// production trace exporter.  This pins the three surfaces —
// decomposition, metrics registry, trace export — to one vocabulary;
// a catalog that drops or invents a component is a finding, not a
// silent gap.
#pragma once

#include <span>
#include <vector>

#include "sdchecker/report.hpp"
#include "sdlint/findings.hpp"

namespace sdc::lint {

/// Runs the vocabulary check against an arbitrary catalog (fixtures pass
/// deliberately truncated ones).
std::vector<Finding> check_obs_vocabulary(
    std::span<const checker::DelayComponentSpec> specs);

/// check_obs_vocabulary over the real catalog.
std::vector<Finding> check_real_obs_vocabulary();

}  // namespace sdc::lint
