#include "sdlint/runner.hpp"

#include "sdlint/contract_check.hpp"
#include "sdlint/coverage_check.hpp"
#include "sdlint/diag_check.hpp"
#include "sdlint/machine_check.hpp"
#include "sdlint/metrics_check.hpp"
#include "sdlint/prom_check.hpp"

namespace sdc::lint {

Report run_all_checks() {
  Report report;
  append_findings(report.findings, check_all_machines());
  append_findings(report.findings, check_real_contract());
  append_findings(report.findings, check_real_coverage());
  append_findings(report.findings, check_real_metrics());
  append_findings(report.findings, check_real_prom());
  append_findings(report.findings, check_real_diagnostics());
  return report;
}

}  // namespace sdc::lint
