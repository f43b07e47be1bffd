// The four workloads.  Each builds its testbed from the seed, measures,
// checks its outputs and fills the report: end-to-end metrics in an
// untraced run, per-layer metrics in a traced one.
#pragma once

#include "harness.hpp"

namespace e2e {

void run_tunnel(const Options& opt, bool sealed, Report& report);
void run_ttcp_wan(const Options& opt, Report& report);
void run_churn_soak(const Options& opt, Report& report);

}  // namespace e2e
