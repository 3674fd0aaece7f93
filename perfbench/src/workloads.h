#pragma once

#include "common.h"

namespace perfbench {

// Each runs one workload for opt.seconds of measurement, checks every
// answer it sampled against its oracle, and fills `report` with the
// end-to-end metrics (opt.trace == false) or the per-layer metrics.
void RunAcqMulti(const Options& opt, Report& report);
void RunRouterQuery(const Options& opt, Report& report);
void RunTcpIngest(const Options& opt, Report& report);
void RunShmIngest(const Options& opt, Report& report);

}  // namespace perfbench
