// End-to-end benchmark driver: one binary, four workloads.
//
//   perfbench --workload acq-multi|router-query|tcp-ingest|shm-ingest
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//             [--corrupt-oracle 1]
//
// Prints a table and, as the last line of stdout, one JSON object with the
// keys correct, attempted, failed and metrics. Exits 1 when any checked
// answer, count or transfer failed, 2 on bad arguments.

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "acq-multi|router-query|tcp-ingest|shm-ingest --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] "
               "[--corrupt-oracle 1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else if (key == "--corrupt-oracle") {
      opt.corrupt_oracle = std::strcmp(val, "0") != 0;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (!(opt.seconds >= 0.5 && opt.seconds <= 600)) {
    return Usage("--seconds must be in [0.5, 600]");
  }
  // Paced generators sleep until each batch is due; the default 50 µs
  // timer slack would make every wake-up that late. Inherited by every
  // thread and forked generator.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  perfbench::Report report;
  if (opt.workload == "acq-multi") {
    perfbench::RunAcqMulti(opt, report);
  } else if (opt.workload == "router-query") {
    perfbench::RunRouterQuery(opt, report);
  } else if (opt.workload == "tcp-ingest") {
    perfbench::RunTcpIngest(opt, report);
  } else if (opt.workload == "shm-ingest") {
    perfbench::RunShmIngest(opt, report);
  } else {
    return Usage("unknown --workload");
  }
  return report.Emit();
}
