// bench_e2e — end-to-end IPOP benchmark driver.
//
//   bench_e2e --workload tunnel_clear|tunnel_sealed|ttcp_wan|churn_soak
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//
// Prints one JSON result line ({"correct", "attempted", "failed",
// "metrics"}) as the last line of stdout; progress and violations go to
// stderr.  Exits 1 when an output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      opt.workload = next();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      opt.seconds = std::atof(next());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = std::atoi(next()) != 0;
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      opt.trace_out = next();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  e2e::Report report;
  if (opt.workload == "tunnel_clear") {
    e2e::run_tunnel(opt, /*sealed=*/false, report);
  } else if (opt.workload == "tunnel_sealed") {
    e2e::run_tunnel(opt, /*sealed=*/true, report);
  } else if (opt.workload == "ttcp_wan") {
    e2e::run_ttcp_wan(opt, report);
  } else if (opt.workload == "churn_soak") {
    e2e::run_churn_soak(opt, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  report.print(stdout);
  return report.correct() ? 0 : 1;
}
