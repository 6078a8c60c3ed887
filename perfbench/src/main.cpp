// Command-line entry point of the deflation stack's benchmark.
//
//   perfbench --workload replay|market|service --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--source ID]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
// (a separate, traced invocation). The last line of standard output is the
// JSON result; see README.md for the metrics and the checks.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "service_workload.hpp"
#include "sim_workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload replay|market|service --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--source ID]\n";
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--source") {
        options.source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.workload != "replay" && options.workload != "market" &&
      options.workload != "service") {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options = parse(argc, argv);
  // Every thread count is pinned by the workload definitions. The
  // process-wide pool (the arrival-index and trace builds fan out on it)
  // has no API knob, so it is pinned here, before its first use.
  setenv("DEFLATE_THREADS", "1", 1);
  unsetenv("DEFLATE_BENCH_SCALE");
  options.cpu = perfbench::pin_to_one_cpu();

  std::cout << "host " << perfbench::host_record(options) << std::endl;
  perfbench::Result result;
  try {
    if (options.workload == "service") {
      perfbench::run_service_workload(options, result);
    } else {
      perfbench::run_sim_workload(options, result);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload
              << " failed: " << error.what() << "\n";
    return 1;
  }
  result.print(options.trace);
  return 0;
}
