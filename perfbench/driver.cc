// perfbench_driver: runs one benchmark workload and prints its result as
// one JSON line on stdout ({"correct", "attempted", "failed", "metrics"});
// the same metrics, readable, go to stderr. Exits non-zero when any output
// was wrong. run.py builds this binary and is the benchmark's entry point.
//
//   perfbench_driver --workload W --seed S --seconds T --trace 0|1
//                    [--negative] [--work-dir DIR] [--rate R]
//
// --negative arms a fault injector in the engines (or the daemon): failed
// operations must then be counted, which proves the failure counter live.
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& err) {
  std::cerr << "perfbench_driver: " << err
            << "\nusage: perfbench_driver --workload "
               "rake_compress_mmap|edge_coloring_tree|mis_tree|serve_mixed "
               "--seed S --seconds T --trace 0|1 [--negative] "
               "[--work-dir DIR] [--rate R]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::string(argv[1]) == "--daemon") {
    return DaemonMain(argc, argv);
  }
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--negative") {
        opt.negative = true;
      } else if (a == "--work-dir") {
        opt.work_dir = value();
      } else if (a == "--rate") {
        opt.rate = std::stod(value());
      } else {
        Usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + a);
    }
  }
  if (opt.seconds <= 0) Usage("--seconds must be > 0");

  const std::map<std::string, Report (*)(const Options&)> workloads = {
      {"rake_compress_mmap", RunRakeCompressMmap},
      {"edge_coloring_tree", RunEdgeColoringTree},
      {"mis_tree", RunMisTree},
      {"serve_mixed", RunServeMixed},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) Usage("unknown workload '" + opt.workload + "'");

  try {
    std::filesystem::create_directories(opt.work_dir);
    const Report report = it->second(opt);
    std::cerr << opt.workload << " (seed " << opt.seed << ", trace "
              << opt.trace << (opt.negative ? ", negative control" : "")
              << "):\n"
              << report.Text();
    std::cout << report.Json() << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opt.workload << ": " << e.what()
              << "\n";
    return 1;
  }
}
