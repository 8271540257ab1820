// perfbench_driver — the in-process half of the veccost benchmark.
//
//   perfbench_driver setup     --workload W --work-dir D
//   perfbench_driver run       --workload W --work-dir D --seed N --seconds S
//                              --trace 0|1
//   perfbench_driver selfcheck --workload W --work-dir D [--seed N]
//
// `setup` does a workload's set-up, prints "ready" and exits: run.py times
// it from process spawn. `run` measures for S seconds and prints one JSON
// result line. `selfcheck` applies a known fault to each output check and
// exits 0 only if every check catches it. D holds the run's scratch files
// (measurement caches). The serve workload also takes --port and
// --daemon-pid of a daemon run.py started. See README.md.
#include <exception>
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const std::string& w = args.workload;
    if (args.mode == "setup") {
      if (w == "verify") return setup_verify(args);
      if (w == "train") return setup_train(args);
      if (w == "tune") return setup_tune(args);
    } else if (args.mode == "run") {
      if (w == "verify") return run_verify(args);
      if (w == "train") return run_train(args);
      if (w == "tune") return run_tune(args);
      if (w == "serve") return run_serve(args);
    } else if (args.mode == "selfcheck") {
      if (w == "verify") return selfcheck_verify(args);
      if (w == "train") return selfcheck_train(args);
      if (w == "tune") return selfcheck_tune(args);
      if (w == "serve") return selfcheck_serve(args);
    }
    std::cerr << "perfbench_driver: no mode '" << args.mode
              << "' for workload '" << w << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
