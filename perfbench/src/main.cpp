// perfbench: the repository benchmark's harness binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt-reference] [--spans-dir <dir>]
//
// Workloads: kernel_bound, latency_bound, ca_fused, serve_open_loop,
// des_fig8 (see perfbench/README.md). The last line of standard output is
// the JSON result; exit code 0 means a result was printed.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

/// Ends the process if a run overstays its time limit, so a hang becomes a
/// diagnosed non-zero exit instead of a silent stall.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %.0f s, aborting\n",
                         limit_s);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const Watchdog watchdog(std::min(170.0, 3.0 * args.seconds + 110.0));
  try {
    if (perfbench::is_solve_workload(args.workload)) {
      perfbench::run_solve_workload(args);
    } else if (args.workload == "serve_open_loop") {
      perfbench::run_serve_workload(args);
    } else if (args.workload == "des_fig8") {
      perfbench::run_des_workload(args);
    } else {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
