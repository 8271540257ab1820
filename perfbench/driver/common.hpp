// Shared plumbing of the benchmark driver: command-line arguments, the
// traced run's layer stopwatches, CPU/RSS probes, and the result record
// every workload prints as its last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The measured target of every workload.
inline constexpr const char* kTarget = "cortex-a57";

struct Args {
  std::string mode;      ///< setup | run | selfcheck
  std::string workload;  ///< verify | train | tune | serve
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int port = 0;          ///< serve: the daemon's port
  int daemon_pid = 0;    ///< serve: the daemon's pid (CPU / RSS probes)
  std::string work_dir;  ///< scratch directory for caches (inside the checkout)
};

[[nodiscard]] Args parse_args(int argc, char** argv);

/// Per-layer stopwatches for the traced run. Layers are timed around the
/// public calls the benchmark makes into each module; with tracing off,
/// time() only calls its argument.
class Layers {
 public:
  explicit Layers(bool on) : on_(on) {}

  template <class F>
  decltype(auto) time(const char* name, F&& f) {
    const Guard guard(on_ ? this : nullptr, on_ ? slot(name) : 0);
    return f();
  }
  /// Charge `ms` to a layer timed by other means.
  void add(const char* name, double ms) { totals_[slot(name)].second += ms; }
  [[nodiscard]] bool on() const { return on_; }
  /// Accumulated milliseconds per layer, in first-use order.
  [[nodiscard]] const std::vector<std::pair<const char*, double>>& totals()
      const {
    return totals_;
  }
  [[nodiscard]] double total(const char* name) const;
  [[nodiscard]] double sum() const;

 private:
  /// Charges the time between its construction and destruction to slot
  /// `index` (an index, not a reference: a nested time() may grow totals_).
  struct Guard {
    Guard(Layers* layers, std::size_t index) : layers_(layers), index_(index) {
      if (layers_ != nullptr) start_ = Clock::now();
    }
    ~Guard() {
      if (layers_ != nullptr)
        layers_->totals_[index_].second += ms_between(start_, Clock::now());
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Layers* layers_;
    std::size_t index_;
    Clock::time_point start_;
  };
  /// Index of `name`'s slot in totals_, added on first use.
  std::size_t slot(const char* name);

  bool on_;
  std::vector<std::pair<const char*, double>> totals_;
};

/// User + system CPU of this process so far, in milliseconds.
[[nodiscard]] double process_cpu_ms();
/// Peak resident set of this process so far, in MB. Batch workloads read it
/// at the end of their first operation (first pass for tune): the peak a
/// fresh CLI invocation doing the same work reaches. Later operations run
/// on threads whose metrics shards the obs registry keeps, which would make
/// a reading at the end grow with the number of operations.
[[nodiscard]] double process_peak_rss_mb();

/// Wall/CPU bookkeeping of a batch workload's timed phase. Only the spans
/// passed to `measure` count; checks run between them, untimed.
class TimedPhase {
 public:
  /// Run `f` as part of the timed phase; returns its wall time in ms.
  template <class F>
  double measure(F&& f) {
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    f();
    const double ms = ms_between(t0, Clock::now());
    cpu_ms_ += process_cpu_ms() - cpu0;
    wall_ms_ += ms;
    return ms;
  }
  [[nodiscard]] double wall_ms() const { return wall_ms_; }
  [[nodiscard]] double cpu_ms() const { return cpu_ms_; }

 private:
  double wall_ms_ = 0;
  double cpu_ms_ = 0;
};

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Counter deltas between two registry snapshots.
[[nodiscard]] std::map<std::string, double> counter_deltas(
    const veccost::obs::Snapshot& before, const veccost::obs::Snapshot& after);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one driver run reports. `failed` counts every operation that failed
/// a check; `correct` is false when any failure is not the known fault the
/// workload documents (see README.md).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< first few distinct messages
  std::map<std::string, double> counters_per_op;  ///< traced runs only

  void fail(std::string message, bool known_fault = false);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Per-layer means per operation plus op_ms and residual_ms, from the
  /// traced run's stopwatches over `ops` operations of `op_wall_ms` total.
  void add_layers(const Layers& layers, double op_wall_ms, std::size_t ops);
};

/// Print the human-readable report to stderr and the result as the last
/// line of stdout (one JSON object).
void emit(const Args& args, const RunResult& result);

/// One line of the self-check: a check run on clean outputs, which must
/// pass, or under a known fault, which it must catch. `held` says whether
/// the check behaved as required.
struct Control {
  std::string name;
  bool held = false;
  std::string detail;
};

/// Print the controls; returns the process exit code (0 = every control
/// made its check fail).
int report_controls(const std::string& workload,
                    const std::vector<Control>& controls);

// Workload entry points (one file each).
int setup_verify(const Args&);
int run_verify(const Args&);
int selfcheck_verify(const Args&);
int setup_train(const Args&);
int run_train(const Args&);
int selfcheck_train(const Args&);
int setup_tune(const Args&);
int run_tune(const Args&);
int selfcheck_tune(const Args&);
int run_serve(const Args&);
int selfcheck_serve(const Args&);

}  // namespace perfbench
