// verify: one operation is one full-suite semantics sweep — the work of
// `veccost --no-cache --jobs 1 verify` — run on a fresh thread, so the
// engine's thread-local program cache and workload pool start cold, as
// they do in a fresh CLI process.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "eval/session.hpp"
#include "machine/exec_engine.hpp"
#include "machine/executor.hpp"
#include "machine/targets.hpp"
#include "machine/workload_pool.hpp"
#include "support/error.hpp"
#include "testing/differential_oracle.hpp"
#include "tsvc/kernel.hpp"
#include "tsvc/workload.hpp"
#include "vectorizer/loop_vectorizer.hpp"
#include "xform/analysis_manager.hpp"

namespace perfbench {
namespace {

using namespace veccost;

constexpr std::int64_t kN = 4096;                // SuiteRequest's default
constexpr std::uint64_t kWorkloadSeed = 0x5eed;  // validate_kernel_semantics'
constexpr int kRequestedVfs[] = {0, 2, 8};       // natural, 2, 8

const machine::TargetDesc& target() { return machine::target_by_name(kTarget); }

eval::SessionOptions session_options(const Args& a) {
  eval::SessionOptions o;
  o.jobs = 1;
  o.use_cache = false;
  o.cache_dir = a.work_dir + "/cache";
  return o;
}

template <class F>
void on_fresh_thread(F&& f) {
  std::exception_ptr error;
  std::thread t([&] {
    try {
      f();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
}

/// The distinct executable vectorizations of `scalar` that the semantics
/// sweep validates (requested VF natural/2/8, no runtime check, deduplicated
/// by VF), each produced through `analyses` and timed into `layers`.
template <class Visit>
void for_each_validated_vectorization(const ir::LoopKernel& scalar,
                                      xform::AnalysisManager& analyses,
                                      Layers& layers, Visit&& visit) {
  std::vector<int> tried;
  for (const int requested : kRequestedVfs) {
    vectorizer::LoopVectorizerOptions opts;
    opts.requested_vf = requested;
    const analysis::Legality& legality =
        layers.time("analysis.legality_ms", [&]() -> const analysis::Legality& {
          return analyses.legality(scalar, opts.legality);
        });
    const auto vec = layers.time("vectorizer.vectorize_ms", [&] {
      return vectorizer::vectorize_legal(scalar, target(), opts, legality);
    });
    if (!vec.ok || vec.runtime_check) continue;
    if (std::find(tried.begin(), tried.end(), vec.vf) != tried.end()) continue;
    tried.push_back(vec.vf);
    visit(vec.kernel);
  }
}

/// The programs lowered_execute_vectorized looks up for (vec, scalar) under
/// the default dispatch, looked up ahead of the execution so that the
/// lowering is timed apart from it (the execution then hits the cache).
void prelower(const ir::LoopKernel& vec, const ir::LoopKernel& scalar) {
  if (vec.predicated || !(vec.nest == scalar.nest)) return;
  const auto vprog = machine::cached_lowering(vec, vec.vf);
  const auto sprog = machine::cached_lowering(scalar, 1);
  if (machine::dispatch_kind() == machine::DispatchKind::Batch &&
      vprog->strip_ok && vprog->strip_max_lanes >= machine::kStripWidth &&
      vprog->phis.empty() && sprog->phis.empty())
    (void)machine::cached_lowering(vec, machine::kStripWidth);
}

/// The untraced operation: the program's own entry point.
std::size_t verify_op(const Args& a) {
  eval::SuiteRequest request;
  request.validate_semantics = true;
  request.validation_n = kN;
  return eval::Session(target(), session_options(a))
      .measure(request)
      .validated_configurations;
}

/// The traced operation: the same work through the same public calls that
/// Session::measure and eval::validate_kernel_semantics make, with a
/// stopwatch around each call.
std::size_t traced_verify_op(const Args& a, Layers& layers) {
  const eval::Session session(target(), session_options(a));
  layers.time("eval.measure_ms", [&] { (void)session.measure({}); });
  machine::WorkloadPool& pool = machine::WorkloadPool::thread_local_pool();
  std::size_t configs = 0;
  for (const tsvc::KernelInfo& info : tsvc::suite()) {
    const ir::LoopKernel scalar =
        layers.time("tsvc.build_ms", [&] { return info.build(); });
    xform::AnalysisManager analyses;
    machine::Workload& ws =
        layers.time("machine.workload_ms", [&]() -> machine::Workload& {
          return pool.acquire(scalar, kN, kWorkloadSeed, 0);
        });
    const auto runner = layers.time("machine.lower_ms", [&] {
      return std::make_unique<machine::BatchRunner>(scalar);
    });
    const machine::ExecResult rs =
        layers.time("machine.execute_ms", [&] { return runner->run(ws); });
    for_each_validated_vectorization(
        scalar, analyses, layers, [&](const ir::LoopKernel& vec) {
          machine::Workload& wv =
              layers.time("machine.workload_ms", [&]() -> machine::Workload& {
                return pool.acquire(scalar, kN, kWorkloadSeed, 1);
              });
          layers.time("machine.lower_ms", [&] { prelower(vec, scalar); });
          const machine::ExecResult rv = layers.time("machine.execute_ms", [&] {
            return machine::execute_vectorized(vec, scalar, wv);
          });
          const double diff = layers.time("tsvc.compare_ms", [&] {
            return tsvc::max_abs_difference(ws, wv);
          });
          bool same = diff == 0.0 && rs.iterations == rv.iterations &&
                      rs.live_outs.size() == rv.live_outs.size();
          for (std::size_t i = 0; same && i < rs.live_outs.size(); ++i)
            same = std::abs(rv.live_outs[i] - rs.live_outs[i]) <=
                   1e-2 * std::max(1.0, std::abs(rs.live_outs[i]));
          if (!same)
            throw Error("traced sweep: " + info.name + " diverged at vf=" +
                        std::to_string(vec.vf));
          ++configs;
        });
  }
  return configs;
}

struct ReferenceCheck {
  std::size_t pairs = 0;
  std::vector<std::string> mismatches;
};

bool bitwise_equal(const machine::Workload& a, const machine::Workload& b) {
  if (a.arrays.size() != b.arrays.size()) return false;
  for (std::size_t i = 0; i < a.arrays.size(); ++i) {
    if (a.arrays[i].size() != b.arrays[i].size()) return false;
    if (std::memcmp(a.arrays[i].data(), b.arrays[i].data(),
                    a.arrays[i].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// The output check, computed apart from the sweep under test: every pair
/// the sweep validates is run vectorized on the lowered engine (with
/// `fault` applied to the widened kernel, for the negative control) and
/// scalar on the reference interpreter, over fresh workloads.
ReferenceCheck reference_check(const testing::KernelMutator& fault) {
  ReferenceCheck out;
  Layers untimed(false);
  for (const tsvc::KernelInfo& info : tsvc::suite()) {
    const ir::LoopKernel scalar = info.build();
    xform::AnalysisManager analyses;
    for_each_validated_vectorization(
        scalar, analyses, untimed, [&](const ir::LoopKernel& widened) {
          ++out.pairs;
          ir::LoopKernel vec = widened;
          if (fault) (void)fault(vec);
          const std::string where =
              info.name + " vf=" + std::to_string(widened.vf);
          machine::Workload wv = machine::make_workload(scalar, kN, kWorkloadSeed);
          machine::Workload ws = machine::make_workload(scalar, kN, kWorkloadSeed);
          machine::ExecResult rv;
          try {
            rv = machine::execute_vectorized(vec, scalar, wv);
          } catch (const std::exception& e) {
            out.mismatches.push_back(where + ": " + e.what());
            return;
          }
          const machine::ExecResult rs =
              machine::reference_execute_scalar(scalar, ws);
          if (!bitwise_equal(ws, wv)) {
            out.mismatches.push_back(where + ": memory differs");
          } else if (rs.iterations != rv.iterations) {
            out.mismatches.push_back(where + ": iteration count differs");
          } else if (rs.live_outs.size() != rv.live_outs.size()) {
            out.mismatches.push_back(where + ": live-out count differs");
          } else {
            for (std::size_t i = 0; i < rs.live_outs.size(); ++i) {
              const double ref = rs.live_outs[i];
              if (std::abs(rv.live_outs[i] - ref) >
                  1e-2 * std::max(1.0, std::abs(ref))) {
                out.mismatches.push_back(where + ": live-out " +
                                         std::to_string(i) + " differs");
                break;
              }
            }
          }
        });
  }
  return out;
}

}  // namespace

int setup_verify(const Args&) {
  (void)tsvc::suite();
  (void)target();
  std::cout << "ready" << std::endl;
  return 0;
}

int run_verify(const Args& a) {
  (void)tsvc::suite();
  Layers layers(a.trace);
  TimedPhase phase;
  std::vector<double> op_ms;
  std::vector<std::size_t> configs;
  std::vector<std::string> errors;
  double peak_rss = 0;
  const auto before = obs::Registry::global().snapshot();
  while (phase.wall_ms() < a.seconds * 1e3) {
    std::size_t c = 0;
    std::string error;
    op_ms.push_back(phase.measure([&] {
      on_fresh_thread([&] {
        try {
          c = a.trace ? traced_verify_op(a, layers) : verify_op(a);
        } catch (const std::exception& e) {
          error = e.what();
        }
      });
    }));
    configs.push_back(c);
    errors.push_back(error);
    if (op_ms.size() == 1) peak_rss = process_peak_rss_mb();
  }
  const auto after = obs::Registry::global().snapshot();

  // Checks run after the timed phase; the reference sweep is deterministic,
  // so one sweep checks every operation's verdict and pair count.
  const ReferenceCheck ref = reference_check(nullptr);
  RunResult r;
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    ++r.attempted;
    if (!errors[i].empty())
      r.fail("op " + std::to_string(i) + ": " + errors[i]);
    else if (!ref.mismatches.empty())
      r.fail("reference interpreter disagrees: " + ref.mismatches.front());
    else if (configs[i] != ref.pairs)
      r.fail("op " + std::to_string(i) + " validated " +
             std::to_string(configs[i]) + " pairs, the reference sweep " +
             std::to_string(ref.pairs));
  }
  const double ops = static_cast<double>(op_ms.size());
  if (!a.trace) {
    r.add("latency_p50_ms", median(op_ms), "ms");
    r.add("cpu_ms_per_op", phase.cpu_ms() / ops, "ms");
    r.add("peak_rss_mb", peak_rss, "MB");
  } else {
    for (const auto& [name, v] : counter_deltas(before, after))
      r.counters_per_op[name] = v / ops;
    r.add_layers(layers, phase.wall_ms(), op_ms.size());
    r.add("machine.configs", mean(std::vector<double>(configs.begin(),
                                                      configs.end())),
          "count");
    r.add("pool.builds", r.counters_per_op["pool.builds"], "count");
    r.add("lowering.programs", r.counters_per_op["lowering.programs"], "count");
  }
  emit(a, r);
  return 0;
}

int selfcheck_verify(const Args&) {
  const ReferenceCheck clean = reference_check(nullptr);
  const ReferenceCheck faulty = reference_check(testing::demo_lowering_fault());
  std::vector<Control> controls;
  controls.push_back(
      {"clean sweep passes the reference check", clean.mismatches.empty(),
       std::to_string(clean.pairs) + " pairs, " +
           std::to_string(clean.mismatches.size()) + " mismatches"});
  controls.push_back(
      {"demo_lowering_fault on the vectorized kernels",
       !faulty.mismatches.empty(),
       std::to_string(faulty.mismatches.size()) + " of " +
           std::to_string(faulty.pairs) + " pairs flagged" +
           (faulty.mismatches.empty() ? "" : ", e.g. " + faulty.mismatches[0])});
  return report_controls("verify", controls);
}

}  // namespace perfbench
