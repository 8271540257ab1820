// tune: one operation is one kernel's search inside a full-suite pass of
// `veccost --no-cache --jobs 1 tune --seed 1` (default policy). Each pass
// builds a fresh Session and surrogate first, as the CLI does; runs attempt
// whole passes, so the share of failed kernels is the same in every run.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "eval/experiments.hpp"
#include "eval/measurement.hpp"
#include "eval/session.hpp"
#include "machine/targets.hpp"
#include "tsvc/kernel.hpp"
#include "tune/surrogate.hpp"
#include "tune/tuner.hpp"
#include "xform/analysis_manager.hpp"
#include "xform/pipeline.hpp"

namespace perfbench {
namespace {

using namespace veccost;

const machine::TargetDesc& target() { return machine::target_by_name(kTarget); }

/// The known fault: SpecSpace::legal rejects the empty point, so the lattice
/// has no "leave the loop scalar" candidate and the search must recommend a
/// slowdown when every transform loses. These are the kernels it hits. A
/// slowdown on any other kernel is a new fault and makes the run incorrect.
const std::set<std::string> kKnownSlowdowns = {
    "s111", "s128", "s171", "s172", "s175",
    "s4112", "s4114", "s4117", "s4121", "vag"};

/// The failure message of a recommendation slower than the scalar loop, or "".
std::string slowdown(const tune::KernelTuneResult& r) {
  if (!r.ok || r.best_speedup >= 1.0) return "";
  return r.kernel + ": recommends " + r.best_spec + " at " +
         std::to_string(r.best_speedup) + "x, slower than scalar";
}

eval::SessionOptions session_options(const Args& a) {
  eval::SessionOptions o;
  o.jobs = 1;
  o.use_cache = false;
  o.cache_dir = a.work_dir + "/cache";
  return o;
}

/// What tune_suite does before its first kernel: one suite measurement and
/// an NNLS fit on rated features calibrate the surrogate.
struct Pass {
  std::unique_ptr<eval::Session> session;
  std::optional<tune::Surrogate> surrogate;
};

Pass start_pass(const Args& a, const tune::TuneOptions& opts) {
  Pass p;
  p.session = std::make_unique<eval::Session>(target(), session_options(a));
  eval::SuiteRequest req;
  req.noise = opts.noise;
  const eval::SuiteResult measured = p.session->measure(req);
  const eval::FitExperiment fit = eval::experiment_fit_speedup(
      measured.suite, model::Fitter::NNLS, analysis::FeatureSet::Rated);
  p.surrogate.emplace(p.session->target(), fit.model);
  return p;
}

/// Every output check of one kernel's verdict except the slowdown; returns
/// the first failure, or "".
std::string check_kernel(const tune::KernelTuneResult& r,
                         const tune::TuneOptions& opts) {
  if (!r.ok) return "";
  double best_traced = 0;
  const tune::SpecOutcome* llv = nullptr;
  for (const tune::SpecOutcome& o : r.trace) {
    if (!o.measured) continue;
    best_traced = std::max(best_traced, o.speedup);
    if (o.spec == "llv") llv = &o;
  }
  if (r.best_speedup != best_traced)
    return r.kernel + ": best_speedup " + std::to_string(r.best_speedup) +
           " is not the trace maximum " + std::to_string(best_traced);
  if (llv != nullptr && r.best_speedup < llv->speedup)
    return r.kernel + ": best_speedup below the llv anchor";
  const xform::Pipeline pipeline = xform::Pipeline::parse(r.best_spec);
  if (!pipeline.valid()) return r.kernel + ": best_spec does not parse";
  xform::AnalysisManager fresh;
  const eval::SpecMeasurement m =
      eval::measure_spec(tsvc::find_kernel(r.kernel)->build(), target(),
                         opts.noise, pipeline, fresh);
  if (!m.ok || m.speedup != r.best_speedup || m.cycles != r.best_cycles)
    return r.kernel + ": re-measuring " + r.best_spec + " gives " +
           std::to_string(m.speedup) + ", not " +
           std::to_string(r.best_speedup);
  return "";
}

}  // namespace

int setup_tune(const Args& a) {
  const Pass pass = start_pass(a, tune::TuneOptions{});
  std::cout << "ready" << std::endl;
  return 0;
}

int run_tune(const Args& a) {
  const tune::TuneOptions opts;  // the CLI's default policy, seed 1
  std::vector<std::string> order;
  for (const tsvc::KernelInfo& info : tsvc::suite()) order.push_back(info.name);
  // The benchmark seed only permutes the order kernels are visited in; each
  // kernel's search is a pure function of the kernel and the tune seed.
  std::mt19937_64 rng(a.seed);
  std::shuffle(order.begin(), order.end(), rng);

  Layers layers(a.trace);
  TimedPhase phase;
  RunResult r;
  std::vector<double> op_ms;
  double surrogate_ms = 0, search_ms = 0, geomean = 0, peak_rss = 0;
  std::size_t passes = 0, scored = 0, measured = 0, rejected = 0;
  const auto before = obs::Registry::global().snapshot();
  // The surrogate build is timed apart from the kernel searches (it is
  // part of setup_s), but counts towards the run's length.
  while (phase.wall_ms() + surrogate_ms < a.seconds * 1e3) {
    const auto pass_start = Clock::now();
    Pass pass = start_pass(a, opts);
    surrogate_ms += ms_between(pass_start, Clock::now());
    const tune::MeasureBatch measure =
        [&](const std::string& kernel, const std::vector<std::string>& specs) {
          std::vector<eval::SpecRequest> reqs;
          reqs.reserve(specs.size());
          for (const std::string& s : specs) reqs.push_back({kernel, s});
          return layers.time("eval.measure_specs_ms", [&] {
            return pass.session->measure_specs(reqs, opts.noise);
          });
        };
    std::vector<tune::KernelTuneResult> results;
    for (const std::string& name : order) {
      op_ms.push_back(phase.measure([&] {
        const ir::LoopKernel scalar = layers.time(
            "tsvc.build_ms", [&] { return tsvc::find_kernel(name)->build(); });
        const double in_measure = layers.total("eval.measure_specs_ms");
        const auto t0 = Clock::now();
        results.push_back(
            tune::tune_kernel(scalar, target(), opts, *pass.surrogate, measure));
        if (layers.on())
          search_ms += ms_between(t0, Clock::now()) -
                       (layers.total("eval.measure_specs_ms") - in_measure);
      }));
    }
    if (++passes == 1) peak_rss = process_peak_rss_mb();
    double log_sum = 0;
    std::size_t ok = 0;
    for (const tune::KernelTuneResult& k : results) {
      ++r.attempted;
      scored += k.scored;
      measured += k.measured;
      rejected += k.rejected;
      if (k.ok) {
        log_sum += std::log(k.best_speedup);
        ++ok;
      }
      const std::string why = check_kernel(k, opts);
      const std::string slower = slowdown(k);
      if (!why.empty())
        r.fail(why);
      else if (!slower.empty())
        r.fail(slower, kKnownSlowdowns.count(k.kernel) != 0);
    }
    geomean = ok == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(ok));
  }
  const auto after = obs::Registry::global().snapshot();
  const double ops = static_cast<double>(op_ms.size());
  if (!a.trace) {
    r.add("latency_p50_ms", median(op_ms), "ms");
    r.add("cpu_ms_per_op", phase.cpu_ms() / ops, "ms");
    r.add("peak_rss_mb", peak_rss, "MB");
  } else {
    for (const auto& [name, v] : counter_deltas(before, after))
      r.counters_per_op[name] = v / ops;
    // Ops are the kernel searches; the per-pass surrogate build is its own
    // layer, reported per pass and kept out of op_ms and residual_ms.
    layers.add("tune.search_ms", search_ms);
    double op_total = 0;
    for (const double ms : op_ms) op_total += ms;
    r.add_layers(layers, op_total, op_ms.size());
    r.add("tune.surrogate_ms", surrogate_ms / static_cast<double>(passes),
          "ms");
    r.add("tune.scored", static_cast<double>(scored) / ops, "count");
    r.add("tune.measured", static_cast<double>(measured) / ops, "count");
    r.add("tune.rejected", static_cast<double>(rejected) / ops, "count");
    r.add("xform.pipeline.runs", r.counters_per_op["xform.pipeline.runs"],
          "count");
    r.add("xform.analysis.miss", r.counters_per_op["xform.analysis.miss"],
          "count");
    r.add("tune.speedup_geomean", geomean, "1");
  }
  emit(a, r);
  return 0;
}

int selfcheck_tune(const Args& a) {
  const tune::TuneOptions opts;
  Pass pass = start_pass(a, opts);
  const tune::MeasureBatch measure =
      [&](const std::string& kernel, const std::vector<std::string>& specs) {
        std::vector<eval::SpecRequest> reqs;
        for (const std::string& s : specs) reqs.push_back({kernel, s});
        return pass.session->measure_specs(reqs, opts.noise);
      };
  std::vector<Control> controls;
  std::size_t clean_failures = 0, slowdowns = 0, unknown_slowdowns = 0,
              checked = 0;
  std::optional<tune::KernelTuneResult> victim;
  for (const tsvc::KernelInfo& info : tsvc::suite()) {
    const tune::KernelTuneResult k =
        tune::tune_kernel(info.build(), target(), opts, *pass.surrogate, measure);
    ++checked;
    if (!check_kernel(k, opts).empty()) ++clean_failures;
    if (!slowdown(k).empty()) {
      ++slowdowns;
      if (kKnownSlowdowns.count(k.kernel) == 0) ++unknown_slowdowns;
    }
    if (!victim && k.ok && k.measured >= 2) victim = k;
  }
  controls.push_back(
      {"clean pass passes every check",
       clean_failures == 0 && unknown_slowdowns == 0,
       std::to_string(checked) + " kernels, " + std::to_string(slowdowns) +
           " slowdowns, " + std::to_string(unknown_slowdowns) +
           " outside the known fault's kernels"});
  // A wrong best_spec: another measured candidate of the same kernel.
  std::string why = "no kernel with two measured candidates";
  if (victim) {
    for (const tune::SpecOutcome& o : victim->trace)
      if (o.measured && o.speedup > 0 && o.spec != victim->best_spec) {
        tune::KernelTuneResult bad = *victim;
        bad.best_spec = o.spec;
        why = check_kernel(bad, opts);
        break;
      }
  }
  controls.push_back({"a wrong best_spec", !why.empty() &&
                                               why.find("re-measuring") !=
                                                   std::string::npos,
                      why});
  return report_controls("tune", controls);
}

}  // namespace perfbench
