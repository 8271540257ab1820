// train: one operation is the paper's fitting campaign — measure the suite
// through a fresh, uncached Session, then eval::experiment_fit_speedup for
// L2, NNLS and SVR on rated features, each in-sample and under LOOCV.
#include <cmath>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "costmodel/trainer.hpp"
#include "eval/experiments.hpp"
#include "eval/session.hpp"
#include "machine/targets.hpp"
#include "support/thread_pool.hpp"
#include "tsvc/kernel.hpp"

namespace perfbench {
namespace {

using namespace veccost;

constexpr analysis::FeatureSet kSet = analysis::FeatureSet::Rated;
constexpr model::Fitter kFitters[] = {model::Fitter::L2, model::Fitter::NNLS,
                                      model::Fitter::SVR};
constexpr const char* kFitLayer[] = {"costmodel.fit_l2_ms",
                                     "costmodel.fit_nnls_ms",
                                     "costmodel.fit_svr_ms"};
constexpr const char* kLoocvLayer[] = {"costmodel.loocv_l2_ms",
                                       "costmodel.loocv_nnls_ms",
                                       "costmodel.loocv_svr_ms"};
constexpr std::size_t kNnls = 1;
/// LOOCV rows re-fitted per fitter per operation by the check.
constexpr std::size_t kSampledRows = 3;

const machine::TargetDesc& target() { return machine::target_by_name(kTarget); }

eval::SessionOptions session_options(const Args& a) {
  eval::SessionOptions o;
  o.jobs = 1;
  o.use_cache = false;
  o.cache_dir = a.work_dir + "/cache";
  return o;
}

struct TrainOutput {
  eval::SuiteMeasurement sm;
  std::vector<eval::FitExperiment> in_sample;  ///< kFitters order
  std::vector<eval::FitExperiment> loocv;      ///< kFitters order
};

/// The untraced operation: the program's own entry points.
TrainOutput train_op(const Args& a) {
  TrainOutput out;
  out.sm = eval::Session(target(), session_options(a)).measure().suite;
  for (const model::Fitter f : kFitters) {
    out.in_sample.push_back(eval::experiment_fit_speedup(out.sm, f, kSet));
    out.loocv.push_back(eval::experiment_fit_speedup(out.sm, f, kSet, true));
  }
  return out;
}

/// The traced operation: experiment_fit_speedup's public calls, in its
/// order, with a stopwatch around each.
TrainOutput traced_train_op(const Args& a, Layers& layers) {
  TrainOutput out;
  const eval::Session session(target(), session_options(a));
  out.sm = layers.time("eval.measure_ms", [&] { return session.measure().suite; });
  for (std::size_t k = 0; k < 3; ++k) {
    const model::Fitter f = kFitters[k];
    for (const bool loocv : {false, true}) {
      const Matrix x = out.sm.design_matrix(kSet);
      const Vector y = out.sm.measured_speedups();
      eval::FitExperiment e;
      e.model = layers.time(kFitLayer[k], [&] {
        return model::fit_model(x, y, f, kSet, {}, out.sm.target_name);
      });
      Vector pred;
      if (loocv) {
        pred = layers.time(kLoocvLayer[k], [&] {
          return model::loocv_predictions(x, y, f, kSet);
        });
      } else {
        pred.reserve(x.rows());
        for (std::size_t i = 0; i < x.rows(); ++i)
          pred.push_back(e.model.predict_features(x.row(i)));
      }
      std::string label = std::string(model::to_string(f)) + "-" +
                          analysis::to_string(kSet) + (loocv ? "-loocv" : "");
      e.eval = layers.time("eval.evaluate_ms", [&] {
        return eval::evaluate_predictions(out.sm, std::move(label),
                                          std::move(pred));
      });
      (loocv ? out.loocv : out.in_sample).push_back(std::move(e));
    }
  }
  return out;
}

/// The seeded LOOCV rows one operation's check re-fits.
std::vector<std::size_t> sample_rows(std::uint64_t seed, std::size_t op,
                                     std::size_t rows) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + op);
  std::vector<std::size_t> out;
  while (out.size() < kSampledRows && out.size() < rows) {
    const std::size_t r = static_cast<std::size_t>(rng() % rows);
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
  return out;
}

/// Every output check of one operation; returns the first failure, or "".
std::string check_train(const TrainOutput& out,
                        const std::vector<std::size_t>& rows) {
  for (const eval::KernelMeasurement& k : out.sm.kernels) {
    if (!k.vectorizable) continue;
    if (k.measured_speedup != k.scalar_cycles / k.vector_cycles)
      return k.name + ": measured_speedup != scalar_cycles / vector_cycles";
  }
  const Matrix x = out.sm.design_matrix(kSet);
  const Vector y = out.sm.measured_speedups();
  const std::size_t m = x.rows(), n = x.cols();

  // LOOCV: each sampled element equals the prediction of a refit without
  // that row (the L2 closed form within rounding, the refit paths exactly).
  for (std::size_t k = 0; k < 3; ++k) {
    const Vector& pred = out.loocv[k].eval.predictions;
    if (pred.size() != m) return "LOOCV prediction count differs from rows";
    for (const std::size_t i : rows) {
      const double refit =
          model::fit_model(x.without_row(i), without_element(y, i),
                           kFitters[k], kSet)
              .predict_features(x.row(i));
      const double tol = kFitters[k] == model::Fitter::L2
                             ? 1e-8 * std::max(1.0, std::abs(refit))
                             : 0.0;
      if (!(std::abs(pred[i] - refit) <= tol))
        return std::string(model::to_string(kFitters[k])) + " LOOCV row " +
               std::to_string(i) + ": " + std::to_string(pred[i]) +
               " != refit " + std::to_string(refit);
    }
  }

  // Gradient g = X^T (y - X w) of the squared loss at weights w.
  const auto gradient = [&](const Vector& w) {
    Vector g(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      double r = y[i];
      for (std::size_t j = 0; j < n; ++j) r -= x(i, j) * w[j];
      for (std::size_t j = 0; j < n; ++j) g[j] += x(i, j) * r;
    }
    return g;
  };
  // Scale of g's entries: |X_j|·|y| bounds them for any sensible w.
  Vector scale(n, 0.0);
  double ynorm = 0;
  for (std::size_t i = 0; i < m; ++i) ynorm += y[i] * y[i];
  ynorm = std::sqrt(ynorm);
  for (std::size_t j = 0; j < n; ++j) {
    double c = 0;
    for (std::size_t i = 0; i < m; ++i) c += x(i, j) * x(i, j);
    scale[j] = std::max(1.0, std::sqrt(c) * ynorm);
  }

  // NNLS: w >= 0 and KKT — g ~ 0 where w > 0, g <= 0 where w == 0.
  for (const auto* fit : {&out.in_sample[kNnls], &out.loocv[kNnls]}) {
    const Vector& w = fit->model.weights();
    const Vector g = gradient(w);
    for (std::size_t j = 0; j < n; ++j) {
      if (w[j] < 0) return "NNLS weight " + std::to_string(j) + " is negative";
      const double tol = 1e-9 * scale[j];
      if (w[j] > 0 ? std::abs(g[j]) > tol : g[j] > tol)
        return "NNLS KKT fails at weight " + std::to_string(j) +
               " (gradient " + std::to_string(g[j]) + ")";
    }
  }

  // L2: the ridge normal equations X^T (y - X w) = lambda w hold.
  const double lambda = model::TrainOptions{}.l2_lambda;
  for (const auto* fit : {&out.in_sample[0], &out.loocv[0]}) {
    const Vector& w = fit->model.weights();
    const Vector g = gradient(w);
    for (std::size_t j = 0; j < n; ++j)
      if (std::abs(g[j] - lambda * w[j]) > 1e-9 * scale[j])
        return "L2 normal equation " + std::to_string(j) + " off by " +
               std::to_string(g[j] - lambda * w[j]);
  }
  return "";
}

}  // namespace

int setup_train(const Args&) {
  (void)tsvc::suite();
  (void)target();
  std::cout << "ready" << std::endl;
  return 0;
}

int run_train(const Args& a) {
  set_default_parallelism(1);  // keeps LOOCV's refits serial too
  (void)tsvc::suite();
  Layers layers(a.trace);
  TimedPhase phase;
  RunResult r;
  std::vector<double> op_ms;
  double pearson = 0, peak_rss = 0;
  const auto before = obs::Registry::global().snapshot();
  while (phase.wall_ms() < a.seconds * 1e3) {
    TrainOutput out;
    op_ms.push_back(phase.measure([&] {
      out = a.trace ? traced_train_op(a, layers) : train_op(a);
    }));
    ++r.attempted;
    if (op_ms.size() == 1) peak_rss = process_peak_rss_mb();
    pearson = out.loocv[kNnls].eval.pearson;
    const std::string why = check_train(
        out, sample_rows(a.seed, op_ms.size(), out.sm.dataset_indices().size()));
    if (!why.empty()) r.fail("op " + std::to_string(op_ms.size()) + ": " + why);
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
    r.add_layers(layers, phase.wall_ms(), op_ms.size());
    r.add("trainer.fits", r.counters_per_op["trainer.fits"], "count");
    r.add("costmodel.loocv_pearson", pearson, "1");
  }
  emit(a, r);
  return 0;
}

int selfcheck_train(const Args& a) {
  set_default_parallelism(1);
  const TrainOutput clean = train_op(a);
  const std::vector<std::size_t> rows =
      sample_rows(a.seed, 1, clean.sm.dataset_indices().size());
  std::vector<Control> controls;
  const std::string ok = check_train(clean, rows);
  controls.push_back({"clean campaign passes every check", ok.empty(),
                      ok.empty() ? "no failure" : ok});

  TrainOutput bad_loocv = clean;
  bad_loocv.loocv[kNnls].eval.predictions[rows[0]] += 1e-3;
  const std::string why1 = check_train(bad_loocv, rows);
  controls.push_back({"one perturbed NNLS LOOCV element", !why1.empty(), why1});

  TrainOutput bad_nnls = clean;
  const model::LinearSpeedupModel& fitted = clean.in_sample[kNnls].model;
  Vector w = fitted.weights();
  for (double& v : w)
    if (v > 0) {
      v = -v;
      break;
    }
  bad_nnls.in_sample[kNnls].model = model::LinearSpeedupModel(
      fitted.feature_set(), w, fitted.bias(), fitted.fitter());
  const std::string why2 = check_train(bad_nnls, rows);
  controls.push_back({"one negated NNLS weight", !why2.empty(), why2});
  return report_controls("train", controls);
}

}  // namespace perfbench
