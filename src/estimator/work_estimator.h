// Work-left estimation feeding the AGENT's bid valuations.
//
// The paper's simulator "assume[s] clairvoyance of the number of iterations
// run by each hyperparameter exploration job" (Sec. 8.1); Fig. 11 then
// studies robustness to estimation error by perturbing bid valuations with
// noise sampled uniformly from [-theta, +theta]. This module reproduces both
// modes: clairvoyant truth, truth + injected multiplicative error, and a
// profile-based mode that fits the observed loss curve instead.
#pragma once

#include "common/rng.h"
#include "common/types.h"
#include "estimator/curve_fit.h"
#include "workload/job_spec.h"

namespace themis {

enum class EstimationMode {
  kClairvoyant,  // exact remaining work
  kNoisy,        // exact value perturbed by U[-theta, +theta] relative error
  kCurveFit,     // power-law fit of loss samples observed so far
};

struct EstimatorConfig {
  EstimationMode mode = EstimationMode::kClairvoyant;
  /// Relative error bound theta for kNoisy (0.2 == +/-20%, Fig. 11's x-axis).
  double theta = 0.0;
  std::uint64_t seed = 7;
};

class WorkEstimator {
 public:
  explicit WorkEstimator(EstimatorConfig config);

  /// Estimated remaining serial work (GPU-minutes) for a job that has
  /// completed `done_iterations` of its spec. Never negative.
  Work RemainingWork(const JobSpec& job, double done_iterations,
                     double target_loss);

  /// Estimated total serial work for the job (used for T_ID).
  Work TotalWork(const JobSpec& job, double target_loss);

  const EstimatorConfig& config() const { return config_; }

  /// True unless the mode is kNoisy with theta > 0. Only that mode draws
  /// from the RNG, once per RemainingWork / TotalWork call; in every other
  /// mode both are pure functions of their arguments (the curve fit is
  /// stateless), so callers may cache their results and call them from
  /// several threads at once. When false the call sequence is part of the
  /// output and must be kept.
  bool IsPure() const;

 private:
  double Perturb(double value);

  EstimatorConfig config_;
  Rng rng_;
};

}  // namespace themis
