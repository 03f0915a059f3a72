#include "estimator/work_estimator.h"

#include <algorithm>
#include <cmath>

namespace themis {

WorkEstimator::WorkEstimator(EstimatorConfig config)
    : config_(config), rng_(config.seed) {}

bool WorkEstimator::IsPure() const {
  return config_.mode != EstimationMode::kNoisy || config_.theta <= 0.0;
}

double WorkEstimator::Perturb(double value) {
  if (IsPure()) return value;
  const double err = rng_.Uniform(-config_.theta, config_.theta);
  return std::max(0.0, value * (1.0 + err));
}

Work WorkEstimator::RemainingWork(const JobSpec& job, double done_iterations,
                                  double target_loss) {
  double iters_left = 0.0;
  switch (config_.mode) {
    case EstimationMode::kClairvoyant:
    case EstimationMode::kNoisy: {
      iters_left = std::max(0.0, job.total_iterations - done_iterations);
      break;
    }
    case EstimationMode::kCurveFit: {
      // Sample the job's analytic loss curve at a handful of observed
      // iterations, exactly as the profiler would read TF logs, then fit.
      std::vector<LossSample> samples;
      const double upto = std::max(2.0, done_iterations);
      for (int k = 0; k < 8; ++k) {
        const double it = upto * static_cast<double>(k + 1) / 8.0;
        samples.push_back({it, job.loss.LossAt(it)});
      }
      auto pred = PredictIterationsToTarget(samples, target_loss);
      const double total = pred.value_or(job.total_iterations);
      iters_left = std::max(0.0, total - done_iterations);
      break;
    }
  }
  return Perturb(iters_left * job.WorkPerIteration());
}

Work WorkEstimator::TotalWork(const JobSpec& job, double target_loss) {
  if (config_.mode == EstimationMode::kCurveFit) {
    std::vector<LossSample> samples;
    for (int k = 1; k <= 8; ++k) {
      const double it = job.total_iterations * static_cast<double>(k) / 16.0;
      samples.push_back({it, job.loss.LossAt(it)});
    }
    auto pred = PredictIterationsToTarget(samples, target_loss);
    return pred.value_or(job.total_iterations) * job.WorkPerIteration();
  }
  return Perturb(job.total_work);
}

}  // namespace themis
