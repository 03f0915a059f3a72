#include "sim/policy.h"

#include <utility>

namespace themis {

SchedulerContext::SchedulerContext(const ResourceOffer& offer,
                                   Cluster* cluster, WorkEstimator* estimator,
                                   AppList* apps, Rng* rng,
                                   RhoIndex* rho_index)
    : now_(offer.time),
      cluster_(cluster),
      estimator_(estimator),
      lease_duration_(offer.lease_duration),
      apps_(apps),
      rng_(rng),
      rho_index_(rho_index),
      pool_(offer.gpus, cluster->topology()),
      offered_gpus_(offer.TotalGpus()) {
  grants_.round_id = offer.round_id;
  grants_.lease_expiry = offer.time + offer.lease_duration;
}

void SchedulerContext::Grant(AppState& app, JobState& job,
                             const std::vector<GpuId>& gpus) {
  if (gpus.empty()) return;
  for (GpuId g : gpus) {
    pool_.Remove(g);  // throws if g was never offered or already granted
    job.gpus.push_back(g);
  }
  granted_gpus_ += static_cast<int>(gpus.size());
  grants_.grants.push_back({app.id, job.id, gpus});
}

GrantSet SchedulerContext::TakeGrants() {
  grants_.diagnostics.offered_gpus = offered_gpus_;
  grants_.diagnostics.granted_gpus = granted_gpus_;
  grants_.diagnostics.leftover_gpus = pool_.size();
  return std::move(grants_);
}

}  // namespace themis
