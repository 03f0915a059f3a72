#include "sim/arbiter_state.h"

#include <algorithm>

namespace themis {

ArbiterState::ArbiterState(ClusterSpec cluster_spec,
                           std::unique_ptr<IRoundScheduler> scheduler,
                           const EstimatorConfig& estimator,
                           std::uint64_t seed, Time lease_minutes,
                           Time restart_overhead_minutes)
    : cluster_(std::move(cluster_spec)),
      scheduler_(std::move(scheduler)),
      estimator_(estimator),
      rng_(seed),
      lease_minutes_(lease_minutes),
      restart_overhead_minutes_(restart_overhead_minutes) {}

AppState& ArbiterState::AddApp(AppSpec spec) {
  auto app = std::make_unique<AppState>();
  app->id = next_app_id_++;
  app->spec = std::move(spec);
  // T_ID assumes the app ran alone with ideal placement — on a
  // heterogeneous cluster that means the fastest generation, so rho
  // compares effective GPU-hours, not raw counts. Division by 1.0 on
  // uniform-speed clusters leaves the classic T_ID bit-identical.
  app->ideal_time = std::max(
      1e-9, app->spec.IdealRunningTime() / cluster_.topology().max_speed());
  app->tuner = MakeAppScheduler(app->spec);
  JobId next_job = 0;
  for (const JobSpec& js : app->spec.jobs) {
    JobState job;
    job.id = next_job++;
    job.spec = js;
    job.parallelism_cap = js.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  apps_.push_back(std::move(app));
  return *apps_.back();
}

void ArbiterState::Arrive(AppState& app) {
  app.arrived = true;
  app.tuner->Init(app.spec);
  const auto it = std::lower_bound(
      active_.begin(), active_.end(), app.id,
      [](const AppState* a, AppId b) { return a->id < b; });
  active_.insert(it, &app);
  // The app enters the contention sum at its pre-step capped demand; its
  // first tuner step folds in any cap change as a delta.
  app.cached_cap_demand = app.CapDemand();
  total_cap_demand_ += app.cached_cap_demand;
  rho_index_.Update(&app);
  MarkTunerDirty(app);
}

void ArbiterState::KillJob(JobState& job) {
  job.alive = false;
  ++job.alloc_version;
  for (GpuId g : job.gpus) cluster_.Release(g);
  job.gpus.clear();
}

void ArbiterState::FinishJob(Time t, AppState& app, JobState& job) {
  job.finished = true;
  job.finish_time = t;
  ++job.alloc_version;
  for (GpuId g : job.gpus) cluster_.Release(g);
  job.gpus.clear();
  ++finished_apps_;
  End(t, app);
}

void ArbiterState::EvictApp(Time t, AppState& app) {
  if (!app.finished) End(t, app);
}

void ArbiterState::End(Time t, AppState& app) {
  app.finished = true;
  app.finish_time = t;
  const auto it = std::lower_bound(
      active_.begin(), active_.end(), app.id,
      [](const AppState* a, AppId b) { return a->id < b; });
  if (it != active_.end() && (*it)->id == app.id) active_.erase(it);
  total_cap_demand_ -= app.cached_cap_demand;
  app.cached_cap_demand = 0;
  for (JobState& job : app.jobs)
    if (job.alive && !job.finished) KillJob(job);
  rho_index_.Update(&app);
}

void ArbiterState::DropApp(AppId id) {
  apps_[id - apps_base_].reset();
  while (!apps_.empty() && apps_.front() == nullptr) {
    apps_.pop_front();
    ++apps_base_;
  }
}

AppState* ArbiterState::FindApp(AppId id) {
  if (id < apps_base_) return nullptr;
  const std::size_t idx = id - apps_base_;
  return (idx < apps_.size()) ? apps_[idx].get() : nullptr;
}

const AppState* ArbiterState::FindApp(AppId id) const {
  return const_cast<ArbiterState*>(this)->FindApp(id);
}

void ArbiterState::MarkTunerDirty(AppState& app) {
  if (app.tuner_dirty) return;
  app.tuner_dirty = true;
  tuner_dirty_.push_back(app.id);
}

void ArbiterState::Accrue(Time from, Time to, MetricsCollector* metrics) {
  const Topology& topo = cluster_.topology();
  const double held_dt = to - from;
  // Everything below is a no-op for an empty gang, so walking only the
  // holders skips nothing; the GPU-time float accumulation runs in the same
  // ascending (app, job) order as a walk over every active app.
  for (AppState* app : rho_index_.holders()) {
    for (JobState& job : app->jobs) {
      if (job.gpus.empty()) continue;
      // Held GPUs consume GPU-time for the whole interval (they are leased),
      // even while the job restarts from a checkpoint. Attained service is
      // *effective* (speed-weighted) GPU-minutes so Tiresias' LAS ordering
      // prices an A100-minute above a K80-minute; the GPU-time metric stays
      // raw occupancy. The gang is fixed between rounds, so its speed sum
      // and rate come from the per-epoch cache.
      const Work effective_minutes = held_dt * job.CachedSpeedSum(topo);
      job.attained_service += effective_minutes;
      app->attained_service += effective_minutes;
      if (metrics != nullptr)
        metrics->RecordGpuTime(held_dt * static_cast<double>(job.gpus.size()));
      if (!job.Running()) continue;
      const Time seg_start = std::max(from, job.resume_at);
      if (to > seg_start) {
        job.done += (to - seg_start) * job.CachedRate(topo);
        job.done = std::min(job.done, job.spec.total_work);
      }
    }
    // Progress (or plain attained service) moved: re-step this app's tuner.
    MarkTunerDirty(*app);
  }
}

void ArbiterState::ReclaimExpired(Time t) {
  reclaimed_.clear();
  for (GpuId g : cluster_.ExpiredGpus(t)) {
    const Lease lease = *cluster_.lease(g);
    cluster_.Release(g);
    AppState* app = FindApp(lease.app);
    if (app != nullptr && lease.job < app->jobs.size()) {
      auto& gpus = app->jobs[lease.job].gpus;
      reclaimed_.try_emplace({lease.app, lease.job}, gpus);
      gpus.erase(std::remove(gpus.begin(), gpus.end(), g), gpus.end());
    }
  }
  for (const auto& [key, gang] : reclaimed_) {
    (void)gang;
    if (AppState* app = FindApp(key.first)) rho_index_.Update(app);
  }
}

bool ArbiterState::StepTuner(Time t, AppState& app) {
  app.Views(views_scratch_);
  const TunerDecision& decision = app.tuner->Step(views_scratch_, t);
  bool killed = false;
  for (int idx : decision.kill) {
    JobState& job = app.jobs[idx];
    if (job.alive && !job.finished) {
      KillJob(job);
      killed = true;
    }
  }
  for (std::size_t j = 0; j < app.jobs.size(); ++j)
    app.jobs[j].parallelism_cap = decision.parallelism_cap[j];
  app.tuner_dirty = false;
  // A job whose cap shrank below its current gang keeps the lease until
  // expiry (allocations are binding, Sec. 4's strawman discussion). Caps
  // only change in tuner steps, so the integer delta against the cached
  // value keeps the maintained contention sum exact.
  const long long demand = app.CapDemand();
  total_cap_demand_ += demand - app.cached_cap_demand;
  app.cached_cap_demand = demand;
  // Only a kill can reclassify the app in the rho index: caps alone cannot
  // (see the invariant in core/rho_index.h).
  if (killed) rho_index_.Update(&app);
  return killed;
}

void ArbiterState::StepTuners(Time t, std::vector<AppId>* killed) {
  // A step on unchanged views is a no-op for every tuner (they ignore
  // `now`), so apps not marked since their last step are skipped.
  std::sort(tuner_dirty_.begin(), tuner_dirty_.end());
  tuner_dirty_.erase(std::unique(tuner_dirty_.begin(), tuner_dirty_.end()),
                     tuner_dirty_.end());
  for (AppId id : tuner_dirty_) {
    AppState* app = FindApp(id);
    if (app == nullptr || app->finished || !app->tuner_dirty) continue;
    if (StepTuner(t, *app) && killed != nullptr) killed->push_back(id);
  }
  tuner_dirty_.clear();
}

bool ArbiterState::PublishOffer(std::uint64_t round_id, Time t,
                                ResourceOffer& offer) {
  std::vector<GpuId> free = cluster_.FreeGpus();
  if (free.empty() || active_.empty()) return false;
  offer.round_id = round_id;
  offer.time = t;
  offer.lease_duration = lease_minutes_;
  offer.free_per_machine = cluster_.FreeGpusPerMachine();
  offer.machine_speeds = cluster_.topology().machine_speeds();
  offer.gpus = std::move(free);
  return true;
}

GrantSet ArbiterState::RunRound(const ResourceOffer& offer) {
  SchedulerContext ctx(offer, &cluster_, &estimator_, &active_, &rng_,
                       &rho_index_);
  GrantSet grants = scheduler_->RunRound(offer, ctx);
  ApplyGrants(grants, cluster_);
  for (const Grant& g : grants.grants)
    if (AppState* app = FindApp(g.app)) rho_index_.Update(app);
  return grants;
}

void ArbiterState::ChargeRestarts(Time t, const GrantSet& grants) {
  // Only jobs touched this round are examined: reclaimed ones carry their
  // pre-reclaim gang, and granted gangs strictly grew, so a grant with no
  // snapshot changed by construction. std::map order fixes the ascending
  // (app, job) walk, and so the placement-score accumulation order.
  std::map<std::pair<AppId, JobId>, const std::vector<GpuId>*> touched;
  for (const auto& [key, gang] : reclaimed_) touched[key] = &gang;
  for (const Grant& g : grants.grants)
    touched.try_emplace({g.app, g.job}, nullptr);
  for (const auto& [key, before] : touched) {
    AppState* app = FindApp(key.first);
    if (app == nullptr || app->finished || key.second >= app->jobs.size())
      continue;
    JobState& job = app->jobs[key.second];
    if (before != nullptr && *before == job.gpus) continue;
    ++job.alloc_version;
    if (!job.gpus.empty()) {
      job.resume_at = t + restart_overhead_minutes_;
      app->placement_scores.Add(PlacementScore(job.gpus, cluster_.topology()));
    }
  }
}

}  // namespace themis
