#include "server/arbiter_core.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "placement/placement_model.h"

namespace themis::server {

namespace {
constexpr double kFinishEps = 1e-6;
}

void ArbiterConfig::Validate() const {
  if (!(lease_minutes > 0.0))
    throw std::invalid_argument("ArbiterConfig: lease_minutes must be > 0 (got " +
                                std::to_string(lease_minutes) + ")");
  if (!(round_interval_minutes > 0.0))
    throw std::invalid_argument(
        "ArbiterConfig: round_interval_minutes must be > 0 (got " +
        std::to_string(round_interval_minutes) + ")");
  if (restart_overhead_minutes < 0.0)
    throw std::invalid_argument(
        "ArbiterConfig: restart_overhead_minutes must be >= 0 (got " +
        std::to_string(restart_overhead_minutes) + ")");
  if (themis.auction_threads < 0)
    throw std::invalid_argument(
        "ArbiterConfig: themis.auction_threads must be >= 0 (got " +
        std::to_string(themis.auction_threads) + ")");
}

ArbiterCore::ArbiterCore(const ArbiterConfig& config)
    : config_(config),
      cluster_(config.cluster),
      scheduler_(MakePolicy(config.policy, config.themis)),
      estimator_(config.estimator),
      rng_(config.seed) {
  config_.Validate();
}

AppState* ArbiterCore::FindApp(AppId id) {
  return id < apps_.size() ? apps_[id].get() : nullptr;
}

void ArbiterCore::ActivateApp(AppState* app) {
  const auto it = std::lower_bound(
      active_apps_.begin(), active_apps_.end(), app,
      [](const AppState* a, const AppState* b) { return a->id < b->id; });
  if (it == active_apps_.end() || (*it)->id != app->id)
    active_apps_.insert(it, app);
  rho_index_.Update(app);
}

void ArbiterCore::DeactivateApp(AppId id) {
  const auto it = std::lower_bound(
      active_apps_.begin(), active_apps_.end(), id,
      [](const AppState* a, AppId b) { return a->id < b; });
  if (it != active_apps_.end() && (*it)->id == id) active_apps_.erase(it);
}

void ArbiterCore::UpdateHolding(AppState* app) {
  bool holds = false;
  for (const JobState& job : app->jobs)
    if (!job.gpus.empty()) {
      holds = true;
      break;
    }
  const auto it = std::lower_bound(
      holding_apps_.begin(), holding_apps_.end(), app->id,
      [](const AppState* a, AppId b) { return a->id < b; });
  const bool present = it != holding_apps_.end() && (*it)->id == app->id;
  if (holds && !present)
    holding_apps_.insert(it, app);
  else if (!holds && present)
    holding_apps_.erase(it);
  rho_index_.Update(app);
}

void ArbiterCore::KillJob(JobState& job) {
  job.alive = false;
  ++job.alloc_version;
  for (GpuId g : job.gpus) cluster_.Release(g);
  job.gpus.clear();
}

void ArbiterCore::FinishApp(Time t, AppState& app) {
  if (app.finished) return;
  app.finished = true;
  app.finish_time = t;
  ++finished_apps_;
  DeactivateApp(app.id);
  for (JobState& job : app.jobs)
    if (job.alive && !job.finished) KillJob(job);
  UpdateHolding(&app);
}

AppId ArbiterCore::RegisterApp(AppSpec spec) {
  if (round_open_)
    throw std::logic_error("ArbiterCore: RegisterApp inside an open round");
  auto app = std::make_unique<AppState>();
  app->id = static_cast<AppId>(apps_.size());
  spec.arrival = now_;
  app->spec = std::move(spec);
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
  app->arrived = true;
  app->tuner->Init(app->spec);
  AppState* raw = app.get();
  apps_.push_back(std::move(app));
  ActivateApp(raw);
  return raw->id;
}

void ArbiterCore::RemoveApp(AppId id) {
  if (round_open_)
    throw std::logic_error("ArbiterCore: RemoveApp inside an open round");
  AppState* app = FindApp(id);
  if (app == nullptr || app->finished) return;
  // Evicted, not converged: same state transitions as a finish (leases
  // released, out of every index) without counting toward apps_finished().
  app->finished = true;
  app->finish_time = now_;
  DeactivateApp(id);
  for (JobState& job : app->jobs)
    if (job.alive && !job.finished) KillJob(job);
  UpdateHolding(app);
}

int ArbiterCore::UnmetDemand(AppId id) const {
  const AppState* app = id < apps_.size() ? apps_[id].get() : nullptr;
  return (app == nullptr || app->finished) ? 0 : app->UnmetDemand();
}

RoundStart ArbiterCore::BeginRound() {
  if (round_open_)
    throw std::logic_error("ArbiterCore: BeginRound with a round open");
  RoundStart start;
  start.round_id = ++passes_;
  // Multiplication, not accumulation: round k lands at exactly k * interval
  // on every path, so daemon and reference agree to the last bit.
  now_ = static_cast<double>(passes_) * config_.round_interval_minutes;
  start.time = now_;

  // 1. Accrue progress over [last_advance_, now_] for lease holders — the
  // simulator's AdvanceTo arithmetic (held GPUs consume effective
  // GPU-minutes for the whole interval; training progresses from
  // max(last_advance_, resume_at)).
  for (AppState* app : holding_apps_) {
    for (JobState& job : app->jobs) {
      if (job.gpus.empty()) continue;
      const double held_dt = now_ - last_advance_;
      const double speed_sum = cluster_.topology().SpeedSum(job.gpus);
      const Work effective_minutes = held_dt * speed_sum;
      job.attained_service += effective_minutes;
      app->attained_service += effective_minutes;
      if (!job.Running()) continue;
      const Time seg_start = std::max(last_advance_, job.resume_at);
      if (now_ > seg_start) {
        job.done += (now_ - seg_start) * job.Rate(cluster_.topology());
        job.done = std::min(job.done, job.spec.total_work);
      }
    }
  }
  last_advance_ = now_;

  // 2. Finish detection at the round boundary: the first job of an app to
  // reach the target accuracy is its best model; the app is done and its
  // remaining jobs are terminated (Sec. 2.1). Ascending-id walk over a
  // snapshot — FinishApp edits active_apps_.
  std::vector<AppId> maybe_done;
  for (AppState* app : active_apps_) maybe_done.push_back(app->id);
  for (AppId id : maybe_done) {
    AppState* app = FindApp(id);
    if (app == nullptr || app->finished) continue;
    for (JobState& job : app->jobs) {
      if (!job.Running()) continue;
      if (job.RemainingWork() <= kFinishEps + 1e-9 * job.spec.total_work) {
        job.finished = true;
        job.finish_time = now_;
        ++job.alloc_version;
        for (GpuId g : job.gpus) cluster_.Release(g);
        job.gpus.clear();
        FinishApp(now_, *app);
        start.finished.push_back(id);
        break;
      }
    }
  }

  // 3. Reclaim expired leases.
  std::map<std::pair<AppId, JobId>, bool> reclaimed;
  for (GpuId g : cluster_.ExpiredGpus(now_)) {
    const Lease lease = *cluster_.lease(g);
    cluster_.Release(g);
    AppState* app = FindApp(lease.app);
    if (app != nullptr && lease.job < app->jobs.size()) {
      auto& gpus = app->jobs[lease.job].gpus;
      gpus.erase(std::remove(gpus.begin(), gpus.end(), g), gpus.end());
      reclaimed.try_emplace({lease.app, lease.job}, true);
    }
  }
  for (const auto& [key, unused] : reclaimed) {
    (void)unused;
    if (AppState* app = FindApp(key.first)) {
      ++app->jobs[key.second].alloc_version;
      UpdateHolding(app);
    }
  }

  // 4. Per-app tuner step: kills and parallelism caps.
  for (AppState* app : active_apps_) {
    app->Views(views_scratch_);
    const TunerDecision& decision = app->tuner->Step(views_scratch_, now_);
    bool killed = false;
    for (int idx : decision.kill) {
      JobState& job = app->jobs[idx];
      if (job.alive && !job.finished) {
        KillJob(job);
        killed = true;
      }
    }
    for (std::size_t j = 0; j < app->jobs.size(); ++j)
      app->jobs[j].parallelism_cap = decision.parallelism_cap[j];
    if (killed)
      UpdateHolding(app);
    else
      rho_index_.Update(app);
  }

  // 5. Publish the offer.
  std::vector<GpuId> free = cluster_.FreeGpus();
  if (!free.empty() && !active_apps_.empty()) {
    start.have_offer = true;
    start.offer.round_id = start.round_id;
    start.offer.time = now_;
    start.offer.lease_duration = config_.lease_minutes;
    start.offer.free_per_machine = cluster_.FreeGpusPerMachine();
    start.offer.machine_speeds = cluster_.topology().machine_speeds();
    start.offer.gpus = std::move(free);
  }
  round_open_ = start.have_offer;
  return start;
}

GrantSet ArbiterCore::FinishRound(const ResourceOffer& offer) {
  if (!round_open_)
    throw std::logic_error("ArbiterCore: FinishRound without an open offer");
  round_open_ = false;

  SchedulerContext ctx(offer, &cluster_, &estimator_, &active_apps_, &rng_,
                       &rho_index_);
  GrantSet grants = scheduler_->RunRound(offer, ctx);
  ApplyGrants(grants, cluster_);

  // Granted gangs strictly grew (reclamation already ran in BeginRound), so
  // every granted job restarts from its checkpoint. Ascending (app, job)
  // walk fixes the placement-score accumulation order.
  std::map<std::pair<AppId, JobId>, bool> granted;
  for (const Grant& g : grants.grants)
    granted.try_emplace({g.app, g.job}, true);
  for (const auto& [key, unused] : granted) {
    (void)unused;
    AppState* app = FindApp(key.first);
    if (app == nullptr || app->finished || key.second >= app->jobs.size())
      continue;
    JobState& job = app->jobs[key.second];
    ++job.alloc_version;
    if (!job.gpus.empty()) {
      job.resume_at = now_ + config_.restart_overhead_minutes;
      app->placement_scores.Add(PlacementScore(job.gpus, cluster_.topology()));
    }
    UpdateHolding(app);
  }

  for (const Grant& g : grants.grants)
    digest_.Add(grants.round_id, grants.lease_expiry, g);
  return grants;
}

GrantSet ArbiterCore::RunOneRound(RoundStart* start) {
  RoundStart s = BeginRound();
  if (start != nullptr) *start = s;
  if (!s.have_offer) return GrantSet{};
  return FinishRound(s.offer);
}

}  // namespace themis::server
