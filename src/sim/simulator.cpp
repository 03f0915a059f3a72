#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/log.h"

namespace themis {
namespace {
constexpr double kFinishEps = 1e-6;
}

void SimConfig::Validate() const {
  if (!(lease_minutes > 0.0))
    throw std::invalid_argument(
        "SimConfig: lease_minutes must be > 0 (got " +
        std::to_string(lease_minutes) + ")");
  if (restart_overhead_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: restart_overhead_minutes must be >= 0 (got " +
        std::to_string(restart_overhead_minutes) + ")");
  if (!(max_time > 0.0))
    throw std::invalid_argument("SimConfig: max_time must be > 0 (got " +
                                std::to_string(max_time) + ")");
  if (machine_mtbf_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: machine_mtbf_minutes must be >= 0 (got " +
        std::to_string(machine_mtbf_minutes) + ")");
  if (machine_mtbf_minutes > 0.0 && !(machine_repair_minutes > 0.0))
    throw std::invalid_argument(
        "SimConfig: machine_repair_minutes must be > 0 when failure "
        "injection is on (got " +
        std::to_string(machine_repair_minutes) + ")");
  if (arrival_lookahead_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: arrival_lookahead_minutes must be >= 0 (got " +
        std::to_string(arrival_lookahead_minutes) + ")");
  if (auction_epsilon_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: auction_epsilon_minutes must be >= 0 (got " +
        std::to_string(auction_epsilon_minutes) + ")");
  if (auction_epsilon_minutes > 0.0 && engine != SimEngine::kEventDriven)
    throw std::invalid_argument(
        "SimConfig: auction_epsilon_minutes > 0 requires the event-driven "
        "engine (epsilon batching deliberately reorders lease reclamation, "
        "which the pass-stepped reference never does)");
  if (metrics_tick_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: metrics_tick_minutes must be >= 0 (got " +
        std::to_string(metrics_tick_minutes) + ")");
  if (round_threads < 0)
    throw std::invalid_argument("SimConfig: round_threads must be >= 0 (got " +
                                std::to_string(round_threads) + ")");
}

Simulator::Simulator(ClusterSpec cluster_spec, std::vector<AppSpec> specs,
                     std::unique_ptr<IRoundScheduler> scheduler,
                     SimConfig config)
    : cluster_(std::move(cluster_spec)),
      scheduler_(std::move(scheduler)),
      config_(config),
      estimator_(config.estimator),
      rng_(config.seed),
      metrics_(config.metrics) {
  config_.Validate();
  event_mode_ = config_.engine == SimEngine::kEventDriven;
  for (AppSpec& spec : specs) InjectApp(std::move(spec));

  // Failure injection: seed per-machine failure clocks (Sec. 6).
  failure_rng_ = Rng(config_.seed ^ 0xFA11DEADULL);
  if (config_.machine_mtbf_minutes > 0.0) {
    for (MachineId m = 0; m < static_cast<MachineId>(cluster_.num_machines());
         ++m) {
      Event e;
      e.time = failure_rng_.Exponential(config_.machine_mtbf_minutes);
      e.type = EventType::kMachineFail;
      e.machine = m;
      queue_.Push(e);
    }
  }
}

Simulator::Simulator(ClusterSpec cluster_spec,
                     std::unique_ptr<TraceReader> trace,
                     std::unique_ptr<IRoundScheduler> scheduler,
                     SimConfig config)
    : cluster_(std::move(cluster_spec)),
      scheduler_(std::move(scheduler)),
      config_(config),
      estimator_(config.estimator),
      rng_(config.seed),
      metrics_(config.metrics),
      reader_(std::move(trace)) {
  config_.Validate();
  event_mode_ = config_.engine == SimEngine::kEventDriven;
  have_pending_ = reader_->Next(pending_spec_);

  // Failure injection: seed per-machine failure clocks (Sec. 6). Seeded from
  // the same derived RNG as the preloaded path, so streamed and preloaded
  // runs of one trace see identical failure schedules.
  failure_rng_ = Rng(config_.seed ^ 0xFA11DEADULL);
  if (config_.machine_mtbf_minutes > 0.0) {
    for (MachineId m = 0; m < static_cast<MachineId>(cluster_.num_machines());
         ++m) {
      Event e;
      e.time = failure_rng_.Exponential(config_.machine_mtbf_minutes);
      e.type = EventType::kMachineFail;
      e.machine = m;
      queue_.Push(e);
    }
  }
}

void Simulator::InjectApp(AppSpec&& spec) {
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
  queue_.Push(Event{app->spec.arrival, 0, EventType::kAppArrival, app->id,
                    kNoJob, 0});
  apps_.push_back(std::move(app));
  ++live_apps_;
  peak_live_apps_ = std::max(peak_live_apps_, live_apps_);
}

void Simulator::RefillArrivals() {
  while (have_pending_) {
    // Past the horizon, apps stay in the reader; they are accounted (as
    // unfinished) when the run ends.
    if (pending_spec_.arrival > config_.max_time) break;
    if (!queue_.Empty() &&
        static_cast<std::size_t>(finished_apps_) !=
            static_cast<std::size_t>(next_app_id_) &&
        pending_spec_.arrival >
            queue_.Top().time + 1e-12 + config_.arrival_lookahead_minutes)
      break;
    if (pending_spec_.arrival < last_injected_arrival_)
      throw std::runtime_error(
          "Simulator: streamed trace is not arrival-sorted (app arriving at " +
          std::to_string(pending_spec_.arrival) + " follows one at " +
          std::to_string(last_injected_arrival_) +
          "); sort the trace or preload it");
    last_injected_arrival_ = pending_spec_.arrival;
    InjectApp(std::move(pending_spec_));
    have_pending_ = reader_->Next(pending_spec_);
  }
}

void Simulator::RetireApp(AppId id) {
  if (!config_.retire_finished_apps) return;
  apps_[id - apps_base_].reset();
  --live_apps_;
  while (!apps_.empty() && apps_.front() == nullptr) {
    apps_.pop_front();
    ++apps_base_;
  }
}

AppState* Simulator::FindApp(AppId id) {
  if (id < apps_base_) return nullptr;
  const std::size_t idx = id - apps_base_;
  return (idx < apps_.size()) ? apps_[idx].get() : nullptr;
}

void Simulator::ActivateApp(AppState* app) {
  const auto it = std::lower_bound(
      active_apps_.begin(), active_apps_.end(), app,
      [](const AppState* a, const AppState* b) { return a->id < b->id; });
  if (it == active_apps_.end() || (*it)->id != app->id) {
    active_apps_.insert(it, app);
    // The app enters the contention sum at its pre-step capped demand; its
    // first tuner Step this very pass folds in any cap change as a delta.
    app->cached_cap_demand = app->CapDemand();
    total_cap_demand_ += app->cached_cap_demand;
  }
  rho_index_.Update(app);
}

void Simulator::DeactivateApp(AppId id) {
  const auto it = std::lower_bound(
      active_apps_.begin(), active_apps_.end(), id,
      [](const AppState* a, AppId b) { return a->id < b; });
  if (it != active_apps_.end() && (*it)->id == id) active_apps_.erase(it);
}

void Simulator::UpdateHolding(AppState* app) {
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
  // Every gang-mutation site funnels through here, so this one call keeps
  // the filter index's holder/candidate split current (finishes too: the
  // app reads as inactive and leaves both sets).
  rho_index_.Update(app);
}

void Simulator::MarkTunerDirty(AppState* app) {
  if (!event_mode_ || app->tuner_dirty) return;
  app->tuner_dirty = true;
  tuner_dirty_apps_.push_back(app->id);
}

void Simulator::TouchAlloc(AppId id) {
  if (event_mode_) alloc_touched_apps_.push_back(id);
}

void Simulator::AdvanceTo(Time t) {
  if (t <= last_advance_) return;
  ++time_advances_;
  // The event engine walks only apps holding GPUs: everything below is a
  // no-op for an empty gang, so the skipped active apps contribute nothing —
  // the RecordGpuTime call sequence (a float accumulation, hence
  // order-sensitive) is identical either way.
  const AppList& walk = event_mode_ ? holding_apps_ : active_apps_;
  for (AppState* app : walk) {
    bool held_any = false;
    for (JobState& job : app->jobs) {
      if (job.gpus.empty()) continue;
      held_any = true;
      // Held GPUs consume GPU-time for the whole interval (they are leased),
      // even while the job restarts from a checkpoint. Attained service is
      // *effective* (speed-weighted) GPU-minutes so Tiresias' LAS ordering
      // prices an A100-minute above a K80-minute; the GPU-time metric stays
      // raw occupancy. Both coincide on speed-1.0 clusters.
      // The gang is fixed within an allocation epoch, so its speed sum and
      // progress rate are too: the event engine reads them through the
      // per-epoch cache (same pure functions, same floats), while the
      // reference re-derives both on every advance like the seed loop did.
      const double held_dt = t - last_advance_;
      const Work gpu_minutes = held_dt * static_cast<double>(job.gpus.size());
      const double speed_sum = event_mode_
                                   ? job.CachedSpeedSum(cluster_.topology())
                                   : cluster_.topology().SpeedSum(job.gpus);
      const Work effective_minutes = held_dt * speed_sum;
      job.attained_service += effective_minutes;
      app->attained_service += effective_minutes;
      metrics_.RecordGpuTime(gpu_minutes);
      if (!job.Running()) continue;
      const Time seg_start = std::max(last_advance_, job.resume_at);
      if (t > seg_start) {
        const double rate = event_mode_ ? job.CachedRate(cluster_.topology())
                                        : job.Rate(cluster_.topology());
        job.done += (t - seg_start) * rate;
        job.done = std::min(job.done, job.spec.total_work);
      }
    }
    // Progress (or plain attained service) moved: the tuner's views may
    // have changed, so the next pass must re-step this app.
    if (held_any) MarkTunerDirty(app);
  }
  last_advance_ = t;
}

void Simulator::KillJob(AppState& /*app*/, JobState& job) {
  job.alive = false;
  ++job.alloc_version;
  for (GpuId g : job.gpus) cluster_.Release(g);
  job.gpus.clear();
}

void Simulator::FinishJob(Time t, AppState& app, JobState& job) {
  job.finished = true;
  job.finish_time = t;
  ++job.alloc_version;
  for (GpuId g : job.gpus) cluster_.Release(g);
  job.gpus.clear();
  // First job to reach the target accuracy identifies the app's best model:
  // the app is done (Sec. 2.1) and its remaining jobs are terminated.
  FinishApp(t, app);
}

void Simulator::FinishApp(Time t, AppState& app) {
  if (app.finished) return;
  app.finished = true;
  app.finish_time = t;
  ++finished_apps_;
  DeactivateApp(app.id);
  total_cap_demand_ -= app.cached_cap_demand;
  app.cached_cap_demand = 0;
  for (JobState& job : app.jobs)
    if (job.alive && !job.finished) KillJob(app, job);
  UpdateHolding(&app);
  // Close out the change-only allocation timeline at 0: the app leaves the
  // sampling walks on finish, so without this a consumer forward-filling
  // holdings would ghost its last grant forever.
  if (app.last_recorded_held > 0) {
    metrics_.RecordAllocation(t, app.id, 0);
    app.last_recorded_held = 0;
  }

  AppRecord record;
  record.app = app.id;
  record.arrival = app.arrival();
  record.finish = t;
  record.ideal_time = app.ideal_time;
  record.mean_placement_score =
      app.placement_scores.count() > 0 ? app.placement_scores.mean() : 1.0;
  record.attained_service = app.attained_service;
  metrics_.RecordAppFinish(record);
}

void Simulator::PushLeaseTick(Time t) {
  if (t > config_.max_time) return;
  if (pushed_ticks_.insert(t).second)
    queue_.Push(Event{t, 0, EventType::kLeaseTick, kNoApp, kNoJob, 0});
}

void Simulator::ArmMetricsTick(Time t) {
  if (config_.metrics_tick_minutes <= 0.0 || metrics_tick_armed_) return;
  metrics_tick_armed_ = true;
  Event e;
  e.time = t + config_.metrics_tick_minutes;
  e.type = EventType::kMetricsTick;
  queue_.Push(e);
}

void Simulator::MaybeScheduleFinish(Time t, AppState& app, JobState& job) {
  if (!job.Running()) return;
  // One projection per allocation epoch (event engine). The finish instant
  // is analytic in the granted rate; recomputing it at later passes would
  // yield the same instant only up to ulps, and pushing those
  // near-duplicates would let whichever drifted earliest win the heap. The
  // event engine therefore pins the *first* projection and invalidates it
  // only on re-grant; the pass-stepped reference keeps the per-pass resweep
  // (see SchedulingPass step 5).
  if (job.finish_projected_version == job.alloc_version) return;
  job.finish_projected_version = job.alloc_version;
  // Refreshes the per-epoch cache as a side effect, so the advances that
  // follow reuse this epoch's rate instead of re-deriving it.
  const double rate = job.CachedRate(cluster_.topology());
  if (rate <= 0.0) return;
  const Time start = std::max(t, job.resume_at);
  const Time finish = start + job.RemainingWork() / rate;
  if (finish <= config_.max_time)
    queue_.Push(
        Event{finish, 0, EventType::kJobFinish, app.id, job.id,
              job.alloc_version});
}

void Simulator::StepTuner(Time t, AppState& app) {
  app.Views(views_scratch_);
  const TunerDecision& decision = app.tuner->Step(views_scratch_, t);
  bool killed = false;
  for (int idx : decision.kill) {
    JobState& job = app.jobs[idx];
    if (job.alive && !job.finished) {
      KillJob(app, job);
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
  if (killed) {
    UpdateHolding(&app);
    TouchAlloc(app.id);
  } else {
    // Cap changes alone can flip UnmetDemand() and with it candidate
    // membership; kills already reclassified through UpdateHolding.
    rho_index_.Update(&app);
  }
}

void Simulator::SchedulingPass(Time t) {
  ++passes_;

  // Change detection is lazy: only jobs actually touched this pass — lease
  // expiries (snapshotted below, before their first removal) and round
  // grants (whose gangs strictly grow) — are examined, so the cost scales
  // with the churn of the pass, not with every live gang in the cluster.
  std::map<std::pair<AppId, JobId>, std::vector<GpuId>> reclaimed_before;

  // 1. Reclaim expired leases (O(expired log n) via the expiry index).
  for (GpuId g : cluster_.ExpiredGpus(t)) {
    const Lease lease = *cluster_.lease(g);
    cluster_.Release(g);
    AppState* app = FindApp(lease.app);
    if (app != nullptr && lease.job < app->jobs.size()) {
      auto& gpus = app->jobs[lease.job].gpus;
      reclaimed_before.try_emplace({lease.app, lease.job}, gpus);
      gpus.erase(std::remove(gpus.begin(), gpus.end(), g), gpus.end());
    }
  }
  for (const auto& [key, gang] : reclaimed_before) {
    (void)gang;
    if (AppState* app = FindApp(key.first)) UpdateHolding(app);
  }

  // 2. Per-app tuner step: kills and parallelism caps. The pass-stepped
  // reference re-steps every active app; the event engine steps only apps
  // whose views could have changed since their last step (arrived, or held
  // GPUs across a time advance) — a Step on unchanged views is a no-op by
  // construction of both tuners, so the skipped calls cannot matter.
  if (event_mode_) {
    std::sort(tuner_dirty_apps_.begin(), tuner_dirty_apps_.end());
    tuner_dirty_apps_.erase(
        std::unique(tuner_dirty_apps_.begin(), tuner_dirty_apps_.end()),
        tuner_dirty_apps_.end());
    for (AppId id : tuner_dirty_apps_) {
      AppState* app = FindApp(id);
      if (app == nullptr || !app->arrived || app->finished) continue;
      StepTuner(t, *app);
    }
    tuner_dirty_apps_.clear();
  } else {
    for (AppState* app : active_apps_) StepTuner(t, *app);
  }

  // Track contention: total live demand (held + unmet) over capacity. The
  // sum is maintained incrementally in integers, so it equals the old
  // per-pass resum exactly.
  peak_contention_ = std::max(peak_contention_,
                              static_cast<double>(total_cap_demand_) /
                                  static_cast<double>(cluster_.num_gpus()));

  // 3. One ARBITER round: publish the offer (free pool computed once from
  // the cluster indices, round id = pass number), let the scheduler stage
  // its grants against the offer's pool, then apply the leases — the single
  // grant-application path; policies never touch the cluster.
  GrantSet grants;
  std::vector<GpuId> free = cluster_.FreeGpus();
  if (!free.empty() && !active_apps_.empty()) {
    ++rounds_executed_;
    ResourceOffer offer;
    offer.round_id = static_cast<std::uint64_t>(passes_);
    offer.time = t;
    offer.lease_duration = config_.lease_minutes;
    offer.free_per_machine = cluster_.FreeGpusPerMachine();
    offer.machine_speeds = cluster_.topology().machine_speeds();
    offer.gpus = std::move(free);
    SchedulerContext ctx(offer, &cluster_, &estimator_, &active_apps_, &rng_,
                         &rho_index_);
    grants = scheduler_->RunRound(offer, ctx);
    ApplyGrants(grants, cluster_);
    if (grants.diagnostics.auction_ran)
      metrics_.RecordAuction(grants.diagnostics.auction_participants,
                             grants.diagnostics.offered_gpus,
                             grants.diagnostics.granted_gpus,
                             grants.diagnostics.leftover_gpus);
    if (round_observer_) round_observer_(offer, grants);
    for (const Grant& g : grants.grants)
      if (AppState* app = FindApp(g.app)) UpdateHolding(app);
  }

  // 4a. Apply restart overheads to the touched jobs. Reclaimed jobs carry
  // their pre-pass gang; granted jobs strictly grew, so a grant with no
  // snapshot is changed by construction. A reclaimed gang re-won intact by
  // a lease renewal compares equal and incurs no restart (same rule as the
  // old full-snapshot walk). std::map order keeps the (app, job) ascending
  // walk — and so the placement-score accumulation order — of that walk.
  std::map<std::pair<AppId, JobId>, const std::vector<GpuId>*> touched;
  for (const auto& [key, gang] : reclaimed_before) touched[key] = &gang;
  for (const Grant& g : grants.grants)
    touched.try_emplace({g.app, g.job}, nullptr);
  for (const auto& [key, before] : touched) {
    AppState* app = FindApp(key.first);
    if (app == nullptr || app->finished || key.second >= app->jobs.size())
      continue;
    JobState& job = app->jobs[key.second];
    const bool changed = before == nullptr || *before != job.gpus;
    if (!changed) continue;
    ++job.alloc_version;
    if (!job.gpus.empty()) {
      job.resume_at = t + config_.restart_overhead_minutes;
      app->placement_scores.Add(PlacementScore(job.gpus, cluster_.topology()));
    }
  }

  // The event engine's walk set for timeline sampling and finish
  // projections: exactly the apps something touched this pass — arrivals,
  // failure revocations and tuner kills (already in alloc_touched_apps_),
  // plus this pass's reclaims and grants. Sorted so the walk order (and so
  // the timeline append / event push order) matches the pass-stepped
  // reference's ascending active-app walk restricted to the same apps.
  if (event_mode_) {
    for (const auto& [key, gang] : reclaimed_before) {
      (void)gang;
      alloc_touched_apps_.push_back(key.first);
    }
    for (const Grant& g : grants.grants) alloc_touched_apps_.push_back(g.app);
    std::sort(alloc_touched_apps_.begin(), alloc_touched_apps_.end());
    alloc_touched_apps_.erase(
        std::unique(alloc_touched_apps_.begin(), alloc_touched_apps_.end()),
        alloc_touched_apps_.end());
  }

  // 4b. Sample the allocation timeline (Fig. 8) — on change. An app whose
  // held count is untouched since its last sample records nothing, so the
  // event engine's touched-only walk appends the identical sample stream.
  const auto record_alloc = [&](AppState* app) {
    int held = 0;
    for (const JobState& job : app->jobs)
      held += static_cast<int>(job.gpus.size());
    if (held != app->last_recorded_held) {
      metrics_.RecordAllocation(t, app->id, held);
      app->last_recorded_held = held;
    }
  };
  if (event_mode_) {
    for (AppId id : alloc_touched_apps_) {
      AppState* app = FindApp(id);
      if (app == nullptr || !app->arrived || app->finished) continue;
      record_alloc(app);
    }
  } else {
    for (AppState* app : active_apps_) record_alloc(app);
  }

  // 5. Schedule lease ticks + projected finish events. The expiry index
  // answers the next-expiry query directly instead of a full GPU scan. Push
  // order (tick first, then finish projections ascending (app, job)) is
  // part of the contract: seq breaks ties at equal times.
  const Time next_expiry = cluster_.NextExpiryAfter(t);
  if (std::isfinite(next_expiry)) PushLeaseTick(next_expiry);
  if (event_mode_) {
    for (AppId id : alloc_touched_apps_) {
      AppState* app = FindApp(id);
      if (app == nullptr || app->finished) continue;
      for (JobState& job : app->jobs) MaybeScheduleFinish(t, *app, job);
    }
    alloc_touched_apps_.clear();
  } else {
    // The pass-stepped reference derives every running job's finish from
    // its granted rate each pass — the per-pass resweep (a Rate() call per
    // job, with its placement walk) that the event engine's pinned
    // projections remove; bench_event_core quantifies exactly this gap.
    // Only the epoch's *first* derivation may enter the queue: a later
    // recomputation reproduces it only up to ulps (progress accumulates in
    // segments), and letting whichever drifted earliest win the heap would
    // unpin the engines' shared event stream. The first derivation is
    // computed at the same instant from the same state as
    // MaybeScheduleFinish's, so the pushed floats are identical.
    for (AppState* app : active_apps_) {
      for (JobState& job : app->jobs) {
        if (!job.Running()) continue;
        const double rate = job.Rate(cluster_.topology());
        if (rate <= 0.0) continue;
        const Time finish =
            std::max(t, job.resume_at) + job.RemainingWork() / rate;
        if (job.finish_projected_version == job.alloc_version) continue;
        job.finish_projected_version = job.alloc_version;
        if (finish <= config_.max_time)
          queue_.Push(Event{finish, 0, EventType::kJobFinish, app->id, job.id,
                            job.alloc_version});
      }
    }
  }
}

SimResult Simulator::Run() {
  while (true) {
    RefillArrivals();
    if (queue_.Empty()) break;
    if (static_cast<std::size_t>(finished_apps_) ==
            static_cast<std::size_t>(next_app_id_) &&
        ReaderExhausted())
      break;
    Time t = queue_.Top().time;
    if (t > config_.max_time) break;

    bool saw_tick = false;
    // Epsilon-batched auction rounds (event engine): when a lease tick
    // fires, every lease expiring within the epsilon window is reclaimed by
    // this one pass — the pass runs at the *latest* such expiry instant, so
    // it publishes one larger ResourceOffer instead of several slivers
    // (each merged lease effectively runs up to epsilon longer). The jump
    // never passes a queued event or the next streamed arrival, so nothing
    // is ever handled late.
    if (event_mode_ && config_.auction_epsilon_minutes > 0.0 &&
        queue_.Top().type == EventType::kLeaseTick) {
      const Event tick = queue_.Pop();
      ++events_processed_;
      pushed_ticks_.erase(tick.time);
      saw_tick = true;
      Time bound = tick.time + config_.auction_epsilon_minutes;
      if (!queue_.Empty()) bound = std::min(bound, queue_.Top().time);
      if (have_pending_) bound = std::min(bound, pending_spec_.arrival);
      bound = std::min(bound, config_.max_time);
      // Stale ticks (nothing expiring in the window) stay at their own
      // instant; expiries already past are reclaimed wherever t lands.
      t = std::max(tick.time, cluster_.LatestExpiryAtOrBefore(bound));
    }

    AdvanceTo(t);

    bool need_schedule = false;
    while (!queue_.Empty() && queue_.Top().time <= t + 1e-12) {
      const Event e = queue_.Pop();
      ++events_processed_;
      switch (e.type) {
        case EventType::kAppArrival: {
          AppState* app = FindApp(e.app);
          app->arrived = true;
          app->tuner->Init(app->spec);
          ActivateApp(app);
          MarkTunerDirty(app);
          TouchAlloc(app->id);
          ArmMetricsTick(t);
          need_schedule = true;
          break;
        }
        case EventType::kLeaseTick:
          pushed_ticks_.erase(e.time);
          saw_tick = true;
          break;
        case EventType::kJobFinish: {
          AppState* app = FindApp(e.app);
          if (app == nullptr || app->finished) break;
          JobState& job = app->jobs[e.job];
          if (job.alloc_version != e.version || !job.Running()) break;
          if (job.RemainingWork() <= kFinishEps + 1e-9 * job.spec.total_work) {
            FinishJob(t, *app, job);
            need_schedule = true;
            // The app's metrics are flushed; its JobState/tuner/placement
            // state can go. `app` and `job` dangle past this point.
            RetireApp(e.app);
          } else {
            // The projection drifted past the tolerance: progress between
            // events accumulates in segments, and a sum of segment products
            // is not bitwise the single product the projection used. Re-push
            // from current progress (strictly later than t, so this
            // terminates) — the finish is never silently lost.
            const double rate = job.Rate(cluster_.topology());
            if (rate > 0.0) {
              const Time finish =
                  std::max(t, job.resume_at) + job.RemainingWork() / rate;
              if (finish <= config_.max_time)
                queue_.Push(Event{finish, 0, EventType::kJobFinish, e.app,
                                  e.job, job.alloc_version});
            }
          }
          break;
        }
        case EventType::kMachineFail: {
          ++machine_failures_;
          cluster_.SetMachineDown(e.machine, true);
          // Revoke every lease on the failed machine; affected jobs lose
          // part (or all) of their gang and restart from checkpoints once
          // rescheduled.
          for (GpuId g : cluster_.topology().machine_gpus(e.machine)) {
            if (cluster_.IsFree(g)) continue;
            const Lease lease = *cluster_.lease(g);
            cluster_.Release(g);
            ++leases_revoked_by_failures_;
            AppState* app = FindApp(lease.app);
            if (app != nullptr && lease.job < app->jobs.size()) {
              JobState& job = app->jobs[lease.job];
              auto& gpus = job.gpus;
              gpus.erase(std::remove(gpus.begin(), gpus.end(), g), gpus.end());
              ++job.alloc_version;
              job.resume_at = t + config_.restart_overhead_minutes;
              UpdateHolding(app);
              TouchAlloc(lease.app);
            }
          }
          Event repair;
          repair.time = t + config_.machine_repair_minutes;
          repair.type = EventType::kMachineRepair;
          repair.machine = e.machine;
          queue_.Push(repair);
          need_schedule = true;
          break;
        }
        case EventType::kMachineRepair: {
          cluster_.SetMachineDown(e.machine, false);
          if (config_.machine_mtbf_minutes > 0.0 &&
              (static_cast<std::size_t>(finished_apps_) <
                   static_cast<std::size_t>(next_app_id_) ||
               !ReaderExhausted())) {
            Event next;
            next.time = t + failure_rng_.Exponential(config_.machine_mtbf_minutes);
            next.type = EventType::kMachineFail;
            next.machine = e.machine;
            queue_.Push(next);
          }
          need_schedule = true;
          break;
        }
        case EventType::kMetricsTick: {
          metrics_tick_armed_ = false;
          if (!active_apps_.empty()) {
            for (AppState* app : active_apps_) {
              int held = 0;
              for (const JobState& job : app->jobs)
                held += static_cast<int>(job.gpus.size());
              metrics_.RecordAllocation(t, app->id, held);
              app->last_recorded_held = held;
            }
            ArmMetricsTick(t);
          }
          // Re-armed by the next arrival otherwise: ticks never span an
          // idle cluster, so sparse traces still jump the gaps.
          break;
        }
      }
    }
    // A lease tick demands a pass only when a lease actually expired by
    // now. Stale ticks (their lease renewed or released since the tick was
    // pushed, or the last holder finished) advance virtual time and
    // nothing else — the fix for pass-stepped tail walks on exhausted
    // streams. The tick chain survives the skip: ticks are (re)pushed by
    // passes, and only passes move expiries.
    if (saw_tick && cluster_.HasExpiredLease(t)) need_schedule = true;
    if (need_schedule) SchedulingPass(t);
  }

  SimResult result;
  result.end_time = last_advance_;
  result.scheduling_passes = passes_;
  result.peak_contention = peak_contention_;
  result.machine_failures = machine_failures_;
  result.gpu_leases_revoked_by_failures = leases_revoked_by_failures_;
  result.events_processed = events_processed_;
  result.rounds_executed = rounds_executed_;
  result.sim_time_advances = time_advances_;
  for (const auto& app : apps_)
    if (app != nullptr && !app->finished) result.unfinished.push_back(app->id);
  // Apps still in the reader never arrived (the run hit max_time first);
  // they are unfinished by definition. Assign their would-be ids one at a
  // time — the trace itself is never materialized.
  if (have_pending_) {
    do {
      result.unfinished.push_back(next_app_id_++);
    } while (reader_->Next(pending_spec_));
    have_pending_ = false;
  }
  result.total_apps = static_cast<std::size_t>(next_app_id_);
  result.peak_live_apps = peak_live_apps_;
  result.metrics = std::move(metrics_);
  return result;
}

}  // namespace themis
