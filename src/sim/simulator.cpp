#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/log.h"

namespace themis {

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
    : state_(std::move(cluster_spec), std::move(scheduler), config.estimator,
             config.seed, config.lease_minutes,
             config.restart_overhead_minutes),
      config_(config),
      metrics_(config.metrics) {
  config_.Validate();
  event_mode_ = config_.engine == SimEngine::kEventDriven;
  for (AppSpec& spec : specs) InjectApp(std::move(spec));

  // Failure injection: seed per-machine failure clocks (Sec. 6).
  failure_rng_ = Rng(config_.seed ^ 0xFA11DEADULL);
  if (config_.machine_mtbf_minutes > 0.0) {
    for (MachineId m = 0;
         m < static_cast<MachineId>(state_.cluster().num_machines()); ++m) {
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
    : state_(std::move(cluster_spec), std::move(scheduler), config.estimator,
             config.seed, config.lease_minutes,
             config.restart_overhead_minutes),
      config_(config),
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
    for (MachineId m = 0;
         m < static_cast<MachineId>(state_.cluster().num_machines()); ++m) {
      Event e;
      e.time = failure_rng_.Exponential(config_.machine_mtbf_minutes);
      e.type = EventType::kMachineFail;
      e.machine = m;
      queue_.Push(e);
    }
  }
}

void Simulator::InjectApp(AppSpec&& spec) {
  const AppState& app = state_.AddApp(std::move(spec));
  queue_.Push(Event{app.spec.arrival, 0, EventType::kAppArrival, app.id,
                    kNoJob, 0});
  ++live_apps_;
  peak_live_apps_ = std::max(peak_live_apps_, live_apps_);
}

void Simulator::RefillArrivals() {
  while (have_pending_) {
    // Past the horizon, apps stay in the reader; they are accounted (as
    // unfinished) when the run ends.
    if (pending_spec_.arrival > config_.max_time) break;
    if (!queue_.Empty() && state_.finished_apps() != state_.num_apps() &&
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
  state_.DropApp(id);
  --live_apps_;
}

void Simulator::TouchAlloc(AppId id) {
  if (event_mode_) alloc_touched_apps_.push_back(id);
}

void Simulator::AdvanceTo(Time t) {
  if (t <= last_advance_) return;
  ++time_advances_;
  if (event_mode_) {
    state_.Accrue(last_advance_, t, &metrics_);
    last_advance_ = t;
    return;
  }
  // The pass-stepped reference walks every active app and re-derives each
  // gang's speed sum and rate on every advance, like the seed loop did.
  // Non-holders contribute nothing, so the RecordGpuTime call sequence (a
  // float accumulation, hence order-sensitive) matches ArbiterState::Accrue.
  const Topology& topo = state_.cluster().topology();
  for (AppState* app : state_.active()) {
    for (JobState& job : app->jobs) {
      if (job.gpus.empty()) continue;
      const double held_dt = t - last_advance_;
      const Work effective_minutes = held_dt * topo.SpeedSum(job.gpus);
      job.attained_service += effective_minutes;
      app->attained_service += effective_minutes;
      metrics_.RecordGpuTime(held_dt * static_cast<double>(job.gpus.size()));
      if (!job.Running()) continue;
      const Time seg_start = std::max(last_advance_, job.resume_at);
      if (t > seg_start) {
        job.done += (t - seg_start) * job.Rate(topo);
        job.done = std::min(job.done, job.spec.total_work);
      }
    }
  }
  last_advance_ = t;
}

void Simulator::FinishJob(Time t, AppState& app, JobState& job) {
  state_.FinishJob(t, app, job);
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
  const double rate = job.CachedRate(state_.cluster().topology());
  if (rate <= 0.0) return;
  const Time start = std::max(t, job.resume_at);
  const Time finish = start + job.RemainingWork() / rate;
  if (finish <= config_.max_time)
    queue_.Push(
        Event{finish, 0, EventType::kJobFinish, app.id, job.id,
              job.alloc_version});
}

void Simulator::SchedulingPass(Time t) {
  ++passes_;

  // 1. Reclaim expired leases (O(expired log n) via the expiry index).
  state_.ReclaimExpired(t);

  // 2. Per-app tuner step: kills and parallelism caps. The pass-stepped
  // reference re-steps every active app; the event engine steps only apps
  // whose views could have changed since their last step (arrived, or held
  // GPUs across a time advance) — a Step on unchanged views is a no-op by
  // construction of every tuner, so the skipped calls cannot matter.
  if (!event_mode_)
    for (AppState* app : state_.active()) state_.StepTuner(t, *app);
  state_.StepTuners(t, &alloc_touched_apps_);

  // Track contention: total live demand (held + unmet) over capacity. The
  // sum is maintained incrementally in integers, so it equals the old
  // per-pass resum exactly.
  peak_contention_ =
      std::max(peak_contention_,
               static_cast<double>(state_.total_cap_demand()) /
                   static_cast<double>(state_.cluster().num_gpus()));

  // 3. One ARBITER round (round id = pass number), then 4a. the restart
  // overhead for every job whose gang changed.
  GrantSet grants;
  ResourceOffer offer;
  if (state_.PublishOffer(static_cast<std::uint64_t>(passes_), t, offer)) {
    ++rounds_executed_;
    grants = state_.RunRound(offer);
    if (grants.diagnostics.auction_ran)
      metrics_.RecordAuction(grants.diagnostics.auction_participants,
                             grants.diagnostics.offered_gpus,
                             grants.diagnostics.granted_gpus,
                             grants.diagnostics.leftover_gpus);
    if (round_observer_) round_observer_(offer, grants);
  }
  state_.ChargeRestarts(t, grants);

  // The event engine's walk set for timeline sampling and finish
  // projections: exactly the apps something touched this pass — arrivals,
  // failure revocations and tuner kills (already in alloc_touched_apps_),
  // plus this pass's reclaims and grants. Sorted so the walk order (and so
  // the timeline append / event push order) matches the pass-stepped
  // reference's ascending active-app walk restricted to the same apps.
  if (event_mode_) {
    for (const auto& [key, gang] : state_.reclaimed()) {
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
      AppState* app = state_.FindApp(id);
      if (app == nullptr || !app->arrived || app->finished) continue;
      record_alloc(app);
    }
  } else {
    for (AppState* app : state_.active()) record_alloc(app);
  }

  // 5. Schedule lease ticks + projected finish events. The expiry index
  // answers the next-expiry query directly instead of a full GPU scan. Push
  // order (tick first, then finish projections ascending (app, job)) is
  // part of the contract: seq breaks ties at equal times.
  const Topology& topo = state_.cluster().topology();
  const Time next_expiry = state_.cluster().NextExpiryAfter(t);
  if (std::isfinite(next_expiry)) PushLeaseTick(next_expiry);
  if (event_mode_) {
    for (AppId id : alloc_touched_apps_) {
      AppState* app = state_.FindApp(id);
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
    for (AppState* app : state_.active()) {
      for (JobState& job : app->jobs) {
        if (!job.Running()) continue;
        const double rate = job.Rate(topo);
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
    if (state_.finished_apps() == state_.num_apps() && ReaderExhausted())
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
      t = std::max(tick.time, state_.cluster().LatestExpiryAtOrBefore(bound));
    }

    AdvanceTo(t);

    bool need_schedule = false;
    while (!queue_.Empty() && queue_.Top().time <= t + 1e-12) {
      const Event e = queue_.Pop();
      ++events_processed_;
      switch (e.type) {
        case EventType::kAppArrival: {
          state_.Arrive(*state_.FindApp(e.app));
          TouchAlloc(e.app);
          ArmMetricsTick(t);
          need_schedule = true;
          break;
        }
        case EventType::kLeaseTick:
          pushed_ticks_.erase(e.time);
          saw_tick = true;
          break;
        case EventType::kJobFinish: {
          AppState* app = state_.FindApp(e.app);
          if (app == nullptr || app->finished) break;
          JobState& job = app->jobs[e.job];
          if (job.alloc_version != e.version || !job.Running()) break;
          if (job.ReachedTarget()) {
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
            const double rate = job.Rate(state_.cluster().topology());
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
          Cluster& cluster = state_.cluster();
          cluster.SetMachineDown(e.machine, true);
          // Revoke every lease on the failed machine; affected jobs lose
          // part (or all) of their gang and restart from checkpoints once
          // rescheduled.
          for (GpuId g : cluster.topology().machine_gpus(e.machine)) {
            if (cluster.IsFree(g)) continue;
            const Lease lease = *cluster.lease(g);
            cluster.Release(g);
            ++leases_revoked_by_failures_;
            AppState* app = state_.FindApp(lease.app);
            if (app != nullptr && lease.job < app->jobs.size()) {
              JobState& job = app->jobs[lease.job];
              auto& gpus = job.gpus;
              gpus.erase(std::remove(gpus.begin(), gpus.end(), g), gpus.end());
              ++job.alloc_version;
              job.resume_at = t + config_.restart_overhead_minutes;
              state_.rho_index().Update(app);
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
          state_.cluster().SetMachineDown(e.machine, false);
          if (config_.machine_mtbf_minutes > 0.0 &&
              (state_.finished_apps() < state_.num_apps() ||
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
          if (!state_.active().empty()) {
            for (AppState* app : state_.active()) {
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
    if (saw_tick && state_.cluster().HasExpiredLease(t)) need_schedule = true;
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
  for (const auto& app : state_.apps())
    if (app != nullptr && !app->finished) result.unfinished.push_back(app->id);
  // Apps still in the reader never arrived (the run hit max_time first);
  // they are unfinished by definition. Assign their would-be ids one at a
  // time — the trace itself is never materialized.
  AppId next_id = static_cast<AppId>(state_.num_apps());
  if (have_pending_) {
    do {
      result.unfinished.push_back(next_id++);
    } while (reader_->Next(pending_spec_));
    have_pending_ = false;
  }
  result.total_apps = static_cast<std::size_t>(next_id);
  result.peak_live_apps = peak_live_apps_;
  result.metrics = std::move(metrics_);
  return result;
}

}  // namespace themis
