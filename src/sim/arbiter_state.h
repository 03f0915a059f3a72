// The ARBITER's state and its round transitions (Sec. 5.1), shared by both
// front ends: the event-driven Simulator and the daemon's
// server::ArbiterCore. Each front end owns one ArbiterState and adds only
// its clock — event instants for the simulator, fixed round boundaries for
// the daemon — so an app is built, arrives, progresses, loses leases, is
// re-tuned, bids and is charged for a gang change by the same code on both.
//
// One round, in the order both front ends drive it:
//   Accrue(from, to)    — progress and attained service for lease holders;
//   FinishJob / EvictApp — the front end's finish detection;
//   ReclaimExpired(t)   — release expired leases, snapshot the gangs;
//   StepTuners(t)       — kills and caps for apps whose views may have moved;
//   PublishOffer(...)   — the free pool as a ResourceOffer, if any;
//   RunRound(offer)     — the policy's grants, leased through ApplyGrants;
//   ChargeRestarts(t)   — the Sec. 8.3.2 checkpoint/restart stall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/rho_index.h"
#include "estimator/work_estimator.h"
#include "metrics/collector.h"
#include "sim/policy.h"
#include "sim/state.h"

namespace themis {

class ArbiterState {
 public:
  /// `lease_minutes` is every offer's lease term; `restart_overhead_minutes`
  /// the progress stall charged when a job's gang changes.
  ArbiterState(ClusterSpec cluster_spec,
               std::unique_ptr<IRoundScheduler> scheduler,
               const EstimatorConfig& estimator, std::uint64_t seed,
               Time lease_minutes, Time restart_overhead_minutes);

  /// Build the AppState for `spec` under the next AppId. It has not
  /// arrived yet: policies see it only after Arrive.
  AppState& AddApp(AppSpec spec);
  /// The app arrives: its tuner starts and it joins the active list.
  void Arrive(AppState& app);
  /// `job` of an active app reached its target accuracy: it is the app's
  /// best model, so the app finishes and its other jobs are terminated
  /// (Sec. 2.1). Counts toward finished_apps().
  void FinishJob(Time t, AppState& app, JobState& job);
  /// End an app that did not converge (its AGENT left): the same release
  /// as a finish, not counted in finished_apps(). No-op if already ended.
  void EvictApp(Time t, AppState& app);
  /// Destroy an ended app's state. Its id stays taken.
  void DropApp(AppId id);

  /// Progress and attained service over [from, to] for every lease holder.
  /// Held GPUs count as GPU-time into `metrics` (may be null).
  void Accrue(Time from, Time to, MetricsCollector* metrics);
  /// Release every lease expired by `t`, remembering each touched gang as
  /// it stood before, for ChargeRestarts.
  void ReclaimExpired(Time t);
  /// Step the tuner of every app whose views may have changed since its
  /// last step (it arrived or held GPUs across an Accrue). Appends the ids
  /// of apps that lost a job to `killed` when non-null.
  void StepTuners(Time t, std::vector<AppId>* killed = nullptr);
  /// Step one app's tuner: kills and parallelism caps. True if it killed.
  bool StepTuner(Time t, AppState& app);
  /// Fill `offer` with the free pool; false (offer untouched) when there
  /// are no free GPUs or no active apps.
  bool PublishOffer(std::uint64_t round_id, Time t, ResourceOffer& offer);
  /// Run the policy over `offer` (which PublishOffer just filled) and lease
  /// the grants.
  GrantSet RunRound(const ResourceOffer& offer);
  /// Charge the restart overhead and record a placement score for every
  /// job whose gang changed since ReclaimExpired: a granted job, or a
  /// reclaimed one whose gang differs from its snapshot. A gang renewed
  /// intact is free; a partly expired gang that shrank is charged.
  void ChargeRestarts(Time t, const GrantSet& grants);

  AppState* FindApp(AppId id);
  const AppState* FindApp(AppId id) const;
  /// Resident apps, indexed by AppId minus the dropped prefix; dropped
  /// slots are null until the front of the window is popped.
  const std::deque<std::unique_ptr<AppState>>& apps() const { return apps_; }
  /// Arrived, unended apps in ascending AppId.
  const AppList& active() const { return active_; }
  /// Apps built so far, dropped ones included (the next AppId).
  std::size_t num_apps() const { return next_app_id_; }
  std::size_t finished_apps() const { return finished_apps_; }
  /// Sum over active apps of CapDemand() as of their last tuner step.
  long long total_cap_demand() const { return total_cap_demand_; }
  /// This round's reclaimed jobs and their pre-reclaim gangs.
  const std::map<std::pair<AppId, JobId>, std::vector<GpuId>>& reclaimed()
      const {
    return reclaimed_;
  }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  /// Call Update after mutating a gang outside these transitions.
  RhoIndex& rho_index() { return rho_index_; }

 private:
  void KillJob(JobState& job);
  void End(Time t, AppState& app);
  void MarkTunerDirty(AppState& app);

  Cluster cluster_;
  std::unique_ptr<IRoundScheduler> scheduler_;
  WorkEstimator estimator_;
  Rng rng_;
  Time lease_minutes_;
  Time restart_overhead_minutes_;
  /// apps_[id - apps_base_] is the state for `id`.
  std::deque<std::unique_ptr<AppState>> apps_;
  AppId apps_base_ = 0;
  AppId next_app_id_ = 0;
  AppList active_;
  /// Filter index for the rho sort, handed to policies through
  /// SchedulerContext::rho_index(). Its holders() are the Accrue walk.
  RhoIndex rho_index_;
  /// Apps to step at the next StepTuners (AppState::tuner_dirty guards
  /// duplicates).
  std::vector<AppId> tuner_dirty_;
  std::vector<JobView> views_scratch_;
  std::map<std::pair<AppId, JobId>, std::vector<GpuId>> reclaimed_;
  std::size_t finished_apps_ = 0;
  long long total_cap_demand_ = 0;
};

}  // namespace themis
