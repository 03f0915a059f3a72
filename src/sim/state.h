// Runtime state of apps and jobs, as the ARBITER keeps it (sim/arbiter_state.h)
// for both the simulator and the daemon.
//
// JobState tracks progress in serial GPU-minutes: a job holding GPU set G
// with placement slowdown S progresses at rate |G| * S. AppState owns its
// jobs, its hyper-parameter tuner, and the bookkeeping every scheduling
// policy reads (attained service for Tiresias, loss curves for SLAQ, rho
// inputs for THEMIS).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "common/types.h"
#include "hyperopt/app_scheduler.h"
#include "placement/placement_model.h"
#include "workload/job_spec.h"

namespace themis {

struct JobState {
  JobId id = 0;
  JobSpec spec;

  Work done = 0.0;
  bool alive = true;      // false once the tuner kills it
  bool finished = false;  // reached target accuracy
  Time finish_time = -1.0;

  /// GPUs currently leased to this job (its gang).
  std::vector<GpuId> gpus;
  /// Progress stalls until this time after any allocation change
  /// (checkpoint + container churn, Sec. 8.3.2).
  Time resume_at = 0.0;
  /// Maximum parallelism granted by the tuner (G_ideal for this job).
  int parallelism_cap = 0;
  /// Bumped on every allocation change; stale finish events carry old values.
  std::uint64_t alloc_version = 0;
  /// The alloc_version a finish projection was last made for. A projection
  /// is made at most once per allocation epoch: the finish time is analytic
  /// in the granted rate, so recomputing it every pass would only produce
  /// ulp-shifted duplicates of the same instant. ~0 = never projected.
  std::uint64_t finish_projected_version = ~0ull;
  /// Total GPU-minutes consumed (Tiresias' "attained service").
  Work attained_service = 0.0;

  /// Per-epoch cache of the gang-derived constants (progress rate, gang
  /// speed sum). Within one allocation epoch the gang is fixed, so both
  /// are fixed too: ArbiterState::Accrue (the event engine and the daemon)
  /// computes them once per epoch and reuses them at every time advance,
  /// while the pass-stepped reference re-derives them on each call. The cache
  /// holds the same pure functions of (gang, topology), so reuse is
  /// bitwise-neutral. Valid only between scheduling passes: a pass may
  /// mutate the gang before bumping alloc_version, so mid-pass readers
  /// must use Rate()/SpeedSum directly.
  std::uint64_t rate_cache_version = ~0ull;
  double cached_rate = 0.0;
  double cached_speed_sum = 0.0;

  bool Running() const { return alive && !finished && !gpus.empty(); }
  Work RemainingWork() const { return std::max(0.0, spec.total_work - done); }
  /// Remaining work is within float noise of zero: the job reached its
  /// target accuracy.
  bool ReachedTarget() const;
  double DoneIterations() const { return done / spec.WorkPerIteration(); }
  /// Progress rate |G| * S given the topology; 0 when not running.
  double Rate(const Topology& topo) const;
  /// Rate()/SpeedSum through the per-epoch cache (see above).
  double CachedRate(const Topology& topo) {
    if (rate_cache_version != alloc_version) RefreshRateCache(topo);
    return cached_rate;
  }
  double CachedSpeedSum(const Topology& topo) {
    if (rate_cache_version != alloc_version) RefreshRateCache(topo);
    return cached_speed_sum;
  }
  void RefreshRateCache(const Topology& topo);
  /// Additional whole gangs this job can still use.
  int UnmetGangs() const;
};

struct AppState {
  AppId id = 0;
  AppSpec spec;
  std::unique_ptr<IAppScheduler> tuner;
  std::vector<JobState> jobs;

  bool arrived = false;
  bool finished = false;
  Time finish_time = -1.0;
  /// T_ID: running time alone on the cluster with ideal placement.
  Time ideal_time = 1.0;
  Work attained_service = 0.0;
  /// Mean placement score of this app's (non-empty) job allocations.
  Summary placement_scores;
  /// Cached fairness estimate from the last ARBITER probe (diagnostics).
  double last_rho = kUnboundedRho;
  /// Set when this app's tuner views may have changed since its last Step
  /// (arrival or progress); ArbiterState steps only marked apps.
  bool tuner_dirty = false;
  /// CapDemand() as of the last tuner step — ArbiterState's maintained
  /// contention sum is adjusted by deltas against this.
  long long cached_cap_demand = 0;
  /// Last held-GPU count recorded to the allocation timeline (-1 = never):
  /// the simulator samples the timeline on change, not on every pass.
  int last_recorded_held = -1;
  /// RhoIndex bookkeeping (core/rho_index.h): which class the maintained
  /// filter index currently files this app under (0 = absent, 1 = holder,
  /// 2 = unbounded candidate). Owned by the index; nothing else reads it.
  std::uint8_t rho_index_class = 0;

  Time arrival() const { return spec.arrival; }
  /// Finish-time fairness realized at completion: (finish - arrival) / T_ID.
  double FinalRho() const;
  /// Jobs still training (alive, not finished).
  std::vector<int> ActiveJobs() const;
  int GpusHeld() const;
  /// Speed-weighted GPU holdings (sum of generation speeds over every held
  /// GPU) — the app's share in effective GPUs. Equals GpusHeld() on
  /// speed-1.0 clusters.
  double EffectiveGpusHeld(const Topology& topo) const;
  /// Whole-gang GPU demand still unmet across active jobs.
  int UnmetDemand() const;
  /// Capped GPU demand: sum over alive jobs of min(parallelism_cap,
  /// MaxParallelism) — this app's contribution to the contention yardstick.
  int CapDemand() const;

  /// JobView vector for the tuner.
  std::vector<JobView> Views() const;
  /// Same, filling `out` in place — the simulator's tuner walk reuses one
  /// scratch vector across apps instead of allocating per Step.
  void Views(std::vector<JobView>& out) const;
};

/// Deterministically ordered list of app pointers (by AppId).
using AppList = std::vector<AppState*>;

}  // namespace themis
