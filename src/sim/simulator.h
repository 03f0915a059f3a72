// Event-driven GPU-cluster simulator (Sec. 8.1 "Simulator").
//
// The simulator is an event loop around the ARBITER's state
// (sim/arbiter_state.h), which it shares with the daemon: between events it
// accrues progress, and each scheduling pass reclaims expired leases, steps
// the per-app tuners (HyperBand / HyperDrive), runs one ARBITER round over
// a ResourceOffer and charges the checkpoint/restart overhead whenever a
// job's gang changes. The loop itself owns what only a simulation has: the
// event queue, streamed arrivals and app retirement, machine failures, the
// allocation timeline and metrics ticks, analytic finish projections (an
// app finishes the instant its first job reaches the target accuracy —
// that job is the "best model", Sec. 2.1) and epsilon-batched rounds.
//
// Workloads arrive either as a preloaded vector (every AppState built up
// front — the classic path, bit-identical to before) or through a
// TraceReader: arrivals are injected as the stream advances, so the event
// queue and AppState store hold only apps near the simulation frontier.
// With `retire_finished_apps` set, an app's JobState/tuner/placement state
// is destroyed as soon as its final metrics are flushed — live memory then
// tracks *concurrent* apps, not total apps, which is what lets a
// million-job trace replay in bounded memory.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "estimator/work_estimator.h"
#include "metrics/collector.h"
#include "sim/arbiter_state.h"
#include "sim/events.h"
#include "sim/policy.h"
#include "sim/state.h"
#include "workload/trace_gen.h"

namespace themis {

/// Which main-loop implementation drives the run. Both are discrete-event
/// engines over the same typed queue and produce bit-identical results
/// (same events, same rounds, same floats); they differ only in per-pass
/// cost. kEventDriven touches only state the event stream implicates
/// (holder apps, dirty tuners, reallocated jobs) and pins one finish
/// projection per allocation epoch; kPassStepped is the brute-force
/// reference that re-walks every active app and re-derives every running
/// job's finish from its granted rate each pass — the per-pass resweep
/// the analytic projections remove (bench_event_core quantifies the gap).
enum class SimEngine {
  kEventDriven,
  kPassStepped,
};

struct SimConfig {
  /// GPU lease duration (Sec. 8.2's sensitivity knob; default 20 min).
  Time lease_minutes = 20.0;
  /// Progress stall applied when a job's gang changes: checkpoint to HDFS
  /// (5-10 s) plus container churn (35-50 s), Sec. 8.3.2.
  Time restart_overhead_minutes = 0.75;
  /// Hard ceiling on simulated time; apps unfinished past this point are
  /// reported as such (tests assert none are).
  Time max_time = 1.0e7;
  EstimatorConfig estimator;
  std::uint64_t seed = 1234;

  /// Failure injection (Sec. 6 "Scheduling after failures" — the study the
  /// paper leaves to future work). Mean time between failures per machine in
  /// minutes; 0 disables injection. When a machine fails every GPU lease on
  /// it is revoked (the affected jobs restart from checkpoints elsewhere)
  /// and the machine rejoins after `machine_repair_minutes`.
  Time machine_mtbf_minutes = 0.0;
  Time machine_repair_minutes = 60.0;

  /// Destroy an app's state once it finishes and its metrics are recorded.
  /// Requires nothing of the workload source but only pays off with a
  /// TraceReader, where live memory then tracks concurrent apps.
  bool retire_finished_apps = false;
  /// How far past the event-queue frontier to inject streamed arrivals.
  /// 0 keeps the queue minimal; larger values trade memory for fewer reader
  /// touches. Ignored for preloaded workloads.
  Time arrival_lookahead_minutes = 0.0;
  /// Metrics memory mode (exact by default; see MetricsConfig).
  MetricsConfig metrics;

  /// Main-loop implementation (see SimEngine).
  SimEngine engine = SimEngine::kEventDriven;
  /// Epsilon-batched auction rounds (event engine only): when a lease tick
  /// fires, every lease expiring within this window is reclaimed by that
  /// one scheduling pass, run at the latest such expiry instant — one
  /// larger ResourceOffer instead of several slivers. Merged leases
  /// effectively run up to epsilon longer; the batch never reaches past a
  /// queued event or a pending streamed arrival. 0 disables coalescing;
  /// > 0 requires the event-driven engine (it deliberately trades
  /// bit-exactness against the pass-stepped reference for fewer rounds).
  Time auction_epsilon_minutes = 0.0;
  /// When > 0, kMetricsTick events sample every active app's held-GPU
  /// count into the allocation timeline at this period (the timeline
  /// otherwise records changes only). Ticks are armed while apps are live
  /// and never span idle stretches, so sparse traces still jump gaps.
  Time metrics_tick_minutes = 0.0;

  /// Thread budget for the ARBITER round's data-parallel phases (probe and
  /// bid preparation): 0 or 1 runs the round serially, >= 2 fans those
  /// phases out over the shared process pool. Folded into
  /// ThemisConfig::auction_threads by the experiment runners; results are
  /// bit-identical at any value (see common/parallel.h). Baseline policies
  /// ignore it. Negative values are rejected by Validate().
  int round_threads = 0;

  /// Reject configurations that would silently produce nonsense runs
  /// (non-positive lease, negative overhead, ...). Throws
  /// std::invalid_argument naming the offending knob; called by the
  /// Simulator constructor before any state is built.
  void Validate() const;
};

struct SimResult {
  MetricsCollector metrics;
  /// Apps that never finished before max_time (should be empty).
  std::vector<AppId> unfinished;
  Time end_time = 0.0;
  int scheduling_passes = 0;
  /// Peak over time of (sum of active apps' GPU demand) / cluster GPUs —
  /// the paper's contention yardstick (Sec. 8.3 reports 4.76x and calls it
  /// the ideal max finish-time fairness).
  double peak_contention = 0.0;
  /// Failure-injection accounting.
  int machine_failures = 0;
  int gpu_leases_revoked_by_failures = 0;
  /// Event-vs-pass efficiency counters: typed events popped off the queue,
  /// ARBITER rounds actually run (RunRound invocations; a pass skips its
  /// round when the free pool or active set is empty), and distinct
  /// virtual-time advances. With auction_epsilon_minutes = 0 both engines
  /// process identical event streams, so all three match bit-for-bit.
  long long events_processed = 0;
  long long rounds_executed = 0;
  long long sim_time_advances = 0;
  /// Apps seen end to end (streamed or preloaded; includes unfinished).
  std::size_t total_apps = 0;
  /// Peak simultaneously-resident AppStates. Equals total_apps unless
  /// retire_finished_apps; with retirement it tracks peak concurrency.
  std::size_t peak_live_apps = 0;
};

class Simulator {
 public:
  /// Preloaded workload: every AppState is built up front.
  Simulator(ClusterSpec cluster_spec, std::vector<AppSpec> apps,
            std::unique_ptr<IRoundScheduler> scheduler, SimConfig config = {});

  /// Streamed workload: apps are pulled from the reader (which must yield
  /// them in nondecreasing arrival order) as simulated time approaches
  /// their arrival.
  Simulator(ClusterSpec cluster_spec, std::unique_ptr<TraceReader> trace,
            std::unique_ptr<IRoundScheduler> scheduler, SimConfig config = {});

  /// Run to completion (all apps finished) or to config.max_time.
  SimResult Run();

  const Cluster& cluster() const { return state_.cluster(); }
  /// Resident apps, indexed by AppId minus the retirement offset; retired
  /// slots are null until the front of the window is popped.
  const std::deque<std::unique_ptr<AppState>>& apps() const {
    return state_.apps();
  }

  /// Observe every (offer, grants) round as it is applied — the federation
  /// layer uses this to check cross-shard invariants; tests use it to audit
  /// grant streams. Called after ApplyGrants, before overhead accounting.
  using RoundObserver =
      std::function<void(const ResourceOffer&, const GrantSet&)>;
  void set_round_observer(RoundObserver observer) {
    round_observer_ = std::move(observer);
  }

 private:
  void AdvanceTo(Time t);
  void SchedulingPass(Time t);
  /// ArbiterState::FinishJob plus the app's finish record and timeline
  /// close-out.
  void FinishJob(Time t, AppState& app, JobState& job);
  /// Project `job`'s analytic finish time from its granted rate and push
  /// the kJobFinish event — at most once per allocation epoch (see
  /// JobState::finish_projected_version). Event engine only; the
  /// pass-stepped reference re-derives projections inline every pass with
  /// the same arithmetic and the same push gate (SchedulingPass step 5),
  /// so the two must stay in sync.
  void MaybeScheduleFinish(Time t, AppState& app, JobState& job);
  void PushLeaseTick(Time t);
  /// Arm / re-arm the periodic metrics tick (no-op when disabled).
  void ArmMetricsTick(Time t);
  /// Note that `app`'s held-GPU count may have changed this pass, so the
  /// event engine's timeline walk must examine it.
  void TouchAlloc(AppId id);

  /// Build the AppState for `spec` and enqueue its arrival event. Shared
  /// by the preloading constructor and the streaming refill.
  void InjectApp(AppSpec&& spec);
  /// Pull streamed arrivals up to the lookahead horizon (and always at
  /// least one when the queue is empty or everything injected finished).
  void RefillArrivals();
  /// True once the trace source has no further apps (trivially true for
  /// preloaded workloads).
  bool ReaderExhausted() const { return !have_pending_; }
  /// Destroy a finished app's state (no-op unless retire_finished_apps).
  void RetireApp(AppId id);

  ArbiterState state_;
  /// Apps whose held-GPU count may have changed before/outside the current
  /// pass (arrivals, failure revocations, tuner kills); consumed by the
  /// pass's timeline + finish-projection walks.
  std::vector<AppId> alloc_touched_apps_;
  RoundObserver round_observer_;
  SimConfig config_;
  EventQueue queue_;
  MetricsCollector metrics_;
  Time last_advance_ = 0.0;
  std::set<Time> pushed_ticks_;
  int passes_ = 0;
  double peak_contention_ = 0.0;
  bool event_mode_ = true;
  long long events_processed_ = 0;
  long long rounds_executed_ = 0;
  long long time_advances_ = 0;
  bool metrics_tick_armed_ = false;
  Rng failure_rng_{0xFA11};
  int machine_failures_ = 0;
  int leases_revoked_by_failures_ = 0;

  // Streaming source (null for preloaded workloads).
  std::unique_ptr<TraceReader> reader_;
  AppSpec pending_spec_;
  bool have_pending_ = false;
  Time last_injected_arrival_ = -kInfiniteTime;
  std::size_t live_apps_ = 0;
  std::size_t peak_live_apps_ = 0;
};

}  // namespace themis
