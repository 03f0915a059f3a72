// The replay workload, replay-256-contended: a trace replayed through
// Simulator::Run with ThemisPolicy (defaults) as the round scheduler, on
// Simulation256 at contention factor 4 with 6000 preloaded apps and exact
// metrics: many small rounds over a small pool, where the fairness metrics
// discriminate.
//
// An untraced run replays distinct sub-traces (seeds derived from --seed)
// until --seconds is used up (ReportEndToEnd says which sub-traces each
// metric covers); the quality metrics are computed over the first
// kQualityPasses, which every run replays, so they are deterministic at a
// fixed seed. A traced run replays sub-trace 0 once untraced, then traced
// as often as time allows, and checks that every traced replay grants
// exactly what the untraced one did.
#include "core/themis_policy.h"
#include "net/wire.h"
#include "perfbench.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace perfbench {

using namespace themis;

namespace {

/// Apps per sub-trace.
constexpr int kApps = 6000;
/// Sub-traces every untraced run replays; the quality metrics cover exactly
/// these.
constexpr int kQualityPasses = 4;

/// Everything one replay observed.
struct Pass {
  SubRun run;  // busy_s is the wall time of Simulator::Run
  long long apps = 0;
  long long unfinished = 0;
  long long finished = 0;
  LayerTrace trace;
};

/// Round scheduler wrapper: times ThemisPolicy::RunRound and, through the
/// simulator's round observer, the ApplyGrants that follows it. When
/// tracing it first replays the round's placement and auction steps.
class TimedScheduler final : public IRoundScheduler {
 public:
  TimedScheduler(Pass* pass, bool traced) : pass_(pass), traced_(traced) {}

  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override {
    pass_->run.app_rounds += static_cast<long long>(ctx.apps().size());
    if (traced_) {
      const std::vector<const AppState*> apps(ctx.apps().begin(),
                                              ctx.apps().end());
      probe_.Probe(offer, ctx.topology(), apps, pass_->trace);
    }
    start_ = Clock::now();
    GrantSet grants = policy_.RunRound(offer, ctx);
    returned_ = Clock::now();
    if (traced_)
      pass_->trace.AddRound(
          std::chrono::duration<double>(returned_ - start_).count(),
          grants.diagnostics);
    return grants;
  }

  /// Called by the round observer once the grants are applied.
  void Applied(const GrantSet& grants, const Cluster& cluster) {
    const auto applied = Clock::now();
    if (grants.diagnostics.auction_ran)
      pass_->run.round_ms.push_back(
          std::chrono::duration<double, std::milli>(applied - start_).count());
    for (const Grant& g : grants.grants)
      pass_->run.outcome.digest.Add(grants.round_id, grants.lease_expiry, g);
    if (traced_) {
      LayerTrace& t = pass_->trace;
      t.apply_s += std::chrono::duration<double>(applied - returned_).count();
      t.leased_gpus_sum += cluster.num_allocated();
      ++t.leased_samples;
    }
  }

  const char* name() const override { return "timed Themis"; }

 private:
  Pass* pass_;
  bool traced_;
  ThemisPolicy policy_;
  RoundProbe probe_;
  Clock::time_point start_;
  Clock::time_point returned_;
};

Pass Replay(std::uint64_t seed, bool traced) {
  Pass p;
  auto scheduler = std::make_unique<TimedScheduler>(&p, traced);
  TimedScheduler* timer = scheduler.get();

  const auto setup_start = Clock::now();
  ExperimentConfig ec = SimScaleConfig(PolicyKind::kThemis, seed, kApps);
  ec.trace.contention_factor = 4.0;
  std::vector<AppSpec> apps;
  if (traced) {
    TimedReader reader(std::make_unique<GeneratorTraceReader>(ec.trace),
                       &p.trace);
    AppSpec app;
    while (reader.Next(app)) apps.push_back(std::move(app));
  } else {
    apps = TraceGenerator(ec.trace).Generate();
  }
  for (const AppSpec& app : apps)
    p.run.jobs += static_cast<long long>(app.jobs.size());
  p.apps = static_cast<long long>(apps.size());
  Simulator s(ClusterSpec::Simulation256(), std::move(apps),
              std::move(scheduler), ec.sim);
  s.set_round_observer([timer, &s](const ResourceOffer&, const GrantSet& g) {
    timer->Applied(g, s.cluster());
  });
  p.run.setup_s = SecondsSince(setup_start);

  const auto run_start = Clock::now();
  const SimResult r = s.Run();
  const double run_s = SecondsSince(run_start);

  p.unfinished = static_cast<long long>(r.unfinished.size());
  p.finished = static_cast<long long>(r.metrics.finished_apps());
  p.run.outcome.Summarize(r.metrics);
  // Probe time is excluded from traced throughput like from every span.
  p.run.busy_s = run_s - p.trace.probe_s;
  if (traced) {
    p.trace.sim_run_s = run_s;
    p.trace.sim_events = r.events_processed;
    p.trace.sim_passes = r.scheduling_passes;
    p.trace.sim_rounds = r.rounds_executed;
    p.trace.sim_peak_live_apps = static_cast<long long>(r.peak_live_apps);
  }
  return p;
}

/// Checks every replay must pass, traced or not.
void CheckPass(const Pass& p, int index, RunReport& report) {
  const std::string tag = "sub-trace " + std::to_string(index) + ": ";
  report.Check(p.apps > 0 && p.run.jobs > 0, tag + "empty trace");
  report.Check(p.unfinished == 0,
               tag + std::to_string(p.unfinished) + " apps unfinished");
  report.Check(p.finished == p.apps, tag + "finished " +
                                         std::to_string(p.finished) + " of " +
                                         std::to_string(p.apps) + " apps");
  report.Check(p.run.outcome.digest.grants > 0, tag + "no grants");
  report.attempted += p.apps;
  report.failed += p.unfinished;
}

}  // namespace

RunReport RunReplay(const RunArgs& args) {
  RunReport report;
  const auto start = Clock::now();

  if (!args.trace) {
    std::vector<Pass> passes;
    while (MorePasses(static_cast<int>(passes.size()), kQualityPasses,
                      SecondsSince(start), args.seconds)) {
      const int i = static_cast<int>(passes.size());
      passes.push_back(Replay(SubSeed(args.seed, i), false));
      CheckPass(passes.back(), i, report);
    }
    std::vector<SubRun> runs;
    for (const Pass& p : passes) runs.push_back(p.run);
    ReportEndToEnd(runs, kQualityPasses, report);
    return report;
  }

  const std::uint64_t seed = SubSeed(args.seed, 0);
  const Pass base = Replay(seed, false);
  CheckPass(base, 0, report);
  std::vector<std::vector<Metric>> layers;
  while (MorePasses(static_cast<int>(layers.size()), 1, SecondsSince(start),
                    args.seconds)) {
    Pass p = Replay(seed, true);
    CheckPass(p, 0, report);
    report.Check(p.run.outcome == base.run.outcome,
                 "traced replay " + std::to_string(layers.size()) +
                     " differs from the untraced replay (grant digest or "
                     "quality metrics)");
    p.trace.trace_overhead_frac =
        1.0 - p.run.JobsPerSec() / base.run.JobsPerSec();
    layers.push_back(p.trace.Metrics());
  }
  report.metrics = MedianMetrics(layers);
  report.notes.push_back(std::to_string(layers.size()) +
                         " traced replays of sub-trace 0");
  return report;
}

}  // namespace perfbench
