// Tests for core/round.h: the offer/bid/grant round protocol.
//
//   - FreePool: ordered O(1)-removal view semantics.
//   - Staging: RunRound never touches the cluster; ApplyGrants is the single
//     lease-application path and rejects double application.
//   - Simulator plumbing: per-round diagnostics and the round observer.
//   - Grant streams: under every policy, each applied GrantSet names live
//     jobs and leases offered GPUs to them exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/rho_index.h"
#include "core/themis_policy.h"
#include "sim/experiment.h"

namespace themis {
namespace {

TEST(FreePool, IteratesAscendingAndTracksPerMachine) {
  Topology topo(ClusterSpec::Uniform(1, 2, 4, 2));  // 2 machines x 4 GPUs
  FreePool pool({0, 2, 3, 5, 7}, topo);
  EXPECT_EQ(pool.size(), 5);
  EXPECT_EQ(pool.ToVector(), (std::vector<GpuId>{0, 2, 3, 5, 7}));
  EXPECT_EQ(pool.per_machine(), (std::vector<int>{3, 2}));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(kNoGpu));
}

TEST(FreePool, RemoveRelinksNeighborsAndCounts) {
  Topology topo(ClusterSpec::Uniform(1, 2, 4, 2));
  FreePool pool({0, 2, 3, 5, 7}, topo);
  pool.Remove(3);
  EXPECT_EQ(pool.ToVector(), (std::vector<GpuId>{0, 2, 5, 7}));
  pool.Remove(0);  // head
  EXPECT_EQ(pool.First(), 2u);
  pool.Remove(7);  // tail
  EXPECT_EQ(pool.ToVector(), (std::vector<GpuId>{2, 5}));
  EXPECT_EQ(pool.per_machine(), (std::vector<int>{1, 1}));
  EXPECT_THROW(pool.Remove(3), std::logic_error);
  pool.Remove(2);
  pool.Remove(5);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.First(), kNoGpu);
  EXPECT_EQ(pool.FirstN(4), std::vector<GpuId>{});
}

TEST(FreePool, FirstNTakesThePrefix) {
  Topology topo(ClusterSpec::Uniform(1, 1, 8, 2));
  FreePool pool({1, 2, 4, 6}, topo);
  EXPECT_EQ(pool.FirstN(3), (std::vector<GpuId>{1, 2, 4}));
  EXPECT_EQ(pool.FirstN(9), (std::vector<GpuId>{1, 2, 4, 6}));
}

// ---------------------------------------------------------------------------
// Staging semantics.
// ---------------------------------------------------------------------------

JobSpec RoundJobSpec(double work, int num_tasks, int gpus_per_task) {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = num_tasks;
  spec.gpus_per_task = gpus_per_task;
  spec.model = ModelByName("ResNet50");
  spec.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  return spec;
}

std::unique_ptr<AppState> RoundApp(AppId id, std::vector<JobSpec> jobs) {
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.arrival = 0.0;
  app->spec.target_loss = 0.1;
  app->spec.jobs = jobs;
  app->arrived = true;
  JobId next = 0;
  for (const JobSpec& js : jobs) {
    JobState job;
    job.id = next++;
    job.spec = js;
    job.parallelism_cap = js.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
  return app;
}

TEST(RoundProtocol, RunRoundStagesWithoutTouchingTheCluster) {
  Cluster cluster(ClusterSpec::Uniform(2, 2, 4, 2));
  auto app = RoundApp(0, {RoundJobSpec(40.0, 2, 4)});
  AppList list{app.get()};
  WorkEstimator est({});
  Rng rng(1);

  const ResourceOffer offer = MakeOffer(7, 5.0, 20.0, cluster);
  EXPECT_EQ(offer.TotalGpus(), 16);
  EXPECT_EQ(offer.free_per_machine, cluster.FreeGpusPerMachine());

  RhoIndex index;
  index.Update(app.get());
  SchedulerContext ctx(offer, &cluster, &est, &list, &rng, &index);
  ThemisPolicy policy;
  const GrantSet grants = policy.RunRound(offer, ctx);

  // The round carries the offer's identity and lease terms.
  EXPECT_EQ(grants.round_id, 7u);
  EXPECT_DOUBLE_EQ(grants.lease_expiry, 25.0);
  // The job recorded its gang (the AGENT side)...
  EXPECT_EQ(app->GpusHeld(), 8);
  EXPECT_EQ(grants.TotalGpus(), 8);
  // ...but no lease exists until ApplyGrants (the ARBITER side).
  EXPECT_EQ(cluster.num_allocated(), 0);

  EXPECT_EQ(ApplyGrants(grants, cluster), 8);
  EXPECT_EQ(cluster.num_allocated(), 8);
  for (const Grant& g : grants.grants)
    for (GpuId gpu : g.gpus) {
      ASSERT_FALSE(cluster.IsFree(gpu));
      EXPECT_EQ(cluster.lease(gpu)->app, g.app);
      EXPECT_EQ(cluster.lease(gpu)->job, g.job);
      EXPECT_DOUBLE_EQ(cluster.lease(gpu)->expiry, 25.0);
    }

  // Double application would double-grant; the cluster rejects it.
  EXPECT_THROW(ApplyGrants(grants, cluster), std::exception);
}

TEST(RoundProtocol, ContextRejectsGrantsOutsideTheOffer) {
  Cluster cluster(ClusterSpec::Uniform(1, 1, 4, 2));
  cluster.Allocate(0, 9, 0, 100.0);  // GPU 0 is not in the offer
  auto app = RoundApp(0, {RoundJobSpec(40.0, 1, 1)});
  AppList list{app.get()};
  WorkEstimator est({});
  Rng rng(1);
  SchedulerContext ctx(MakeOffer(0, 0.0, 20.0, cluster), &cluster, &est, &list,
                       &rng, /*rho_index=*/nullptr);
  EXPECT_THROW(ctx.Grant(*app, app->jobs[0], {0}), std::logic_error);
  // Granting the same pooled GPU twice is equally impossible.
  ctx.Grant(*app, app->jobs[0], {1});
  EXPECT_THROW(ctx.Grant(*app, app->jobs[0], {1}), std::logic_error);
}

TEST(RoundProtocol, PoolViewsShrinkAsGrantsAreStaged) {
  Cluster cluster(ClusterSpec::Uniform(1, 2, 4, 2));
  auto app = RoundApp(0, {RoundJobSpec(40.0, 2, 2)});
  AppList list{app.get()};
  WorkEstimator est({});
  Rng rng(1);
  SchedulerContext ctx(MakeOffer(0, 0.0, 20.0, cluster), &cluster, &est, &list,
                       &rng, /*rho_index=*/nullptr);
  EXPECT_EQ(ctx.free_pool().size(), 8);
  ctx.Grant(*app, app->jobs[0], {0, 1, 4});
  EXPECT_EQ(ctx.free_pool().size(), 5);
  EXPECT_EQ(ctx.free_per_machine(), (std::vector<int>{2, 3}));
  EXPECT_FALSE(ctx.free_pool().Contains(4));
  // The cluster still shows everything free: nothing was applied.
  EXPECT_EQ(cluster.num_free(), 8);

  const GrantSet grants = ctx.TakeGrants();
  EXPECT_EQ(grants.diagnostics.offered_gpus, 8);
  EXPECT_EQ(grants.diagnostics.granted_gpus, 3);
  EXPECT_EQ(grants.diagnostics.leftover_gpus, 5);
}

TEST(RoundProtocol, SimulatorRecordsAuctionDiagnostics) {
  // The per-round diagnostics feed MetricsCollector::RecordAuction — the
  // per-run home of what used to be stateful ThemisPolicy counters.
  ExperimentConfig config = SimScaleConfig(PolicyKind::kThemis, 42, 10);
  TraceGenerator gen(config.trace);
  Simulator sim(config.cluster, gen.Generate(),
                MakePolicy(config.policy, config.themis), config.sim);
  const SimResult run = sim.Run();
  EXPECT_GT(run.metrics.auctions_run(), 0);
  EXPECT_GE(run.metrics.MeanLeftoverFraction(), 0.0);
  EXPECT_LE(run.metrics.MeanLeftoverFraction(), 1.0);
}

TEST(RoundProtocol, RoundObserverSeesEveryAppliedGrant) {
  ExperimentConfig config = SimScaleConfig(PolicyKind::kDrf, 42, 8);
  TraceGenerator gen(config.trace);
  Simulator sim(config.cluster, gen.Generate(),
                MakePolicy(config.policy, config.themis), config.sim);
  long long observed_rounds = 0;
  long long observed_gpus = 0;
  std::uint64_t last_round = 0;
  sim.set_round_observer(
      [&](const ResourceOffer& offer, const GrantSet& grants) {
        ++observed_rounds;
        observed_gpus += grants.TotalGpus();
        EXPECT_GE(offer.round_id, last_round);
        last_round = offer.round_id;
        EXPECT_EQ(grants.diagnostics.offered_gpus, offer.TotalGpus());
        EXPECT_EQ(grants.diagnostics.offered_gpus,
                  grants.diagnostics.granted_gpus +
                      grants.diagnostics.leftover_gpus);
      });
  const SimResult run = sim.Run();
  EXPECT_GT(observed_rounds, 0);
  EXPECT_LE(observed_rounds, run.scheduling_passes);
  EXPECT_GT(observed_gpus, 0);
}

// The front ends read a round's (app, job) pairs from GrantSet::grants
// alone. Under every policy each grant must name a live job and lease it
// GPUs that were offered and granted nowhere else that round; once applied,
// those GPUs sit on the job's gang, leased to it until the set's expiry.
TEST(RoundProtocol, EveryPolicyGrantsOfferedGpusToLiveJobs) {
  for (PolicyKind kind : {PolicyKind::kThemis, PolicyKind::kGandiva,
                          PolicyKind::kTiresias, PolicyKind::kSlaq,
                          PolicyKind::kDrf}) {
    ExperimentConfig config = SimScaleConfig(kind, 7, 20);
    config.trace.contention_factor = 2.0;
    TraceGenerator gen(config.trace);
    Simulator sim(config.cluster, gen.Generate(),
                  MakePolicy(kind, config.themis), config.sim);
    long long grants_seen = 0;
    sim.set_round_observer(
        [&](const ResourceOffer& offer, const GrantSet& grants) {
          EXPECT_EQ(grants.round_id, offer.round_id);
          EXPECT_EQ(grants.lease_expiry, offer.time + offer.lease_duration);
          const std::set<GpuId> offered(offer.gpus.begin(), offer.gpus.end());
          std::set<GpuId> granted;
          for (const Grant& g : grants.grants) {
            ++grants_seen;
            EXPECT_FALSE(g.gpus.empty());
            ASSERT_LT(g.app, sim.apps().size());
            const AppState& app = *sim.apps()[g.app];
            EXPECT_TRUE(app.arrived && !app.finished) << "app " << g.app;
            ASSERT_LT(g.job, app.jobs.size());
            const JobState& job = app.jobs[g.job];
            for (GpuId gpu : g.gpus) {
              EXPECT_EQ(offered.count(gpu), 1u) << "GPU " << gpu;
              EXPECT_TRUE(granted.insert(gpu).second) << "GPU " << gpu;
              EXPECT_NE(std::find(job.gpus.begin(), job.gpus.end(), gpu),
                        job.gpus.end());
              const std::optional<Lease>& lease = sim.cluster().lease(gpu);
              ASSERT_TRUE(lease.has_value());
              EXPECT_EQ(lease->app, g.app);
              EXPECT_EQ(lease->job, g.job);
              EXPECT_EQ(lease->expiry, grants.lease_expiry);
            }
          }
          EXPECT_EQ(static_cast<int>(granted.size()), grants.TotalGpus());
        });
    sim.Run();
    EXPECT_GT(grants_seen, 0) << ToString(kind);
  }
}

}  // namespace
}  // namespace themis
