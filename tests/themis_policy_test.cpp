// Tests for core/themis_policy.h: the ARBITER's offer filtering (fairness
// knob), auction-driven grants, and work-conserving leftover allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/themis_policy.h"
#include "placement_oracle.h"
#include "round_driver.h"

namespace themis {
namespace {

JobSpec MakeJobSpec(double work, int num_tasks, int gpus_per_task,
                    const char* model = "ResNet50") {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = num_tasks;
  spec.gpus_per_task = gpus_per_task;
  spec.model = ModelByName(model);
  spec.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  return spec;
}

std::unique_ptr<AppState> MakeApp(AppId id, Time arrival,
                                  std::vector<JobSpec> jobs) {
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.arrival = arrival;
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

/// The leftover stage as a full rescan, the way it was first written: the
/// pool snapshot, the candidate list and the anchored set are rebuilt from
/// scratch on every iteration, and picks come from the placement oracle.
/// AllocateLeftovers must stage exactly these grants.
void RescanLeftovers(SchedulerContext& ctx, const Agent& agent,
                     const std::vector<AppState*>& participants) {
  auto is_participant = [&](const AppState* app) {
    return std::find(participants.begin(), participants.end(), app) !=
           participants.end();
  };
  const Topology& topo = ctx.topology();
  for (const bool outsiders_only : {true, false}) {
    bool progress = true;
    while (progress) {
      progress = false;
      const std::vector<GpuId> free = ctx.free_pool().ToVector();
      if (free.empty()) return;
      std::vector<AppState*> candidates;
      for (AppState* app : ctx.apps()) {
        if (outsiders_only && is_participant(app)) continue;
        if (app->UnmetDemand() <= 0) continue;
        for (int j : app->ActiveJobs()) {
          const JobState& job = app->jobs[j];
          if (job.UnmetGangs() > 0 &&
              job.spec.gpus_per_task <= static_cast<int>(free.size())) {
            candidates.push_back(app);
            break;
          }
        }
      }
      if (candidates.empty()) break;
      std::vector<AppState*> anchored;
      for (AppState* app : candidates) {
        bool on_free_machine = false;
        for (const JobState& job : app->jobs)
          for (GpuId held : job.gpus)
            for (GpuId g : free)
              if (topo.gpu(g).machine == topo.gpu(held).machine)
                on_free_machine = true;
        if (on_free_machine) anchored.push_back(app);
      }
      auto& pick_from = anchored.empty() ? candidates : anchored;
      AppState* app = pick_from[ctx.rng().UniformInt(
          0, static_cast<int>(pick_from.size()) - 1)];
      for (int j : agent.JobPriorityOrder(*app)) {
        JobState& job = app->jobs[j];
        if (job.UnmetGangs() <= 0) continue;
        const int gang = job.spec.gpus_per_task;
        std::vector<GpuId> picked =
            oracle::PickBestPlacedNear(gang, free, job.gpus, topo);
        if (static_cast<int>(picked.size()) < gang) continue;
        std::vector<GpuId> combined = job.gpus;
        combined.insert(combined.end(), picked.begin(), picked.end());
        combined.resize(combined.size() - combined.size() % gang);
        if (combined.empty() ||
            EffectiveJobRate(job.spec, combined, topo) <= 0.0)
          continue;
        ctx.Grant(*app, job, picked);
        progress = true;
        break;
      }
    }
  }
}

class ThemisPolicyTest : public ::testing::Test {
 protected:
  ThemisPolicyTest()
      : cluster_(ClusterSpec::Uniform(2, 2, 4, 2)), est_({}), rng_(1) {}

  GrantSet RunOneRound(ThemisPolicy& policy, Time now = 0.0) {
    AppList list;
    for (auto& app : apps_) list.push_back(app.get());
    return harness::DriveRound(policy, cluster_, est_, list, rng_, index_,
                               list, now);
  }

  Cluster cluster_;
  WorkEstimator est_;
  Rng rng_;
  RhoIndex index_;
  std::vector<std::unique_ptr<AppState>> apps_;
};

TEST_F(ThemisPolicyTest, SingleAppGetsItsFullDemand) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  ThemisPolicy policy;
  RunOneRound(policy);
  EXPECT_EQ(apps_[0]->GpusHeld(), 8);
  EXPECT_EQ(cluster_.num_allocated(), 8);
}

TEST_F(ThemisPolicyTest, GrantsAreLeasedToTheRightJob) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4)}));
  ThemisPolicy policy;
  RunOneRound(policy);
  const auto held = cluster_.GpusHeldBy(0, 0);
  EXPECT_EQ(held.size(), 4u);
  for (GpuId g : held) EXPECT_EQ(cluster_.lease(g)->expiry, 20.0);
  EXPECT_EQ(apps_[0]->jobs[0].gpus.size(), 4u);
}

TEST_F(ThemisPolicyTest, WorstRhoAppWinsUnderContention) {
  // App 0 already holds a gang (bounded rho); app 1 holds nothing
  // (unbounded rho). With f = 0.8 and two hungry apps only app 1 is offered
  // the pool, and must win the remaining GPUs it can use.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)}));
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 2, 2)}));
  cluster_.Allocate(0, 0, 0, 20.0);
  cluster_.Allocate(1, 0, 0, 20.0);
  apps_[0]->jobs[0].gpus = {0, 1};

  ThemisConfig cfg;
  cfg.fairness_knob = 0.8;
  ThemisPolicy policy(cfg);
  RunOneRound(policy);
  EXPECT_EQ(apps_[1]->GpusHeld(), 4);  // full demand of the starved app
}

TEST_F(ThemisPolicyTest, WorkConservationFillsLeftoverDemand) {
  // Three 4-GPU-hungry apps on 16 GPUs: everything that fits a gang must be
  // allocated after the pass, regardless of f.
  for (AppId i = 0; i < 3; ++i)
    apps_.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  ThemisConfig cfg;
  cfg.fairness_knob = 0.9;
  ThemisPolicy policy(cfg);
  RunOneRound(policy);
  int held = 0;
  for (auto& app : apps_) held += app->GpusHeld();
  EXPECT_EQ(held, 16);
  EXPECT_EQ(cluster_.num_free(), 0);
}

TEST_F(ThemisPolicyTest, LeftoverGoesToNonParticipantsFirst) {
  // f = 0.5 over two hungry apps -> only the worse one participates. The
  // other (non-participant) should still receive leftovers rather than the
  // pool going unused once the winner's demand is met.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4)}));  // demand 4
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 1, 4)}));  // demand 4
  ThemisConfig cfg;
  cfg.fairness_knob = 0.5;
  ThemisPolicy policy(cfg);
  RunOneRound(policy);
  EXPECT_EQ(apps_[0]->GpusHeld() + apps_[1]->GpusHeld(), 8);
  EXPECT_GT(apps_[0]->GpusHeld(), 0);
  EXPECT_GT(apps_[1]->GpusHeld(), 0);
}

TEST_F(ThemisPolicyTest, FairnessKnobControlsParticipantCount) {
  // 4 hungry apps; f = 0.75 -> ceil(0.25 * 4) = 1 participant; the probe
  // still updates everyone's cached rho.
  for (AppId i = 0; i < 4; ++i)
    apps_.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  ThemisConfig cfg;
  cfg.fairness_knob = 0.75;
  ThemisPolicy policy(cfg);
  RunOneRound(policy);
  for (auto& app : apps_) EXPECT_GT(app->last_rho, 0.0);
  // All demand fits (4 apps x 2 GPUs = 8 <= 16): work conservation feeds
  // non-participants too.
  for (auto& app : apps_) EXPECT_EQ(app->GpusHeld(), 2);
}

TEST_F(ThemisPolicyTest, NoDemandNoGrants) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  apps_[0]->jobs[0].gpus = {0, 1};
  cluster_.Allocate(0, 0, 0, 20.0);
  cluster_.Allocate(1, 0, 0, 20.0);
  ThemisPolicy policy;
  RunOneRound(policy);
  EXPECT_EQ(apps_[0]->GpusHeld(), 2);
  EXPECT_EQ(cluster_.num_allocated(), 2);
}

TEST_F(ThemisPolicyTest, PlacementSensitiveAppGetsColocatedGang) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4, "VGG16")}));
  ThemisPolicy policy;
  RunOneRound(policy);
  const auto& gpus = apps_[0]->jobs[0].gpus;
  ASSERT_EQ(gpus.size(), 4u);
  EXPECT_LE(static_cast<int>(cluster_.topology().SpanLevel(gpus)),
            static_cast<int>(LocalityLevel::kMachine));
}

TEST_F(ThemisPolicyTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [&]() {
    Cluster cluster(ClusterSpec::Uniform(2, 2, 4, 2));
    std::vector<std::unique_ptr<AppState>> apps;
    for (AppId i = 0; i < 3; ++i)
      apps.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0, 2, 2)}));
    WorkEstimator est({});
    Rng rng(7);
    AppList list;
    for (auto& a : apps) list.push_back(a.get());
    RhoIndex index;
    ThemisPolicy policy;
    harness::DriveRound(policy, cluster, est, list, rng, index, list);
    std::vector<std::vector<GpuId>> out;
    for (auto& a : apps) out.push_back(cluster.GpusHeldBy(a->id));
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(ThemisPolicyTest, ContextWithoutAnIndexIsRejected) {
  // The filter has one path, the maintained RhoIndex; a context built
  // without one is a caller bug, not a request for a full scan.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  AppList list{apps_[0].get()};
  const ResourceOffer offer = MakeOffer(0, 0.0, 20.0, cluster_);
  SchedulerContext ctx(offer, &cluster_, &est_, &list, &rng_,
                       /*rho_index=*/nullptr);
  ThemisPolicy policy;
  EXPECT_THROW(policy.RunRound(offer, ctx), std::invalid_argument);
  EXPECT_EQ(apps_[0]->GpusHeld(), 0);
}

TEST_F(ThemisPolicyTest, RoundDiagnosticsReportTheAuction) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  ThemisPolicy policy;
  const GrantSet grants = RunOneRound(policy);
  EXPECT_TRUE(grants.diagnostics.auction_ran);
  EXPECT_EQ(grants.diagnostics.auction_participants, 1);
  EXPECT_EQ(grants.diagnostics.offered_gpus, 16);
  EXPECT_EQ(grants.diagnostics.granted_gpus, 2);
  EXPECT_EQ(grants.diagnostics.leftover_gpus, 14);
  EXPECT_EQ(grants.TotalGpus(), 2);
}

TEST_F(ThemisPolicyTest, DiagnosticsResetEveryRound) {
  // The old stateful counters accumulated across simulator runs when a
  // policy instance was reused; per-round GrantSet diagnostics must not.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  ThemisPolicy policy;
  const GrantSet first = RunOneRound(policy);
  EXPECT_EQ(first.diagnostics.granted_gpus, 2);
  // Demand met: the next round offers the remaining 14 GPUs, grants none.
  const GrantSet second = RunOneRound(policy);
  EXPECT_EQ(second.diagnostics.offered_gpus, 14);
  EXPECT_EQ(second.diagnostics.granted_gpus, 0);
  EXPECT_FALSE(second.diagnostics.auction_ran);
  EXPECT_EQ(second.diagnostics.pa_nodes, 0);
  EXPECT_EQ(second.diagnostics.pa_log_welfare, 0.0);
  EXPECT_TRUE(second.grants.empty());
}

/// One round over four apps on 16 GPUs. Every app participates (f = 0)
/// and bids several rows, so the branch-and-bound needs more than one node
/// to prove its optimum.
RoundDiagnostics ContestedAuction(const PaConfig& pa) {
  Cluster cluster(ClusterSpec::Uniform(2, 2, 4, 2));
  std::vector<std::unique_ptr<AppState>> apps;
  for (AppId i = 0; i < 4; ++i)
    apps.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0 + 10.0 * i, 4, 2)}));
  WorkEstimator est({});
  Rng rng(7);
  AppList list;
  for (auto& a : apps) list.push_back(a.get());
  RhoIndex index;
  ThemisConfig cfg;
  cfg.fairness_knob = 0.0;
  cfg.pa = pa;
  ThemisPolicy policy(cfg);
  const GrantSet grants =
      harness::DriveRound(policy, cluster, est, list, rng, index, list);
  EXPECT_TRUE(grants.diagnostics.auction_ran);
  EXPECT_EQ(grants.diagnostics.auction_participants, 4);
  return grants.diagnostics;
}

TEST_F(ThemisPolicyTest, PaExactDiagnosticFollowsTheNodeBudget) {
  auto pa_exact = [](std::int64_t max_nodes) {
    PaConfig pa;
    pa.max_nodes = max_nodes;
    return ContestedAuction(pa).pa_exact;
  };
  EXPECT_FALSE(pa_exact(1));
  EXPECT_TRUE(pa_exact(PaConfig{}.max_nodes));
}

TEST_F(ThemisPolicyTest, PaNodesAndWelfareReachTheRound) {
  PaConfig one_node;
  one_node.max_nodes = 1;
  // A one-node budget spends exactly one node per solve: stage 1 alone
  // without hidden payments, plus one sub-market per winner of a nonzero
  // row with them.
  PaConfig stage1_only = one_node;
  stage1_only.hidden_payments = false;
  EXPECT_EQ(ContestedAuction(stage1_only).pa_nodes, 1);
  const RoundDiagnostics fallback = ContestedAuction(one_node);
  EXPECT_GE(fallback.pa_nodes, 2);
  EXPECT_LE(fallback.pa_nodes, 1 + 4);

  // The exact search needs more nodes than that, and its optimum is at
  // least as good as the greedy incumbent the one-node budget returns.
  const RoundDiagnostics exact = ContestedAuction(PaConfig{});
  EXPECT_GT(exact.pa_nodes, 1 + 4);
  EXPECT_TRUE(std::isfinite(exact.pa_log_welfare));
  EXPECT_NE(exact.pa_log_welfare, 0.0);
  EXPECT_GE(exact.pa_log_welfare, fallback.pa_log_welfare);
}

TEST(AllocateLeftovers, CandidateDroppingOutMidPhaseMatchesFullRescan) {
  // 16 GPUs, 4 free: 8, 9 on machine 2 and 14, 15 on machine 3. Every app
  // is anchored there. App 1 wants one 4-GPU gang (its 1-GPU job is
  // satisfied), so it is a candidate only until the first grant to anyone
  // else shrinks the pool to 3 or fewer; apps 0 and 2 want 1- and 2-GPU
  // gangs and keep drawing after it drops out. The filtered candidate list
  // must draw exactly the apps (and stage exactly the grants) a full
  // rescan does, for every seed.
  auto run = [](std::uint64_t seed, bool rescan) {
    Cluster cluster(ClusterSpec::Uniform(2, 2, 4, 2));
    for (GpuId g = 0; g < 8; ++g) cluster.Allocate(g, 99, 0, 20.0);
    std::vector<std::unique_ptr<AppState>> apps;
    apps.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 4, 1)}));
    apps.push_back(
        MakeApp(1, 0.0, {MakeJobSpec(40.0, 1, 4), MakeJobSpec(40.0, 1, 1)}));
    apps.push_back(MakeApp(2, 0.0, {MakeJobSpec(40.0, 2, 2)}));
    auto hold = [&](AppState& app, int job, std::vector<GpuId> gpus) {
      for (GpuId g : gpus) cluster.Allocate(g, app.id, job, 20.0);
      app.jobs[job].gpus = std::move(gpus);
    };
    hold(*apps[0], 0, {10});
    hold(*apps[1], 1, {11});
    hold(*apps[2], 0, {12, 13});
    WorkEstimator est({});
    Rng rng(seed);
    AppList list;
    for (auto& a : apps) list.push_back(a.get());
    SchedulerContext ctx(MakeOffer(0, 0.0, 20.0, cluster), &cluster, &est,
                         &list, &rng, /*rho_index=*/nullptr);
    const Agent agent(&ctx.topology(), &ctx.estimator(), ctx.now());
    if (rescan)
      RescanLeftovers(ctx, agent, {});
    else
      AllocateLeftovers(ctx, agent, {});
    std::vector<std::pair<AppId, std::vector<GpuId>>> staged;
    for (const Grant& g : ctx.TakeGrants().grants)
      staged.emplace_back(g.app, g.gpus);
    return staged;
  };
  int dropped_out = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto filtered = run(seed, false);
    EXPECT_EQ(filtered, run(seed, true)) << "seed " << seed;
    if (std::none_of(filtered.begin(), filtered.end(),
                     [](const auto& grant) { return grant.first == 1; }))
      ++dropped_out;
  }
  // Most seeds draw app 0 or 2 first, which is the mid-phase drop-out.
  EXPECT_GE(dropped_out, 5);
}

}  // namespace
}  // namespace themis
