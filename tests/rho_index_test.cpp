// Tests for core/rho_index.h and ThemisPolicy's filter over it. Whole runs
// through ThemisPolicy (which reads the maintained index) must be
// bit-identical to runs through the literal probe-everything filter in
// tests/filter_oracle.h — results, fingerprints, diagnostics — on both
// engines and under failures, heterogeneous generations, noisy estimation,
// streamed traces and either tie-break chain. Every round of those runs
// also audits the simulator's index against a from-scratch classification
// of the round's active apps; the index alone must agree with that
// classification after arbitrary event sequences; and the indexed
// participant cut must reproduce the comparator's tie-break chain exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/rho_index.h"
#include "core/themis_policy.h"
#include "filter_oracle.h"
#include "round_driver.h"
#include "sim/experiment.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// The index against a from-scratch classification.
// ---------------------------------------------------------------------------

// From-scratch reference: classify every app and order each class exactly as
// the index contract promises.
void ExpectIndexMatchesBruteForce(const RhoIndex& index,
                                  const std::vector<AppState*>& apps,
                                  bool short_tiebreak) {
  std::vector<const AppState*> want_holders;
  std::vector<const AppState*> want_unbounded;
  for (const AppState* app : apps) {
    if (!app->arrived || app->finished) continue;
    bool holds = false;
    for (const JobState& job : app->jobs)
      if (!job.gpus.empty()) holds = true;
    if (holds)
      want_holders.push_back(app);
    else if (app->UnmetDemand() > 0)
      want_unbounded.push_back(app);
  }
  std::sort(want_holders.begin(), want_holders.end(),
            [](const AppState* a, const AppState* b) { return a->id < b->id; });
  std::sort(want_unbounded.begin(), want_unbounded.end(),
            [short_tiebreak](const AppState* a, const AppState* b) {
              if (short_tiebreak && a->ideal_time != b->ideal_time)
                return a->ideal_time < b->ideal_time;
              return a->id < b->id;
            });

  ASSERT_EQ(index.holders().size(), want_holders.size());
  for (std::size_t i = 0; i < want_holders.size(); ++i)
    EXPECT_EQ(index.holders()[i], want_holders[i]) << "holder " << i;
  ASSERT_EQ(index.num_unbounded(), want_unbounded.size());
  std::size_t i = 0;
  for (const AppState* app : index.unbounded_candidates()) {
    EXPECT_EQ(app, want_unbounded[i]) << "unbounded " << i;
    // Contract: the index pins the class's last_rho to the probe constant.
    EXPECT_EQ(app->last_rho, kUnboundedRho);
    ++i;
  }
}

/// Wraps the scheduler under test and, before each of its rounds, checks
/// the context's index against a brute-force classification of
/// ctx.apps() — the front end must hand every round an index in sync with
/// every mutation since the last one.
class IndexAuditor final : public IRoundScheduler {
 public:
  IndexAuditor(std::unique_ptr<IRoundScheduler> inner, long long* rounds)
      : inner_(std::move(inner)), rounds_(rounds) {}

  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override {
    EXPECT_NE(ctx.rho_index(), nullptr);
    if (ctx.rho_index() != nullptr) {
      ExpectIndexMatchesBruteForce(*ctx.rho_index(), ctx.apps(),
                                   ctx.rho_index()->short_app_tiebreak());
      ++*rounds_;
    }
    return inner_->RunRound(offer, ctx);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<IRoundScheduler> inner_;
  long long* rounds_;
};

// ---------------------------------------------------------------------------
// Bit-identical equivalence: ThemisPolicy vs. the literal-filter oracle,
// whole simulator runs.
// ---------------------------------------------------------------------------

void ExpectSameRun(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.metrics.MaxFairness(), b.metrics.MaxFairness());
  EXPECT_EQ(a.metrics.MedianFairness(), b.metrics.MedianFairness());
  EXPECT_EQ(a.metrics.MinFairness(), b.metrics.MinFairness());
  EXPECT_EQ(a.metrics.JainsFairnessIndex(), b.metrics.JainsFairnessIndex());
  EXPECT_EQ(a.metrics.AverageCompletionTime(),
            b.metrics.AverageCompletionTime());
  EXPECT_EQ(a.metrics.TotalGpuTime(), b.metrics.TotalGpuTime());
  EXPECT_EQ(a.metrics.auctions_run(), b.metrics.auctions_run());
  EXPECT_EQ(a.metrics.MeanLeftoverFraction(), b.metrics.MeanLeftoverFraction());
  EXPECT_EQ(a.peak_contention, b.peak_contention);
  EXPECT_EQ(a.unfinished, b.unfinished);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.gpu_leases_revoked_by_failures,
            b.gpu_leases_revoked_by_failures);
  EXPECT_EQ(a.scheduling_passes, b.scheduling_passes);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.sim_time_advances, b.sim_time_advances);
  EXPECT_EQ(a.total_apps, b.total_apps);
  EXPECT_EQ(a.peak_live_apps, b.peak_live_apps);
  // Per-app records in finish order: same apps finishing in the same order
  // with the same rho, completion time and placement score.
  const std::vector<AppRecord>& ra = a.metrics.apps();
  const std::vector<AppRecord>& rb = b.metrics.apps();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].app, rb[i].app) << "record " << i;
    EXPECT_EQ(ra[i].Rho(), rb[i].Rho()) << "record " << i;
    EXPECT_EQ(ra[i].CompletionTime(), rb[i].CompletionTime()) << "record " << i;
    EXPECT_EQ(ra[i].mean_placement_score, rb[i].mean_placement_score)
        << "record " << i;
    EXPECT_EQ(ra[i].attained_service, rb[i].attained_service)
        << "record " << i;
  }
  const std::vector<AllocationSample>& ta = a.metrics.timeline();
  const std::vector<AllocationSample>& tb = b.metrics.timeline();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].time, tb[i].time);
    EXPECT_EQ(ta[i].app, tb[i].app);
    EXPECT_EQ(ta[i].gpus, tb[i].gpus);
  }
}

// Contended mixed workload (multi-job tuned apps, overlapping lifetimes,
// restarts): everything that can make the two filters diverge.
ExperimentConfig ContendedConfig() {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Uniform(2, 4, 4, 2);
  config.trace.seed = 33;
  config.trace.num_apps = 25;
  config.trace.jobs_per_app_median = 6.0;
  config.trace.jobs_per_app_max = 12;
  config.sim.seed = 33;
  return config;
}

/// Run `config`'s workload once through ThemisPolicy (every round audited)
/// and once through the literal-filter oracle, and require identical runs.
/// `streamed` replays the trace through a TraceReader with retirement on.
/// Returns the ThemisPolicy run.
SimResult ExpectIndexedMatchesOracle(const ExperimentConfig& config,
                                     bool streamed = false) {
  const std::vector<AppSpec> apps = TraceGenerator(config.trace).Generate();
  auto run = [&](std::unique_ptr<IRoundScheduler> scheduler) {
    if (!streamed)
      return Simulator(config.cluster, apps, std::move(scheduler), config.sim)
          .Run();
    SimConfig sim = config.sim;
    sim.arrival_lookahead_minutes = 30.0;
    sim.retire_finished_apps = true;
    return Simulator(config.cluster,
                     std::make_unique<VectorTraceReader>(apps),
                     std::move(scheduler), sim)
        .Run();
  };
  long long audited = 0;
  const SimResult indexed = run(std::make_unique<IndexAuditor>(
      std::make_unique<ThemisPolicy>(config.themis), &audited));
  const SimResult literal =
      run(std::make_unique<oracle::LiteralFilterPolicy>(config.themis));
  ExpectSameRun(indexed, literal);
  EXPECT_TRUE(indexed.unfinished.empty());
  EXPECT_GT(indexed.rounds_executed, 0);
  EXPECT_EQ(audited, indexed.rounds_executed);
  EXPECT_EQ(indexed.total_apps, apps.size());
  return indexed;
}

class FilterEquivalenceTest : public ::testing::TestWithParam<SimEngine> {};

TEST_P(FilterEquivalenceTest, IndexedMatchesOracleBitForBit) {
  ExperimentConfig config = ContendedConfig();
  config.sim.engine = GetParam();
  ExpectIndexedMatchesOracle(config);
}

INSTANTIATE_TEST_SUITE_P(Engines, FilterEquivalenceTest,
                         ::testing::Values(SimEngine::kEventDriven,
                                           SimEngine::kPassStepped));

TEST(FilterEquivalence, HoldsUnderMachineFailures) {
  ExperimentConfig config = ContendedConfig();
  config.sim.machine_mtbf_minutes = 300.0;
  config.sim.machine_repair_minutes = 45.0;
  EXPECT_GT(ExpectIndexedMatchesOracle(config).machine_failures, 0);
}

TEST(FilterEquivalence, HoldsOnHeterogeneousGenerations) {
  ExperimentConfig config = ContendedConfig();
  ApplyGenerationMix(config.cluster,
                     ParseGenerationMix("K80:0.25,V100:0.5,A100:0.25"));
  ExpectIndexedMatchesOracle(config);
}

TEST(FilterEquivalence, HoldsUnderNoisyEstimation) {
  // The noisy estimator draws one RNG sample per RemainingWork call, so the
  // indexed probe must issue the exact estimator-call sequence of the full
  // scan — any skipped or reordered probe desynchronizes every downstream
  // random decision. Gangless apps make zero estimator calls, which is what
  // makes "probe holders ascending id" the exact sequence.
  ExperimentConfig config = ContendedConfig();
  config.sim.estimator.mode = EstimationMode::kNoisy;
  config.sim.estimator.theta = 0.15;
  ExpectIndexedMatchesOracle(config);
}

TEST(FilterEquivalence, HoldsOnStreamedTraces) {
  ExpectIndexedMatchesOracle(ContendedConfig(), /*streamed=*/true);
}

TEST(FilterEquivalence, HoldsWithShortAppTiebreakOff) {
  ExperimentConfig config = ContendedConfig();
  config.themis.short_app_tiebreak = false;
  ExpectIndexedMatchesOracle(config);
}

// ---------------------------------------------------------------------------
// The simulator's index under every policy: whichever scheduler mutates the
// apps, each round's index matches a brute-force classification, and the
// audit leaves the run bit-identical to an unaudited one.
// ---------------------------------------------------------------------------

class IndexAuditTest
    : public ::testing::TestWithParam<std::tuple<PolicyKind, SimEngine>> {};

TEST_P(IndexAuditTest, EveryRoundSeesAnIndexInSyncWithItsApps) {
  const PolicyKind kind = std::get<0>(GetParam());
  ExperimentConfig config = ContendedConfig();
  config.sim.engine = std::get<1>(GetParam());
  const std::vector<AppSpec> apps = TraceGenerator(config.trace).Generate();
  long long audited = 0;
  const SimResult run =
      Simulator(config.cluster, apps,
                std::make_unique<IndexAuditor>(MakePolicy(kind, config.themis),
                                               &audited),
                config.sim)
          .Run();
  const SimResult plain = Simulator(config.cluster, apps,
                                    MakePolicy(kind, config.themis), config.sim)
                              .Run();
  ExpectSameRun(run, plain);
  EXPECT_GT(run.rounds_executed, 0);
  EXPECT_EQ(audited, run.rounds_executed);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesTimesEngines, IndexAuditTest,
    ::testing::Combine(::testing::Values(PolicyKind::kThemis,
                                         PolicyKind::kGandiva,
                                         PolicyKind::kTiresias,
                                         PolicyKind::kSlaq, PolicyKind::kDrf),
                       ::testing::Values(SimEngine::kEventDriven,
                                         SimEngine::kPassStepped)),
    [](const ::testing::TestParamInfo<IndexAuditTest::ParamType>& info) {
      return std::string(ToString(std::get<0>(info.param))) +
             (std::get<1>(info.param) == SimEngine::kEventDriven ? "_event"
                                                                 : "_pass");
    });

// ---------------------------------------------------------------------------
// Dirty-tracking property: after any event sequence, the index agrees with a
// from-scratch classification and ordering.
// ---------------------------------------------------------------------------

JobSpec PropJobSpec(double work, int num_tasks, int gpus_per_task) {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = num_tasks;
  spec.gpus_per_task = gpus_per_task;
  spec.model = ModelByName("ResNet50");
  spec.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  return spec;
}

std::unique_ptr<AppState> PropApp(AppId id, double ideal_time, int jobs) {
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.target_loss = 0.1;
  app->arrived = true;
  app->ideal_time = ideal_time;
  for (JobId j = 0; j < static_cast<JobId>(jobs); ++j) {
    JobState job;
    job.id = j;
    job.spec = PropJobSpec(40.0, 2, 2);
    job.parallelism_cap = job.spec.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  return app;
}

std::vector<AppState*> Raw(const std::vector<std::unique_ptr<AppState>>& apps) {
  std::vector<AppState*> out;
  for (const auto& app : apps) out.push_back(app.get());
  return out;
}

TEST(RhoIndexProperty, AgreesWithBruteForceAfterRandomEventSequence) {
  Rng rng(2024);
  std::vector<std::unique_ptr<AppState>> apps;
  RhoIndex index;
  const int kApps = 40;
  for (AppId id = 0; id < kApps; ++id) {
    // Duplicate ideal times on purpose so the (ideal_time, id) chain is
    // exercised past its first link.
    apps.push_back(PropApp(id, 1.0 + static_cast<double>(id % 7), 3));
    // Half the population arrives later, through the "arrival" event below.
    apps.back()->arrived = (id % 2 == 0);
    index.Update(apps.back().get());
  }
  ExpectIndexMatchesBruteForce(index, Raw(apps), true);

  GpuId next_gpu = 0;
  for (int step = 0; step < 2000; ++step) {
    AppState* app = apps[rng.UniformInt(0, kApps - 1)].get();
    JobState& job = app->jobs[rng.UniformInt(0, 2)];
    switch (rng.UniformInt(0, 6)) {
      case 0:  // grant: the job gains one gang
        job.gpus.push_back(next_gpu++);
        job.gpus.push_back(next_gpu++);
        break;
      case 1:  // lease expiry / failure revocation: the job loses its gang
        job.gpus.clear();
        break;
      case 2:  // tuner kill
        job.alive = false;
        job.gpus.clear();
        break;
      case 3:  // tuner cap change (can zero or restore UnmetDemand)
        job.parallelism_cap = rng.UniformInt(0, job.spec.MaxParallelism());
        break;
      case 4:  // arrival
        app->arrived = true;
        break;
      case 5:  // app finish: all gangs revoked
        app->finished = true;
        for (JobState& j : app->jobs) j.gpus.clear();
        break;
      default:  // no-op event: Update must be idempotent
        break;
    }
    index.Update(app);
    if (step % 100 == 99) ExpectIndexMatchesBruteForce(index, Raw(apps), true);
  }
  ExpectIndexMatchesBruteForce(index, Raw(apps), true);
}

TEST(RhoIndexProperty, SetTiebreakReordersTheUnboundedClass) {
  std::vector<std::unique_ptr<AppState>> apps;
  RhoIndex index;
  // Descending ideal times so (ideal, id) order differs from id order.
  for (AppId id = 0; id < 6; ++id) {
    apps.push_back(PropApp(id, 10.0 - static_cast<double>(id), 1));
    index.Update(apps.back().get());
  }
  ExpectIndexMatchesBruteForce(index, Raw(apps), true);
  index.SetTiebreak(false);
  ExpectIndexMatchesBruteForce(index, Raw(apps), false);
  index.SetTiebreak(true);
  ExpectIndexMatchesBruteForce(index, Raw(apps), true);
}

// ---------------------------------------------------------------------------
// Tie-break-chain exactness through the policy's indexed cut.
// ---------------------------------------------------------------------------

// Two identical worlds, one scheduled by ThemisPolicy, one by the
// literal-filter oracle; same RNG seed, both driven through the round
// driver (which keeps each world's index in sync).
struct World {
  World() : cluster(ClusterSpec::Uniform(2, 2, 4, 2)), est({}), rng(7) {}
  Cluster cluster;
  WorkEstimator est;
  Rng rng;
  RhoIndex index;
  std::vector<std::unique_ptr<AppState>> apps;

  void AddApp(AppId id, double ideal_time) {
    apps.push_back(PropApp(id, ideal_time, 1));
    apps.back()->ideal_time = ideal_time;
  }

  GrantSet RunOneRound(IRoundScheduler& scheduler) {
    AppList list = Raw(apps);
    return harness::DriveRound(scheduler, cluster, est, list, rng, index,
                               list);
  }
};

void ExpectSameGrants(const GrantSet& a, const GrantSet& b) {
  ASSERT_EQ(a.grants.size(), b.grants.size());
  for (std::size_t i = 0; i < a.grants.size(); ++i) {
    EXPECT_EQ(a.grants[i].app, b.grants[i].app);
    EXPECT_EQ(a.grants[i].job, b.grants[i].job);
    EXPECT_EQ(a.grants[i].gpus, b.grants[i].gpus);
  }
  EXPECT_EQ(a.lease_expiry, b.lease_expiry);
  EXPECT_EQ(a.diagnostics.auction_ran, b.diagnostics.auction_ran);
  EXPECT_EQ(a.diagnostics.auction_participants,
            b.diagnostics.auction_participants);
  EXPECT_EQ(a.diagnostics.offered_gpus, b.diagnostics.offered_gpus);
  EXPECT_EQ(a.diagnostics.granted_gpus, b.diagnostics.granted_gpus);
  EXPECT_EQ(a.diagnostics.leftover_gpus, b.diagnostics.leftover_gpus);
}

// All-unbounded population with colliding and distinct ideal times: the cut
// must follow (ideal_time asc, id asc) exactly when short_app_tiebreak is
// set, and (id asc) when it is not — in both filters.
TEST(TiebreakExactness, IndexedCutMatchesLiteralCutOnPureTies) {
  for (const bool short_tiebreak : {true, false}) {
    World indexed, literal;
    for (AppId id = 0; id < 8; ++id) {
      const double ideal = (id < 4) ? 5.0 : 9.0 - static_cast<double>(id);
      indexed.AddApp(id, ideal);
      literal.AddApp(id, ideal);
    }
    ThemisConfig cfg;
    cfg.fairness_knob = 0.9;  // ceil(0.1 * 8) = 1 participant: the head app
    cfg.short_app_tiebreak = short_tiebreak;
    ThemisPolicy policy(cfg);
    oracle::LiteralFilterPolicy reference(cfg);
    const GrantSet a = indexed.RunOneRound(policy);
    const GrantSet b = literal.RunOneRound(reference);
    ExpectSameGrants(a, b);
    EXPECT_EQ(a.diagnostics.auction_participants, 1);
    // The auction's grant (staged before any leftovers) goes to the
    // comparator's head app: with the short-app tie-break, the smallest
    // ideal_time (app 7, ideal 2.0); without it, the smallest id.
    ASSERT_FALSE(a.grants.empty());
    EXPECT_EQ(a.grants[0].app, short_tiebreak ? 7 : 0);
  }
}

// Mixed population: holders with bounded rho interleaved with gangless apps.
// The indexed merge must land the bounded apps at the same comparator
// positions the full sort gives them.
TEST(TiebreakExactness, MergePlacesBoundedHoldersExactly) {
  for (const double knob : {0.0, 0.5, 0.9}) {
    World indexed, literal;
    for (AppId id = 0; id < 6; ++id) {
      indexed.AddApp(id, 4.0 + static_cast<double>(id));
      literal.AddApp(id, 4.0 + static_cast<double>(id));
    }
    // Apps 1 and 4 hold one whole gang each (bounded rho, still hungry).
    for (World* w : {&indexed, &literal}) {
      w->cluster.Allocate(/*gpu=*/0, 1, 0, 20.0);
      w->cluster.Allocate(/*gpu=*/1, 1, 0, 20.0);
      w->apps[1]->jobs[0].gpus = {0, 1};
      w->cluster.Allocate(/*gpu=*/8, 4, 0, 20.0);
      w->cluster.Allocate(/*gpu=*/9, 4, 0, 20.0);
      w->apps[4]->jobs[0].gpus = {8, 9};
    }
    ThemisConfig cfg;
    cfg.fairness_knob = knob;
    ThemisPolicy policy(cfg);
    oracle::LiteralFilterPolicy reference(cfg);
    const GrantSet a = indexed.RunOneRound(policy);
    const GrantSet b = literal.RunOneRound(reference);
    ExpectSameGrants(a, b);
  }
}

// An app that loses its whole gang re-enters the unbounded class with
// last_rho pinned back to the constant — the stale bounded value from its
// holder rounds must not leak into the merge comparator.
TEST(TiebreakExactness, ReleasedHolderRejoinsUnboundedClassFresh) {
  std::vector<std::unique_ptr<AppState>> apps;
  apps.push_back(PropApp(0, 5.0, 1));
  RhoIndex index;
  AppState* app = apps[0].get();
  app->jobs[0].gpus = {0, 1};
  index.Update(app);
  ASSERT_EQ(index.holders().size(), 1u);
  app->last_rho = 3.25;  // what a holder probe might have cached

  app->jobs[0].gpus.clear();  // lease expiry
  index.Update(app);
  EXPECT_TRUE(index.holders().empty());
  ASSERT_EQ(index.num_unbounded(), 1u);
  EXPECT_EQ(app->last_rho, kUnboundedRho);
}

}  // namespace
}  // namespace themis
