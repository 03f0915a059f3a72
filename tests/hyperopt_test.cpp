// Tests for hyperopt/: HyperBand successive halving, HyperDrive
// classification, the tuner factory, and the one-gang cap floor every tuner
// keeps for the jobs it spares.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hyperopt/hyperband.h"
#include "hyperopt/hyperdrive.h"

namespace themis {
namespace {

/// Build an app with n jobs whose convergence speed worsens with index:
/// all jobs share the decay exponent but job j needs 200*(j+1) iterations to
/// the target, so at any common rung budget job 0 shows the lowest loss and
/// job n-1 the highest.
AppSpec MakeApp(int n_jobs, double target = 0.1) {
  AppSpec app;
  app.target_loss = target;
  app.tuner = TunerKind::kHyperBand;
  for (int j = 0; j < n_jobs; ++j) {
    JobSpec job;
    job.num_tasks = 1;
    job.gpus_per_task = 4;
    const double decay = 0.7;
    job.total_iterations = 200.0 * (j + 1);
    job.total_work = 100.0 + 10.0 * j;
    job.loss =
        LossCurve(target * std::pow(job.total_iterations + 1.0, decay), decay, 0.0);
    app.jobs.push_back(job);
  }
  return app;
}

std::vector<JobView> ViewsAt(const AppSpec& app, double iterations) {
  std::vector<JobView> views;
  for (const JobSpec& j : app.jobs) views.push_back({&j, iterations, true, false});
  return views;
}

TEST(HyperBand, NoKillsBeforeFirstRung) {
  const AppSpec app = MakeApp(8);
  HyperBand hb;
  hb.Init(app);
  const auto views = ViewsAt(app, 0.0);
  const TunerDecision d = hb.Step(views, 0.0);
  EXPECT_TRUE(d.kill.empty());
  for (std::size_t i = 0; i < views.size(); ++i)
    EXPECT_EQ(d.parallelism_cap[i], 4);
}

TEST(HyperBand, KillsBottomHalfAtRung) {
  const AppSpec app = MakeApp(8);
  HyperBand hb;
  hb.Init(app);
  // Everyone past rung 0's budget: half must die.
  const double budget = hb.RungBudget(0);
  const TunerDecision d = hb.Step(ViewsAt(app, budget), 10.0);
  EXPECT_EQ(d.kill.size(), 4u);
  // The slowest-converging (highest loss) jobs are the ones killed.
  for (int idx : d.kill) EXPECT_GE(idx, 4);
  for (int idx : d.kill) EXPECT_EQ(d.parallelism_cap[idx], 0);
}

TEST(HyperBand, SuccessiveRungsHalveDownToOne) {
  const AppSpec app = MakeApp(8);
  HyperBand hb;
  hb.Init(app);
  std::vector<bool> alive(8, true);
  int alive_count = 8;
  double iters = 0.0;
  for (int round = 0; round < 10 && alive_count > 1; ++round) {
    iters = hb.RungBudget(hb.current_rung());
    std::vector<JobView> views;
    for (std::size_t j = 0; j < app.jobs.size(); ++j)
      views.push_back({&app.jobs[j], iters, alive[j], false});
    const TunerDecision d = hb.Step(views, iters);
    for (int idx : d.kill) {
      EXPECT_TRUE(alive[idx]);
      alive[idx] = false;
      --alive_count;
    }
  }
  EXPECT_EQ(alive_count, 1);
  EXPECT_TRUE(alive[0]);  // fastest-converging job survives
}

TEST(HyperBand, OddCountsKeepMajority) {
  const AppSpec app = MakeApp(5);
  HyperBand hb;
  hb.Init(app);
  const TunerDecision d = hb.Step(ViewsAt(app, hb.RungBudget(0)), 0.0);
  EXPECT_EQ(d.kill.size(), 2u);  // keep ceil(5/2) = 3
}

TEST(HyperBand, SingleJobNeverKilled) {
  const AppSpec app = MakeApp(1);
  HyperBand hb;
  hb.Init(app);
  const TunerDecision d = hb.Step(ViewsAt(app, 1e9), 0.0);
  EXPECT_TRUE(d.kill.empty());
  EXPECT_EQ(d.parallelism_cap[0], 4);
}

TEST(HyperBand, LaggardsDelayTheRung) {
  const AppSpec app = MakeApp(4);
  HyperBand hb;
  hb.Init(app);
  auto views = ViewsAt(app, hb.RungBudget(0));
  views[2].done_iterations = 0.0;  // one job lags behind the budget
  const TunerDecision d = hb.Step(views, 0.0);
  EXPECT_TRUE(d.kill.empty());
}

TEST(HyperBand, DeadJobsGetZeroCap) {
  const AppSpec app = MakeApp(4);
  HyperBand hb;
  hb.Init(app);
  auto views = ViewsAt(app, 0.0);
  views[1].alive = false;
  const TunerDecision d = hb.Step(views, 0.0);
  EXPECT_EQ(d.parallelism_cap[1], 0);
  EXPECT_EQ(d.parallelism_cap[0], 4);
}

TEST(HyperBand, ConfiguredBaseIterationsRespected) {
  HyperBandConfig cfg;
  cfg.base_iterations = 50.0;
  cfg.eta = 3.0;
  HyperBand hb(cfg);
  hb.Init(MakeApp(4));
  EXPECT_DOUBLE_EQ(hb.RungBudget(0), 50.0);
  EXPECT_DOUBLE_EQ(hb.RungBudget(2), 450.0);
}

TEST(HyperDrive, WarmupGrantsFullParallelism) {
  const AppSpec app = MakeApp(4);
  HyperDrive hd;
  hd.Init(app);
  const TunerDecision d = hd.Step(ViewsAt(app, 5.0), 0.0);  // < warmup 20
  EXPECT_TRUE(d.kill.empty());
  for (int cap : d.parallelism_cap) EXPECT_EQ(cap, 4);
}

TEST(HyperDrive, PoorJobsKilledGoodKeepFullParallelism) {
  // Two jobs: one fast (decay 1.0), one dramatically slower (decay 0.25 ->
  // projected iterations far beyond poor_ratio x best).
  AppSpec app;
  app.target_loss = 0.1;
  for (double decay : {1.0, 0.25}) {
    JobSpec job;
    job.num_tasks = 1;
    job.gpus_per_task = 4;
    job.total_iterations = std::pow(10.0, 1.0 / decay);
    job.total_work = 100.0;
    job.loss = LossCurve(0.1 * std::pow(job.total_iterations + 1.0, decay),
                         decay, 0.0);
    app.jobs.push_back(job);
  }
  HyperDrive hd;
  hd.Init(app);
  const TunerDecision d = hd.Step(ViewsAt(app, 50.0), 0.0);
  ASSERT_EQ(d.kill.size(), 1u);
  EXPECT_EQ(d.kill[0], 1);
  EXPECT_EQ(d.parallelism_cap[0], 4);
}

TEST(HyperDrive, PromisingJobsGetReducedGangAlignedCap) {
  AppSpec app;
  app.target_loss = 0.1;
  for (double decay : {1.0, 0.55}) {
    JobSpec job;
    job.num_tasks = 3;
    job.gpus_per_task = 4;  // max parallelism 12
    job.total_iterations = std::pow(10.0, 1.0 / decay);
    job.total_work = 100.0;
    job.loss = LossCurve(0.1 * std::pow(job.total_iterations + 1.0, decay),
                         decay, 0.0);
    app.jobs.push_back(job);
  }
  HyperDriveConfig cfg;
  cfg.good_ratio = 1.5;
  cfg.poor_ratio = 100.0;  // nothing is poor here
  HyperDrive hd(cfg);
  hd.Init(app);
  const TunerDecision d = hd.Step(ViewsAt(app, 50.0), 0.0);
  EXPECT_TRUE(d.kill.empty());
  EXPECT_EQ(d.parallelism_cap[0], 12);
  // Promising: half of 12 = 6, already a multiple of the 4-GPU gang? 6 is
  // not; rounded down to 4.
  EXPECT_EQ(d.parallelism_cap[1], 4);
}

TEST(HyperDrive, NeverKillsEveryJob) {
  // All jobs identically poor relative to... themselves: ratio 1, none
  // killed; but with aggressive poor_ratio < 1 everything would qualify —
  // the guard must spare the best.
  AppSpec app = MakeApp(3);
  HyperDriveConfig cfg;
  cfg.poor_ratio = 0.5;  // pathological: everything "poor"
  cfg.warmup_iterations = 0.0;
  HyperDrive hd(cfg);
  hd.Init(app);
  const TunerDecision d = hd.Step(ViewsAt(app, 100.0), 0.0);
  EXPECT_LT(d.kill.size(), 3u);
}

TEST(Factory, SelectsTunerByKind) {
  AppSpec app = MakeApp(4);
  app.tuner = TunerKind::kHyperBand;
  EXPECT_STREQ(MakeAppScheduler(app)->name(), "HyperBand");
  app.tuner = TunerKind::kHyperDrive;
  EXPECT_STREQ(MakeAppScheduler(app)->name(), "HyperDrive");
  app.tuner = TunerKind::kNone;
  EXPECT_STREQ(MakeAppScheduler(app)->name(), "SingleJob");
}

TEST(Factory, SingleJobSchedulerGrantsFullCap) {
  AppSpec app = MakeApp(1);
  app.tuner = TunerKind::kNone;
  auto tuner = MakeAppScheduler(app);
  tuner->Init(app);
  const TunerDecision d = tuner->Step(ViewsAt(app, 50.0), 0.0);
  EXPECT_TRUE(d.kill.empty());
  EXPECT_EQ(d.parallelism_cap[0], 4);
}

class HyperBandWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(HyperBandWidthTest, AlwaysConvergesToOneSurvivor) {
  const int n = GetParam();
  const AppSpec app = MakeApp(n);
  HyperBand hb;
  hb.Init(app);
  std::vector<bool> alive(n, true);
  int alive_count = n;
  for (int round = 0; round < 40 && alive_count > 1; ++round) {
    const double iters = hb.RungBudget(hb.current_rung());
    std::vector<JobView> views;
    for (int j = 0; j < n; ++j)
      views.push_back({&app.jobs[j], iters, alive[j], false});
    for (int idx : hb.Step(views, 0.0).kill) {
      alive[idx] = false;
      --alive_count;
    }
  }
  EXPECT_EQ(alive_count, 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, HyperBandWidthTest,
                         ::testing::Values(2, 3, 4, 7, 8, 16, 23, 31, 64, 98));

// ArbiterState skips the rho-index update after a tuner step that kills
// nothing (core/rho_index.h). That holds only while every tuner gives each
// alive job it spares a cap of at least one gang: then a gangless app keeps
// unmet demand and cannot leave the unbounded-candidate class. Random apps
// and progress, stepped the way the ARBITER steps them (kills fed back).
class TunerCaps : public ::testing::TestWithParam<TunerKind> {};

TEST_P(TunerCaps, SpareEveryLiveJobOneGang) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    AppSpec app;
    app.tuner = GetParam();
    app.target_loss = rng.Uniform(0.05, 0.5);
    const int n = app.tuner == TunerKind::kNone ? 1 : rng.UniformInt(1, 12);
    for (int j = 0; j < n; ++j) {
      JobSpec job;
      job.num_tasks = rng.UniformInt(1, 4);
      job.gpus_per_task = 1 << rng.UniformInt(0, 3);
      job.total_iterations = rng.Uniform(50.0, 5000.0);
      job.total_work = rng.Uniform(10.0, 1000.0);
      const double decay = rng.Uniform(0.3, 1.2);
      job.loss = LossCurve(
          app.target_loss * std::pow(job.total_iterations + 1.0, decay), decay,
          0.0);
      app.jobs.push_back(job);
    }
    auto tuner = MakeAppScheduler(app);
    tuner->Init(app);
    std::vector<JobView> views = ViewsAt(app, 0.0);
    for (int step = 0; step < 30; ++step) {
      for (JobView& v : views) {
        if (!v.alive || v.finished) continue;
        v.done_iterations += rng.Uniform(0.0, v.spec->total_iterations / 8.0);
        if (rng.NextDouble() < 0.03) v.finished = true;
      }
      const TunerDecision& d = tuner->Step(views, step);
      std::vector<bool> killed(views.size(), false);
      for (int k : d.kill) killed[k] = true;
      for (std::size_t i = 0; i < views.size(); ++i) {
        if (!views[i].alive || views[i].finished || killed[i]) continue;
        EXPECT_GE(d.parallelism_cap[i], views[i].spec->gpus_per_task)
            << "seed " << seed << " step " << step << " job " << i;
        EXPECT_LE(d.parallelism_cap[i], views[i].spec->MaxParallelism());
      }
      for (int k : d.kill) views[k].alive = false;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTuners, TunerCaps,
    ::testing::Values(TunerKind::kNone, TunerKind::kHyperBand,
                      TunerKind::kHyperDrive),
    [](const ::testing::TestParamInfo<TunerKind>& info) {
      switch (info.param) {
        case TunerKind::kNone:
          return std::string("SingleJob");
        case TunerKind::kHyperBand:
          return std::string("HyperBand");
        case TunerKind::kHyperDrive:
          return std::string("HyperDrive");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace themis
