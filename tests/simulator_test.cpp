// Tests for sim/: event queue ordering, progress accounting, leases,
// restart overheads, gang flooring, and end-to-end single-app timing.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sim/events.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace themis {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  q.Push({5.0, 0, EventType::kLeaseTick, 0, kNoJob, 0});
  q.Push({1.0, 0, EventType::kAppArrival, 1, kNoJob, 0});
  q.Push({5.0, 0, EventType::kJobFinish, 2, 0, 0});
  EXPECT_EQ(q.Pop().type, EventType::kAppArrival);
  EXPECT_EQ(q.Pop().type, EventType::kLeaseTick);  // earlier insertion first
  EXPECT_EQ(q.Pop().type, EventType::kJobFinish);
  EXPECT_TRUE(q.Empty());
}

AppSpec SingleJobApp(Time arrival, double work, int num_tasks,
                     int gpus_per_task, const char* model = "ResNet50") {
  AppSpec app;
  app.arrival = arrival;
  app.tuner = TunerKind::kNone;
  app.target_loss = 0.1;
  JobSpec job;
  job.total_work = work;
  job.total_iterations = 1000.0;
  job.num_tasks = num_tasks;
  job.gpus_per_task = gpus_per_task;
  job.model = ModelByName(model);
  job.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  app.jobs = {job};
  return app;
}

SimConfig FastConfig() {
  SimConfig cfg;
  cfg.lease_minutes = 20.0;
  cfg.restart_overhead_minutes = 0.75;
  return cfg;
}

TEST(Simulator, SingleJobFinishesAtPredictedTime) {
  // 1 machine, 4 GPUs in one slot (S = 1). Work 40, 4 GPUs -> 10 minutes of
  // compute + 0.75 startup overhead.
  Simulator sim(ClusterSpec::Uniform(1, 1, 4, 4),
                {SingleJobApp(0.0, 40.0, 1, 4)},
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  EXPECT_TRUE(r.unfinished.empty());
  ASSERT_EQ(r.metrics.apps().size(), 1u);
  EXPECT_NEAR(r.metrics.apps()[0].finish, 10.75, 1e-6);
  // rho = 10.75 / (40/4) = 1.075.
  EXPECT_NEAR(r.metrics.apps()[0].Rho(), 1.075, 1e-6);
}

TEST(Simulator, ArrivalOffsetShiftsFinishNotCompletionTime) {
  Simulator sim(ClusterSpec::Uniform(1, 1, 4, 4),
                {SingleJobApp(100.0, 40.0, 1, 4)},
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  ASSERT_EQ(r.metrics.apps().size(), 1u);
  EXPECT_NEAR(r.metrics.apps()[0].finish, 110.75, 1e-6);
  EXPECT_NEAR(r.metrics.apps()[0].CompletionTime(), 10.75, 1e-6);
}

TEST(Simulator, LeaseRenewalAvoidsRestartOverhead) {
  // Work 100 on 4 GPUs = 25 min of compute: spans a 20-minute lease. The
  // lone app wins its own GPUs back at the lease tick, so only the initial
  // 0.75 overhead applies: finish at 25.75.
  Simulator sim(ClusterSpec::Uniform(1, 1, 4, 4),
                {SingleJobApp(0.0, 100.0, 1, 4)},
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  ASSERT_EQ(r.metrics.apps().size(), 1u);
  EXPECT_NEAR(r.metrics.apps()[0].finish, 25.75, 1e-6);
}

TEST(Simulator, PartialExpiryShrinkIsCharged) {
  // A (8-GPU max) holds two 4-GPU leases taken at t = 1 and t = 5.75. At
  // t = 21 the first expires and LAS hands it to the newly arrived C, so
  // A's gang shrinks to 4 and is not regrown: a gang change, charged from
  // the pass at t = 21 (Sec. 8.3.2).
  SimConfig cfg = FastConfig();
  cfg.max_time = 23.0;
  Simulator sim(ClusterSpec::Uniform(1, 1, 8, 8),
                {SingleJobApp(0.0, 20.0, 1, 4), SingleJobApp(1.0, 1000.0, 2, 4),
                 SingleJobApp(21.0, 1000.0, 1, 4)},
                MakePolicy(PolicyKind::kTiresias), cfg);
  sim.Run();
  const JobState& a = sim.apps()[1]->jobs[0];
  const JobState& c = sim.apps()[2]->jobs[0];
  EXPECT_EQ(a.gpus.size(), 4u);
  EXPECT_EQ(c.gpus.size(), 4u);
  EXPECT_DOUBLE_EQ(a.resume_at, 21.75);
}

TEST(Simulator, GpuTimeCountsHeldGpuMinutes) {
  Simulator sim(ClusterSpec::Uniform(1, 1, 4, 4),
                {SingleJobApp(0.0, 40.0, 1, 4)},
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  // 4 GPUs held from t=0 to t=10.75 (including the restart stall).
  EXPECT_NEAR(r.metrics.TotalGpuTime(), 4.0 * 10.75, 1e-6);
  EXPECT_NEAR(r.metrics.apps()[0].attained_service, 4.0 * 10.75, 1e-6);
}

TEST(Simulator, PlacementSlowdownStretchesRuntime) {
  // Two 2-GPU machines in different racks; VGG16 with a 4-GPU job must span
  // racks: rate = 4 * 0.35 = 1.4; finish ~ 0.75 + 40/1.4.
  ClusterSpec spec;
  spec.racks.push_back(RackSpec{{MachineSpec{2, 2}}});
  spec.racks.push_back(RackSpec{{MachineSpec{2, 2}}});
  Simulator sim(spec, {SingleJobApp(0.0, 40.0, 1, 4, "VGG16")},
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  ASSERT_TRUE(r.unfinished.empty());
  const double s = ModelByName("VGG16").sensitivity.cross_rack;
  EXPECT_NEAR(r.metrics.apps()[0].finish, 0.75 + 40.0 / (4.0 * s), 1e-6);
}

TEST(Simulator, StrayGpusBeyondGangsDoNotSpeedUp) {
  // 6 GPUs on one machine; job has 4-GPU tasks and max parallelism 8, so it
  // can hold 6 but only 4 are usable.
  ClusterSpec spec;
  spec.racks.push_back(RackSpec{{MachineSpec{6, 2}}});
  Simulator sim(spec, {SingleJobApp(0.0, 40.0, 2, 4)},
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  ASSERT_TRUE(r.unfinished.empty());
  // ResNet machine-span S = 0.99 over 4 usable GPUs.
  const double s = ModelByName("ResNet50").sensitivity.machine;
  EXPECT_NEAR(r.metrics.apps()[0].finish, 0.75 + 40.0 / (4.0 * s), 1e-2);
}

TEST(Simulator, TwoAppsShareViaLeases) {
  // 4 GPUs, two identical 4-GPU apps arriving together: one waits a lease.
  std::vector<AppSpec> apps{SingleJobApp(0.0, 40.0, 1, 4),
                            SingleJobApp(0.0, 40.0, 1, 4)};
  Simulator sim(ClusterSpec::Uniform(1, 1, 4, 4), apps,
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  EXPECT_TRUE(r.unfinished.empty());
  ASSERT_EQ(r.metrics.apps().size(), 2u);
  std::vector<double> finishes{r.metrics.apps()[0].finish,
                               r.metrics.apps()[1].finish};
  std::sort(finishes.begin(), finishes.end());
  EXPECT_NEAR(finishes[0], 10.75, 1e-6);
  // Second app starts when the first finishes (job-finish pass), not at the
  // lease tick: 10.75 + 10.75.
  EXPECT_NEAR(finishes[1], 21.5, 1e-6);
}

TEST(Simulator, HyperBandAppTerminatesPoorJobs) {
  AppSpec app;
  app.arrival = 0.0;
  app.tuner = TunerKind::kHyperBand;
  app.target_loss = 0.1;
  for (int j = 0; j < 4; ++j) {
    JobSpec job;
    job.num_tasks = 1;
    job.gpus_per_task = 2;
    const double decay = 1.0 - 0.15 * j;
    job.total_iterations = 200.0 + 100.0 * j;
    job.total_work = 20.0 + 10.0 * j;
    job.loss = LossCurve(0.1 * std::pow(job.total_iterations + 1.0, decay),
                         decay, 0.0);
    app.jobs.push_back(job);
  }
  Simulator sim(ClusterSpec::Uniform(1, 2, 4, 2), {app},
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  EXPECT_TRUE(r.unfinished.empty());
  ASSERT_EQ(r.metrics.apps().size(), 1u);
  // The app finished once its best job reached target.
  EXPECT_GT(r.metrics.apps()[0].finish, 0.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = []() {
    auto cfg = SimScaleConfig(PolicyKind::kThemis, 99, 30);
    return RunExperiment(cfg);
  };
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  EXPECT_EQ(a.rhos, b.rhos);
  EXPECT_EQ(a.completion_times, b.completion_times);
  EXPECT_DOUBLE_EQ(a.gpu_time, b.gpu_time);
}

TEST(Simulator, PeakContentionReflectsOverlap) {
  // Two apps demanding 4 GPUs each on a 4-GPU cluster, overlapping in time:
  // peak contention = 8 / 4 = 2.
  std::vector<AppSpec> apps{SingleJobApp(0.0, 40.0, 1, 4),
                            SingleJobApp(1.0, 40.0, 1, 4)};
  Simulator sim(ClusterSpec::Uniform(1, 1, 4, 4), apps,
                std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  EXPECT_NEAR(r.peak_contention, 2.0, 1e-9);
}

TEST(Simulator, AllPoliciesFinishEverything) {
  for (PolicyKind kind : {PolicyKind::kThemis, PolicyKind::kGandiva,
                          PolicyKind::kTiresias, PolicyKind::kSlaq}) {
    auto cfg = SimScaleConfig(kind, 5, 25);
    const ExperimentResult r = RunExperiment(cfg);
    EXPECT_EQ(r.unfinished_apps, 0) << ToString(kind);
    EXPECT_EQ(r.rhos.size(), 25u) << ToString(kind);
  }
}

TEST(Simulator, TimelineRecordsAllocations) {
  auto cfg = SimScaleConfig(PolicyKind::kThemis, 3, 10);
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_FALSE(r.timeline.empty());
  for (const AllocationSample& s : r.timeline) {
    EXPECT_GE(s.gpus, 0);
    EXPECT_GE(s.time, 0.0);
  }
}

TEST(Simulator, RhosAreBoundedByContentionBallpark) {
  auto cfg = SimScaleConfig(PolicyKind::kThemis, 21, 40);
  const ExperimentResult r = RunExperiment(cfg);
  ASSERT_EQ(r.unfinished_apps, 0);
  for (double rho : r.rhos) {
    EXPECT_GT(rho, 0.9);  // can't beat ideal by more than rounding
    EXPECT_LT(rho, kUnboundedRho);
  }
}


TEST(Simulator, FailureInjectionCompletesAndCounts) {
  auto cfg = SimScaleConfig(PolicyKind::kThemis, 8, 25);
  cfg.sim.machine_mtbf_minutes = 2000.0;
  cfg.sim.machine_repair_minutes = 30.0;
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_EQ(r.unfinished_apps, 0);
  EXPECT_GT(r.machine_failures, 0);
}

TEST(Simulator, FailureInjectionIsDeterministic) {
  auto run = []() {
    auto cfg = SimScaleConfig(PolicyKind::kThemis, 9, 20);
    cfg.sim.machine_mtbf_minutes = 3000.0;
    return RunExperiment(cfg);
  };
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.rhos, b.rhos);
}

TEST(Simulator, FailedMachineRevokesLeasesAndJobRecovers) {
  // Deterministic single-failure scenario: one 4-GPU machine plus one 4-GPU
  // backup machine. The job starts on machine 0; when it fails the job must
  // migrate to machine 1 and still finish.
  AppSpec app = SingleJobApp(0.0, 400.0, 1, 4);
  SimConfig cfg = FastConfig();
  cfg.machine_mtbf_minutes = 500.0;  // a failure will land mid-run
  cfg.machine_repair_minutes = 10000.0;  // no recovery within the run
  Simulator sim(ClusterSpec::Uniform(1, 2, 4, 4), {app},
                std::make_unique<ThemisPolicy>(), cfg);
  const SimResult r = sim.Run();
  EXPECT_TRUE(r.unfinished.empty());
  // Baseline (no failure) would be 0.75 + 100; any failure adds delay but
  // never deadlock.
  EXPECT_GE(r.metrics.apps()[0].finish, 100.75 - 1e-9);
}

TEST(Simulator, PlacementConstraintForcesMachineLocalProgress) {
  // Two 2-GPU machines; the job wants 4 GPUs but tolerates only machine
  // span. Spanning allocations give zero progress, so the scheduler's
  // gang-by-gang growth must still let it finish on whatever single-machine
  // pair it can use.
  AppSpec app;
  app.arrival = 0.0;
  app.tuner = TunerKind::kNone;
  app.target_loss = 0.1;
  JobSpec job;
  job.total_work = 20.0;
  job.total_iterations = 100.0;
  job.num_tasks = 2;
  job.gpus_per_task = 2;
  job.max_span = LocalityLevel::kMachine;
  job.model = ModelByName("ResNet50");
  job.loss = LossCurve(0.1 * std::pow(101.0, 0.6), 0.6, 0.0);
  app.jobs = {job};
  ClusterSpec spec;
  spec.racks.push_back(RackSpec{{MachineSpec{2, 2}, MachineSpec{2, 2}}});
  Simulator sim(spec, {app}, std::make_unique<ThemisPolicy>(), FastConfig());
  const SimResult r = sim.Run();
  EXPECT_TRUE(r.unfinished.empty());
}

TEST(Simulator, EffectiveJobRateZeroBeyondConstraint) {
  const Topology topo(ClusterSpec::Uniform(2, 2, 4, 2));
  JobSpec job;
  job.model = ModelByName("ResNet50");
  job.max_span = LocalityLevel::kMachine;
  EXPECT_GT(EffectiveJobRate(job, {0, 1, 2, 3}, topo), 0.0);
  EXPECT_DOUBLE_EQ(EffectiveJobRate(job, {0, 4}, topo), 0.0);   // rack span
  EXPECT_DOUBLE_EQ(EffectiveJobRate(job, {0, 8}, topo), 0.0);   // cross rack
  job.max_span = LocalityLevel::kCrossRack;
  EXPECT_GT(EffectiveJobRate(job, {0, 8}, topo), 0.0);
}

TEST(SimConfigValidation, RejectsNonPositiveLease) {
  SimConfig cfg;
  cfg.lease_minutes = 0.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.lease_minutes = -5.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

TEST(SimConfigValidation, RejectsNegativeRestartOverhead) {
  SimConfig cfg;
  cfg.restart_overhead_minutes = -0.1;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.restart_overhead_minutes = 0.0;  // zero overhead is legitimate
  EXPECT_NO_THROW(cfg.Validate());
}

TEST(SimConfigValidation, RejectsBadFailureKnobs) {
  SimConfig cfg;
  cfg.machine_mtbf_minutes = -1.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.machine_mtbf_minutes = 1000.0;
  cfg.machine_repair_minutes = 0.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  // Repair time only matters when injection is on.
  cfg.machine_mtbf_minutes = 0.0;
  EXPECT_NO_THROW(cfg.Validate());
}

TEST(SimConfigValidation, RejectsNonPositiveMaxTime) {
  SimConfig cfg;
  cfg.max_time = 0.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

TEST(SimConfigValidation, SimulatorConstructorValidates) {
  SimConfig cfg;
  cfg.lease_minutes = -1.0;
  EXPECT_THROW(Simulator(ClusterSpec::Uniform(1, 1, 4, 4),
                         {SingleJobApp(0.0, 40.0, 1, 4)},
                         std::make_unique<ThemisPolicy>(), cfg),
               std::invalid_argument);
}

TEST(Simulator, DrfPolicyCompletesWorkload) {
  const ExperimentResult r = RunExperiment(SimScaleConfig(PolicyKind::kDrf, 5, 25));
  EXPECT_EQ(r.unfinished_apps, 0);
  EXPECT_EQ(r.rhos.size(), 25u);
}

}  // namespace
}  // namespace themis
