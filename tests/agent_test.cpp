// Tests for core/agent.h: rho estimation (Sec. 5.2 steps 1-7), valuation
// tables, and app-internal GPU distribution, plus a property test against
// the original valuation in agent_oracle.h.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "agent_oracle.h"
#include "core/agent.h"

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

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() : topo_(ClusterSpec::Uniform(2, 2, 4, 2)), est_({}) {}

  Topology topo_;
  WorkEstimator est_;
};

TEST_F(AgentTest, NoAllocationMeansUnboundedRho) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  Agent agent(&topo_, &est_, 10.0);
  EXPECT_DOUBLE_EQ(agent.CurrentRho(*app), kUnboundedRho);
}

TEST_F(AgentTest, CurrentRhoMatchesHandComputation) {
  // T_ID = 40 / 4 = 10. With 2 slot-local GPUs at t=5:
  // T_SH = 5 + 40/2 = 25 -> rho = 2.5.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  app->jobs[0].gpus = {0, 1};
  Agent agent(&topo_, &est_, 5.0);
  EXPECT_NEAR(agent.CurrentRho(*app), 2.5, 1e-9);
}

TEST_F(AgentTest, RhoUsesPlacementSlowdown) {
  // Same GPUs count but spanning racks: VGG16 pays S = 0.35.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2, "VGG16")});
  app->jobs[0].gpus = {0, 8};  // cross-rack pair
  Agent agent(&topo_, &est_, 0.0);
  const double s = ModelByName("VGG16").sensitivity.cross_rack;
  EXPECT_NEAR(agent.CurrentRho(*app), (40.0 / (2.0 * s)) / 10.0, 1e-9);
}

TEST_F(AgentTest, MinOverJobsPicksBestJob) {
  // Two jobs; only the second (short) one has GPUs: it drives T_SH.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(80.0, 1, 2), MakeJobSpec(20.0, 1, 2)});
  app->jobs[1].gpus = {0, 1};
  Agent agent(&topo_, &est_, 0.0);
  // T_ID = min(80/2, 20/2) = 10; T_SH = 20/2 = 10 -> rho = 1.
  EXPECT_NEAR(agent.CurrentRho(*app), 1.0, 1e-9);
}

TEST_F(AgentTest, PartialGangContributesNothing) {
  // 3 GPUs with 2-GPU gangs: only 2 usable; with 1 GPU: none usable.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  app->jobs[0].gpus = {0};
  Agent agent(&topo_, &est_, 0.0);
  EXPECT_DOUBLE_EQ(agent.CurrentRho(*app), kUnboundedRho);
  app->jobs[0].gpus = {0, 1, 2};
  EXPECT_NEAR(agent.CurrentRho(*app), (40.0 / 2.0) / 10.0, 1e-9);
}

TEST_F(AgentTest, HypotheticalRhoImprovesWithExtraGpus) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  app->jobs[0].gpus = {0, 1};
  Agent agent(&topo_, &est_, 5.0);
  const double current = agent.CurrentRho(*app);
  // The same app once it also holds {2, 3}.
  app->jobs[0].gpus = {0, 1, 2, 3};
  const double with_extra = agent.CurrentRho(*app);
  EXPECT_LT(with_extra, current);
}

TEST_F(AgentTest, FinishedAndDeadJobsAreIgnored) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2), MakeJobSpec(40.0, 1, 2)});
  app->jobs[0].gpus = {0, 1};
  app->jobs[0].alive = false;  // killed: its GPUs don't count
  Agent agent(&topo_, &est_, 0.0);
  EXPECT_DOUBLE_EQ(agent.CurrentRho(*app), kUnboundedRho);
}

TEST_F(AgentTest, BidTableShapeIsValid) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2), MakeJobSpec(60.0, 1, 2)});
  Agent agent(&topo_, &est_, 0.0);
  const std::vector<GpuId> offered{0, 1, 2, 3, 4, 5};
  const AgentBid bid = agent.PrepareBid(*app, offered, 6);

  std::vector<int> offered_vec(topo_.num_machines(), 0);
  for (GpuId g : offered) ++offered_vec[topo_.gpu(g).machine];
  EXPECT_EQ(ValidateBid(bid.table, offered_vec), "");
  EXPECT_EQ(bid.table.rows.size(), bid.row_gpus.size());
  EXPECT_LE(bid.table.rows.size(), 7u);  // zero row + max_rows

  // rho weakly improves with bigger bundles.
  for (std::size_t r = 1; r < bid.table.rows.size(); ++r) {
    EXPECT_LE(bid.table.rows[r].rho, bid.table.rows[r - 1].rho + 1e-9);
    EXPECT_EQ(bid.table.rows[r].TotalGpus(),
              static_cast<int>(bid.row_gpus[r].size()));
  }
}

TEST_F(AgentTest, BidRowsAreGangMultiples) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 3, 4)});
  Agent agent(&topo_, &est_, 0.0);
  std::vector<GpuId> offered;
  for (GpuId g = 0; g < 16; ++g) offered.push_back(g);
  const AgentBid bid = agent.PrepareBid(*app, offered, 6);
  for (std::size_t r = 1; r < bid.table.rows.size(); ++r)
    EXPECT_EQ(bid.table.rows[r].TotalGpus() % 4, 0);
  // Largest row covers the whole demand (12 = 3 tasks x 4 GPUs).
  EXPECT_EQ(bid.table.rows.back().TotalGpus(), 12);
}

TEST_F(AgentTest, BidRespectsParallelismCap) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 4, 2)});
  app->jobs[0].parallelism_cap = 4;  // tuner demoted the job
  Agent agent(&topo_, &est_, 0.0);
  std::vector<GpuId> offered;
  for (GpuId g = 0; g < 16; ++g) offered.push_back(g);
  const AgentBid bid = agent.PrepareBid(*app, offered, 6);
  EXPECT_EQ(bid.table.rows.back().TotalGpus(), 4);
}

TEST_F(AgentTest, ZeroDemandAppBidsOnlyZeroRow) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)});
  app->jobs[0].gpus = {0, 1};  // demand met
  Agent agent(&topo_, &est_, 0.0);
  const AgentBid bid = agent.PrepareBid(*app, {2, 3, 4}, 6);
  EXPECT_EQ(bid.table.rows.size(), 1u);
}

TEST_F(AgentTest, DistributePrefersShortestRemainingJob) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(80.0, 1, 2), MakeJobSpec(20.0, 1, 2)});
  Agent agent(&topo_, &est_, 0.0);
  const auto order = agent.JobPriorityOrder(*app);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // 20 < 80

  const auto assignments = agent.DistributeToJobs(*app, {0, 1});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job_index, 1);
  EXPECT_EQ(assignments[0].gpus.size(), 2u);
}

TEST_F(AgentTest, DistributeHonorsGangsAndCaps) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 4)});
  Agent agent(&topo_, &est_, 0.0);
  // 6 GPUs with 4-GPU gangs: only one gang fits.
  const auto assignments = agent.DistributeToJobs(*app, {0, 1, 2, 3, 4, 5});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].gpus.size(), 4u);
}

TEST_F(AgentTest, DistributeSpillsToSecondJob) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(20.0, 1, 2), MakeJobSpec(80.0, 1, 2)});
  Agent agent(&topo_, &est_, 0.0);
  const auto assignments = agent.DistributeToJobs(*app, {0, 1, 2, 3});
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].job_index, 0);
  EXPECT_EQ(assignments[1].job_index, 1);
}

TEST_F(AgentTest, ValuationHomogeneity) {
  // V = 1/rho must be homogeneous of degree ~1: doubling the allocation on
  // the same machines halves rho (when no elapsed time blurs it).
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 4, 2)});
  Agent agent(&topo_, &est_, 0.0);
  app->jobs[0].gpus = {0, 1};
  const double rho_2 = agent.CurrentRho(*app);
  app->jobs[0].gpus = {0, 1, 2, 3};
  const double rho_4 = agent.CurrentRho(*app);
  // {0,1} is slot-local, {0,1,2,3} machine-local; ResNet50 machine S = 0.99.
  const double s = ModelByName("ResNet50").sensitivity.machine;
  EXPECT_NEAR(rho_2 / rho_4, 2.0 * s, 1e-6);
}

// ---------------------------------------------------------------------------
// Oracle: the incremental valuation against the original recomputation.
// ---------------------------------------------------------------------------

/// Takes `count` GPUs nobody holds yet: a run of free ids from a random
/// start (local) or a random scatter.
std::vector<GpuId> TakeFree(Rng& rng, std::vector<bool>& taken, int count) {
  std::vector<GpuId> free;
  for (GpuId g = 0; g < static_cast<GpuId>(taken.size()); ++g)
    if (!taken[g]) free.push_back(g);
  if (free.empty() || count <= 0) return {};
  std::vector<GpuId> out;
  if (rng.UniformInt(0, 1) == 0) {
    const int start = rng.UniformInt(0, static_cast<int>(free.size()) - 1);
    for (int k = start; k < static_cast<int>(free.size()) &&
                        static_cast<int>(out.size()) < count;
         ++k)
      out.push_back(free[k]);
  } else {
    rng.Shuffle(free);
    out.assign(free.begin(),
               free.begin() + std::min<std::size_t>(count, free.size()));
  }
  for (GpuId g : out) taken[g] = true;
  return out;
}

/// A random app: 1-98 jobs of 1/2/4-GPU gangs and 1-4 tasks, mixed models
/// and placement constraints, some dead or finished, some with a demoted
/// parallelism cap, some holding GPUs (not always whole gangs). Work comes
/// from a small grid so remaining-work ties exercise the stable order.
std::unique_ptr<AppState> RandomApp(Rng& rng, std::vector<bool>& taken) {
  const int num_jobs =
      rng.UniformInt(0, 3) == 0 ? rng.UniformInt(1, 98) : rng.UniformInt(1, 30);
  std::vector<JobSpec> specs;
  for (int j = 0; j < num_jobs; ++j) {
    static constexpr int kGangs[] = {1, 2, 4};
    static constexpr const char* kModels[] = {"VGG16", "VGG19", "AlexNet",
                                              "Inceptionv3", "ResNet50"};
    JobSpec spec = MakeJobSpec(10.0 * rng.UniformInt(1, 12),
                               rng.UniformInt(1, 4), kGangs[rng.UniformInt(0, 2)],
                               kModels[rng.UniformInt(0, 4)]);
    const int span = rng.UniformInt(0, 5);
    if (span <= 2) spec.max_span = static_cast<LocalityLevel>(span);
    specs.push_back(spec);
  }
  auto app = MakeApp(static_cast<AppId>(rng.UniformInt(0, 1000)),
                     rng.Uniform(0.0, 50.0), specs);
  for (JobState& job : app->jobs) {
    const int gang = job.spec.gpus_per_task;
    job.done = job.spec.total_work * 0.25 * rng.UniformInt(0, 3);
    if (rng.UniformInt(0, 9) == 0) job.alive = false;
    if (rng.UniformInt(0, 9) == 0) job.finished = true;
    if (rng.UniformInt(0, 4) == 0)
      job.parallelism_cap = gang * rng.UniformInt(0, job.spec.num_tasks);
    if (rng.UniformInt(0, 2) == 0) {
      int held = gang * rng.UniformInt(1, job.spec.num_tasks);
      if (rng.UniformInt(0, 3) == 0) held += rng.UniformInt(-1, 1);
      job.gpus = TakeFree(rng, taken, held);
    }
  }
  return app;
}

/// The offer: a random fragment of the GPUs nobody holds, ascending, or the
/// same fragment shuffled.
std::vector<GpuId> RandomOffer(Rng& rng, const std::vector<bool>& taken) {
  const double keep = rng.Uniform(0.1, 1.0);
  std::vector<GpuId> offered;
  for (GpuId g = 0; g < static_cast<GpuId>(taken.size()); ++g)
    if (!taken[g] && rng.NextDouble() < keep) offered.push_back(g);
  if (rng.UniformInt(0, 1) == 0) rng.Shuffle(offered);
  return offered;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(AgentOracle, PrepareBidMatchesReference) {
  const std::vector<Topology> topologies = {
      Topology(ClusterSpec::Simulation256()),
      Topology(ClusterSpec::Simulation256Mixed()),
      Topology(ClusterSpec::Uniform(4, 4, 8, 2))};
  const std::vector<EstimatorConfig> estimators = {
      {EstimationMode::kClairvoyant, 0.0, 7},
      {EstimationMode::kNoisy, 0.2, 11},
      {EstimationMode::kCurveFit, 0.0, 7}};
  const JobSpec probe = MakeJobSpec(50.0, 1, 1);
  Rng rng(2024);
  int multi_row_bids = 0;
  int capped_bids = 0;  // as many rows as max_rows allows
  for (const Topology& topo : topologies) {
    for (const EstimatorConfig& config : estimators) {
      WorkEstimator est(config);
      WorkEstimator ref_est(config);
      for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(::testing::Message()
                     << topo.Describe() << " mode "
                     << static_cast<int>(config.mode) << " trial " << trial);
        std::vector<bool> taken(topo.num_gpus(), false);
        const auto app = RandomApp(rng, taken);
        const std::vector<GpuId> offered = RandomOffer(rng, taken);
        const int max_rows = rng.UniformInt(1, 8);
        const Time now = app->arrival() + rng.Uniform(-5.0, 100.0);
        const Agent agent(&topo, &est, now);
        const oracle::AgentRef ref{&topo, &ref_est, now};

        EXPECT_EQ(Bits(agent.CurrentRho(*app)), Bits(ref.CurrentRho(*app)));
        // The next draw checks that both made the same estimator calls.
        EXPECT_EQ(Bits(est.RemainingWork(probe, 0.0, 0.1)),
                  Bits(ref_est.RemainingWork(probe, 0.0, 0.1)));

        const AgentBid got = agent.PrepareBid(*app, offered, max_rows);
        const AgentBid want = ref.PrepareBid(*app, offered, max_rows);
        EXPECT_EQ(Bits(est.RemainingWork(probe, 0.0, 0.1)),
                  Bits(ref_est.RemainingWork(probe, 0.0, 0.1)));
        EXPECT_EQ(got.table.app, want.table.app);
        ASSERT_EQ(got.table.rows.size(), want.table.rows.size());
        ASSERT_EQ(got.row_gpus.size(), want.row_gpus.size());
        for (std::size_t r = 0; r < got.table.rows.size(); ++r) {
          EXPECT_EQ(got.table.rows[r].gpus_per_machine,
                    want.table.rows[r].gpus_per_machine)
              << "row " << r;
          EXPECT_EQ(Bits(got.table.rows[r].rho), Bits(want.table.rows[r].rho))
              << "row " << r;
          EXPECT_EQ(got.row_gpus[r], want.row_gpus[r]) << "row " << r;
        }
        if (got.table.rows.size() > 2) ++multi_row_bids;
        if (static_cast<int>(got.table.rows.size()) == max_rows + 1)
          ++capped_bids;
      }
    }
  }
  // The generator must reach the interesting shapes, not just empty bids.
  EXPECT_GT(multi_row_bids, 200);
  EXPECT_GT(capped_bids, 200);
}

}  // namespace
}  // namespace themis
