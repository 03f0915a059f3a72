// Tests for placement/: model profiles, slowdown arithmetic, placement
// scores, greedy locality-aware GPU picking, the machine-grouped PoolView,
// and a property test of the picks against the map-based oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "placement/model_profile.h"
#include "placement/placement_model.h"
#include "placement_oracle.h"

namespace themis {
namespace {

TEST(ModelProfile, CanonicalModelsMatchFig2Roster) {
  const auto& models = CanonicalModels();
  ASSERT_EQ(models.size(), 5u);
  for (const char* name :
       {"VGG16", "VGG19", "AlexNet", "Inceptionv3", "ResNet50"})
    EXPECT_NO_THROW(ModelByName(name));
  EXPECT_THROW(ModelByName("GPT3"), std::out_of_range);
}

TEST(ModelProfile, AllSensitivityProfilesValid) {
  for (const auto& m : CanonicalModels())
    EXPECT_TRUE(m.sensitivity.IsValid()) << m.name;
}

TEST(ModelProfile, VggFamilyIsNetworkIntensiveResNetIsNot) {
  EXPECT_TRUE(ModelByName("VGG16").network_intensive);
  EXPECT_TRUE(ModelByName("VGG19").network_intensive);
  EXPECT_FALSE(ModelByName("ResNet50").network_intensive);
  EXPECT_TRUE(SensitiveModel().network_intensive);
  EXPECT_FALSE(InsensitiveModel().network_intensive);
}

TEST(ModelProfile, Fig2CrossServerRatios) {
  // Fig. 2 shape: VGG16 ~2x slower when 4 GPUs span two servers (rack
  // level); ResNet50 nearly unaffected.
  const double vgg = ModelByName("VGG16").sensitivity.rack;
  const double resnet = ModelByName("ResNet50").sensitivity.rack;
  EXPECT_NEAR(1.0 / vgg, 2.0, 0.25);
  EXPECT_GT(resnet, 0.93);
}

TEST(SensitivityProfile, ValidityChecks) {
  EXPECT_TRUE((SensitivityProfile{1.0, 0.9, 0.6, 0.4}).IsValid());
  EXPECT_FALSE((SensitivityProfile{1.0, 0.9, 0.95, 0.4}).IsValid());  // rise
  EXPECT_FALSE((SensitivityProfile{1.0, 0.9, 0.6, 0.0}).IsValid());   // zero
  EXPECT_FALSE((SensitivityProfile{1.1, 0.9, 0.6, 0.4}).IsValid());   // > 1
}

class PlacementFixture : public ::testing::Test {
 protected:
  // 2 racks x 2 machines x 4 GPUs (2-GPU NVLink slots).
  Topology topo_{ClusterSpec::Uniform(2, 2, 4, 2)};
  const ModelProfile& vgg_ = ModelByName("VGG16");
  const ModelProfile& resnet_ = ModelByName("ResNet50");
};

TEST_F(PlacementFixture, SlowdownFollowsSpanLevel) {
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 1}, topo_), vgg_.sensitivity.slot);
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 2}, topo_), vgg_.sensitivity.machine);
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 4}, topo_), vgg_.sensitivity.rack);
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 8}, topo_), vgg_.sensitivity.cross_rack);
}

TEST_F(PlacementFixture, EmptySetIsIdeal) {
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {}, topo_), 1.0);
  EXPECT_DOUBLE_EQ(PlacementScore({}, topo_), 1.0);
  EXPECT_DOUBLE_EQ(EffectiveRate(vgg_, {}, topo_), 0.0);
}

TEST_F(PlacementFixture, PlacementScoreFourLevels) {
  EXPECT_DOUBLE_EQ(PlacementScore({0, 1}, topo_), 1.0);
  EXPECT_DOUBLE_EQ(PlacementScore({0, 2}, topo_), 0.8);
  EXPECT_DOUBLE_EQ(PlacementScore({0, 4}, topo_), 0.6);
  EXPECT_DOUBLE_EQ(PlacementScore({0, 8}, topo_), 0.4);
}

TEST_F(PlacementFixture, EffectiveRateScalesWithGpusAndSlowdown) {
  // 2 GPUs on one slot: rate 2; 2 GPUs across racks: rate 2 * S_xrack.
  EXPECT_DOUBLE_EQ(EffectiveRate(vgg_, {0, 1}, topo_), 2.0);
  EXPECT_DOUBLE_EQ(EffectiveRate(vgg_, {0, 8}, topo_),
                   2.0 * vgg_.sensitivity.cross_rack);
  // ResNet is barely affected by spread.
  EXPECT_GT(EffectiveRate(resnet_, {0, 8}, topo_), 1.7);
}

TEST_F(PlacementFixture, MachineLocalBeatsSpreadForVgg) {
  const double local = EffectiveRate(vgg_, {0, 1, 2, 3}, topo_);
  const double spread = EffectiveRate(vgg_, {0, 1, 4, 5}, topo_);
  EXPECT_GT(local, spread);
}

TEST_F(PlacementFixture, PickBestPlacedFitsInOneMachine) {
  const std::vector<GpuId> free{0, 1, 2, 3, 4, 5};
  const auto picked = PickBestPlaced(4, free, topo_);
  ASSERT_EQ(picked.size(), 4u);
  EXPECT_EQ(topo_.SpanLevel(picked), LocalityLevel::kMachine);
}

TEST_F(PlacementFixture, PickBestPlacedPrefersTightestFit) {
  // Machine 0 has 2 free, machine 1 has 4 free: a 2-GPU request should take
  // machine 0's pair and leave the larger block intact.
  const std::vector<GpuId> free{0, 1, 4, 5, 6, 7};
  const auto picked = PickBestPlaced(2, free, topo_);
  EXPECT_EQ(picked, (std::vector<GpuId>{0, 1}));
}

TEST_F(PlacementFixture, PickBestPlacedSpansWithinPreferredRack) {
  // 6 GPUs can't fit one machine (4 max); should stay within one rack.
  const std::vector<GpuId> free{0, 1, 2, 3, 4, 5, 8, 9};
  const auto picked = PickBestPlaced(6, free, topo_);
  ASSERT_EQ(picked.size(), 6u);
  EXPECT_EQ(topo_.SpanLevel(picked), LocalityLevel::kRack);
}

TEST_F(PlacementFixture, PickBestPlacedReturnsAllWhenScarce) {
  const std::vector<GpuId> free{0, 9};
  EXPECT_EQ(PickBestPlaced(5, free, topo_).size(), 2u);
  EXPECT_EQ(PickBestPlaced(0, free, topo_).size(), 0u);
  EXPECT_EQ(PickBestPlaced(3, {}, topo_).size(), 0u);
}

TEST_F(PlacementFixture, PickBestPlacedNearPrefersAnchorMachine) {
  // Anchor on machine 1 (gpu 4); free GPUs on machines 0 and 1: the pick
  // must co-locate with the anchor even though machine 0 has more free.
  const std::vector<GpuId> free{0, 1, 2, 5, 6};
  const auto picked = PickBestPlacedNear(2, free, {4}, topo_);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked, (std::vector<GpuId>{5, 6}));
}

TEST_F(PlacementFixture, PickBestPlacedNearFallsBackToAnchorRack) {
  // Anchor on machine 0 (rack 0); no free GPUs there, but machine 1 shares
  // the rack while machine 2 does not.
  const std::vector<GpuId> free{8, 9, 4, 5};
  const auto picked = PickBestPlacedNear(2, free, {0}, topo_);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(topo_.gpu(picked[0]).rack, 0u);
  EXPECT_EQ(topo_.gpu(picked[1]).rack, 0u);
}

TEST_F(PlacementFixture, PickBestPlacedNearWithEmptyAnchorEqualsPlain) {
  const std::vector<GpuId> free{0, 1, 2, 3, 4};
  EXPECT_EQ(PickBestPlacedNear(3, free, {}, topo_),
            PickBestPlaced(3, free, topo_));
}

TEST_F(PlacementFixture, PoolViewGroupsByMachineInInputOrder) {
  // Unsorted input: machine 1 (GPUs 4-7) appears first, machine 0's GPUs
  // out of order. Machines list ascending; GPUs keep input order.
  const PoolView view({6, 1, 4, 0, 9}, topo_);
  EXPECT_EQ(view.size(), 5);
  ASSERT_EQ(view.num_groups(), 3);
  EXPECT_EQ(view.machine(0), 0u);
  EXPECT_EQ(view.machine(1), 1u);
  EXPECT_EQ(view.machine(2), 2u);
  EXPECT_EQ(std::vector<GpuId>(view.gpus(0), view.gpus(0) + view.count(0)),
            (std::vector<GpuId>{1, 0}));
  EXPECT_EQ(std::vector<GpuId>(view.gpus(1), view.gpus(1) + view.count(1)),
            (std::vector<GpuId>{6, 4}));
  EXPECT_EQ(view.rack(2), 1u);
  EXPECT_EQ(view.fullest_rack(), 0u);  // 4 free on rack 0, 1 on rack 1
}

TEST_F(PlacementFixture, PoolViewRemoveKeepsOrderAndListsEmptiedMachines) {
  PoolView view({6, 1, 4, 5, 9}, topo_);
  view.Remove(4);
  EXPECT_EQ(std::vector<GpuId>(view.gpus(1), view.gpus(1) + view.count(1)),
            (std::vector<GpuId>{6, 5}));
  view.Remove(9);
  EXPECT_EQ(view.size(), 3);
  ASSERT_EQ(view.num_groups(), 3);  // machine 2 stays listed, empty
  EXPECT_EQ(view.count(2), 0);
  view.Remove(6);
  view.Remove(5);
  EXPECT_EQ(view.fullest_rack(), 0u);
  EXPECT_EQ(PickBestPlaced(2, view), (std::vector<GpuId>{1}));
  EXPECT_THROW(view.Remove(5), std::logic_error);  // already gone
  EXPECT_THROW(view.Remove(12), std::logic_error);  // never in the set
}

// Production picks vs the oracle over random free sets: ascending and
// shuffled input (DistributeToJobs passes unsorted sets), random anchors
// including none, counts from 0 to past the set size, and views that had
// GPUs removed.
class PlacementOracleTest : public ::testing::TestWithParam<int> {
 protected:
  static ClusterSpec Spec(int which) {
    switch (which) {
      case 0: return ClusterSpec::Simulation256();
      case 1: return ClusterSpec::Simulation256Mixed();
      default: return ClusterSpec::Uniform(4, 4, 8, 2);  // 8-GPU machines
    }
  }
};

TEST_P(PlacementOracleTest, PicksMatchTheMapBasedOracle) {
  const Topology topo(Spec(GetParam()));
  std::mt19937 rng(1234u + static_cast<unsigned>(GetParam()));
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const double density =
        std::uniform_real_distribution<double>(0.02, 1.0)(rng);
    std::vector<GpuId> free;
    for (int g = 0; g < topo.num_gpus(); ++g)
      if (std::bernoulli_distribution(density)(rng))
        free.push_back(static_cast<GpuId>(g));
    std::vector<GpuId> anchor;
    if (uniform(0, 3) > 0) {
      const int n = uniform(1, 8);
      for (int i = 0; i < n; ++i)
        anchor.push_back(static_cast<GpuId>(uniform(0, topo.num_gpus() - 1)));
    }
    const int count = uniform(0, static_cast<int>(free.size()) + 3);

    for (const bool shuffled : {false, true}) {
      if (shuffled) std::shuffle(free.begin(), free.end(), rng);
      ASSERT_EQ(PickBestPlaced(count, free, topo),
                oracle::PickBestPlaced(count, free, topo))
          << "trial " << trial << " count " << count;
      ASSERT_EQ(PickBestPlacedNear(count, free, anchor, topo),
                oracle::PickBestPlacedNear(count, free, anchor, topo))
          << "trial " << trial << " count " << count;

      // Remove a random share from a view and from a copy of the vector;
      // the view must pick what the oracle picks on the shrunk vector.
      PoolView view(free, topo);
      std::vector<GpuId> rest = free;
      const int removals = uniform(0, static_cast<int>(rest.size()));
      for (int r = 0; r < removals; ++r) {
        const int at = uniform(0, static_cast<int>(rest.size()) - 1);
        view.Remove(rest[at]);
        rest.erase(rest.begin() + at);
      }
      ASSERT_EQ(view.size(), static_cast<int>(rest.size()));
      const int rest_count = uniform(0, static_cast<int>(rest.size()) + 3);
      ASSERT_EQ(PickBestPlaced(rest_count, view),
                oracle::PickBestPlaced(rest_count, rest, topo))
          << "trial " << trial << " after " << removals << " removals";
      ASSERT_EQ(PickBestPlacedNear(rest_count, view, anchor),
                oracle::PickBestPlacedNear(rest_count, rest, anchor, topo))
          << "trial " << trial << " after " << removals << " removals";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, PlacementOracleTest,
                         ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0: return std::string("Simulation256");
                             case 1: return std::string("Simulation256Mixed");
                             default: return std::string("Uniform8GpuMachines");
                           }
                         });

class SlowdownLevelTest
    : public ::testing::TestWithParam<std::tuple<const char*, LocalityLevel>> {};

TEST_P(SlowdownLevelTest, SlowdownAtLevelMatchesProfileField) {
  const auto& [name, level] = GetParam();
  const ModelProfile& m = ModelByName(name);
  const double s = SlowdownAtLevel(m, level);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
  // Deeper spreads are never faster.
  if (level != LocalityLevel::kSlot) {
    EXPECT_LE(s, SlowdownAtLevel(m, static_cast<LocalityLevel>(
                                        static_cast<int>(level) - 1)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllLevels, SlowdownLevelTest,
    ::testing::Combine(::testing::Values("VGG16", "VGG19", "AlexNet",
                                         "Inceptionv3", "ResNet50"),
                       ::testing::Values(LocalityLevel::kSlot,
                                         LocalityLevel::kMachine,
                                         LocalityLevel::kRack,
                                         LocalityLevel::kCrossRack)));

}  // namespace
}  // namespace themis
