// Placement-sensitivity arithmetic (Sec. 5.2).
//
// With ideal placement a job's running time scales linearly with its GPU
// count G: time = serialTime / G. Real scaling is degraded by the slowdown
// factor S(G->) <= 1 determined by the widest topology boundary the GPU set
// spans: time = serialTime / (G * S). This module computes S for a concrete
// GPU set, the paper's 4-level placement *score* (Sec. 8.1 metrics), and
// greedy locality-aware GPU selection used by agents when they turn a
// per-machine allocation vector into concrete GPUs. Selection reads a
// PoolView, one machine-grouped view of a free set that callers build once
// and shrink as they pick, instead of regrouping the set on every pick.
#pragma once

#include <vector>

#include "cluster/cluster.h"
#include "placement/model_profile.h"

namespace themis {

/// Slowdown S in (0,1] for `model` when its job runs on `gpus`.
/// Empty set yields 1.0 (vacuously ideal; callers guard G=0 separately).
double Slowdown(const ModelProfile& model, const std::vector<GpuId>& gpus,
                const Topology& topo);

/// Slowdown looked up by locality level alone.
double SlowdownAtLevel(const ModelProfile& model, LocalityLevel level);

/// The model-independent placement score used in Fig. 7: 1.0 for slot
/// locality, then 0.8 / 0.6 / 0.4 for machine / rack / cross-rack spans.
double PlacementScore(const std::vector<GpuId>& gpus, const Topology& topo);

/// Effective progress rate (serial GPU-minutes consumed per minute) of a job
/// running `gpus.size()` GPUs with the given model:
/// G * S * min(generation speed over the set). Synchronous SGD paces every
/// iteration on the slowest worker, so a mixed-generation gang runs at its
/// minimum speed; on speed-1.0 clusters this is the plain G * S.
double EffectiveRate(const ModelProfile& model, const std::vector<GpuId>& gpus,
                     const Topology& topo);

/// A free GPU set grouped by machine — the one view every placement pick
/// reads. It holds:
///   - the machines with at least one GPU in the set, ascending id;
///   - per machine, its free count and its GPUs in the order they appear in
///     the input set (not necessarily ascending: callers may pass unsorted
///     sets, and the pick order follows the input order within a machine);
///   - per rack, the free total over those machines.
/// Construction is O(|set|) for input grouped by machine (an ascending set
/// always is) and O(|set| log |set|) otherwise; no std::map. Remove() takes
/// a picked GPU out in O(log machines + GPUs per machine), keeping the
/// input order of the rest. A machine whose last GPU is removed stays
/// listed with count 0. A view is plain per-call state: callers running on
/// worker threads build their own.
class PoolView {
 public:
  PoolView(const std::vector<GpuId>& gpus, const Topology& topo);

  const Topology& topology() const { return *topo_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of listed machines (index space of the accessors below).
  int num_groups() const { return static_cast<int>(groups_.size()); }
  MachineId machine(int i) const { return groups_[i].machine; }
  RackId rack(int i) const { return groups_[i].rack; }
  double speed(int i) const { return groups_[i].speed; }
  int count(int i) const { return groups_[i].count; }
  /// The i-th listed machine's free GPUs, input order.
  const GpuId* gpus(int i) const { return gpus_.data() + groups_[i].begin; }

  /// The rack holding the most free GPUs, lowest id on ties. Only
  /// meaningful on a non-empty view.
  RackId fullest_rack() const;

  /// Take `g` out of the set. Throws std::logic_error if `g` is not in it.
  void Remove(GpuId g);

 private:
  struct Group {
    MachineId machine;
    RackId rack;
    double speed;
    int begin;  // offset into gpus_
    int count;  // GPUs still in the set
  };
  struct RackTotal {
    RackId rack;
    int free;
  };

  const Topology* topo_;
  std::vector<Group> groups_;    // ascending machine id
  std::vector<GpuId> gpus_;      // grouped by machine, input order within
  std::vector<RackTotal> racks_;  // ascending rack id
  int size_ = 0;
};

/// Pick `count` GPUs from `pool` greedily maximizing locality: prefer a
/// single machine that fits the whole request (fastest generation, then
/// tightest fit), else fill machine-by-machine from the rack with the most
/// free GPUs (faster machines, then larger groups first). Machines that
/// compare equal are taken in ascending id; GPUs within a machine in the
/// pool's input order. Returns fewer than `count` if not enough free GPUs.
/// Deterministic. Does not modify the pool.
std::vector<GpuId> PickBestPlaced(int count, const PoolView& pool);

/// Same, but anchored: prefer machines where `anchor` GPUs already live,
/// then their racks (used for leftover allocation, Sec. 5.1 step 3, and job
/// growth). An empty anchor is PickBestPlaced.
std::vector<GpuId> PickBestPlacedNear(int count, const PoolView& pool,
                                      const std::vector<GpuId>& anchor);

/// Wrappers over a plain GPU set: build a PoolView of `free` and pick from
/// it. Same result as the PoolView overloads on PoolView(free, topo).
std::vector<GpuId> PickBestPlaced(int count, const std::vector<GpuId>& free,
                                  const Topology& topo);
std::vector<GpuId> PickBestPlacedNear(int count, const std::vector<GpuId>& free,
                                      const std::vector<GpuId>& anchor,
                                      const Topology& topo);

}  // namespace themis
