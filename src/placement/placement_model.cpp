#include "placement/placement_model.h"

#include <algorithm>
#include <stdexcept>

namespace themis {

double SlowdownAtLevel(const ModelProfile& model, LocalityLevel level) {
  switch (level) {
    case LocalityLevel::kSlot: return model.sensitivity.slot;
    case LocalityLevel::kMachine: return model.sensitivity.machine;
    case LocalityLevel::kRack: return model.sensitivity.rack;
    case LocalityLevel::kCrossRack: return model.sensitivity.cross_rack;
  }
  return 1.0;
}

double Slowdown(const ModelProfile& model, const std::vector<GpuId>& gpus,
                const Topology& topo) {
  if (gpus.empty()) return 1.0;
  return SlowdownAtLevel(model, topo.SpanLevel(gpus));
}

double PlacementScore(const std::vector<GpuId>& gpus, const Topology& topo) {
  if (gpus.empty()) return 1.0;
  switch (topo.SpanLevel(gpus)) {
    case LocalityLevel::kSlot: return 1.0;
    case LocalityLevel::kMachine: return 0.8;
    case LocalityLevel::kRack: return 0.6;
    case LocalityLevel::kCrossRack: return 0.4;
  }
  return 0.4;
}

double EffectiveRate(const ModelProfile& model, const std::vector<GpuId>& gpus,
                     const Topology& topo) {
  if (gpus.empty()) return 0.0;
  // Gangs are synchronous SGD: every iteration barriers on the slowest
  // worker, so a mixed-generation gang runs at its minimum speed — one slow
  // straggler GPU drags the whole gang.
  return static_cast<double>(gpus.size()) * Slowdown(model, gpus, topo) *
         topo.MinSpeed(gpus);
}

PoolView::PoolView(const std::vector<GpuId>& gpus, const Topology& topo)
    : topo_(&topo), gpus_(gpus), size_(static_cast<int>(gpus.size())) {
  // Machine ids are rack-major and each machine's GPU ids are contiguous, so
  // a set whose machines never decrease — any ascending set — is already
  // grouped. Anything else is grouped by a stable sort on machine, which
  // keeps the input order within each machine.
  auto machine_of = [&](GpuId g) { return topo.gpu(g).machine; };
  const bool grouped = std::is_sorted(
      gpus_.begin(), gpus_.end(),
      [&](GpuId a, GpuId b) { return machine_of(a) < machine_of(b); });
  if (!grouped)
    std::stable_sort(gpus_.begin(), gpus_.end(), [&](GpuId a, GpuId b) {
      return machine_of(a) < machine_of(b);
    });
  for (int i = 0; i < size_; ++i) {
    const GpuCoord& c = topo.gpu(gpus_[i]);
    if (groups_.empty() || groups_.back().machine != c.machine)
      groups_.push_back(
          {c.machine, c.rack, topo.machine_speed(c.machine), i, 0});
    ++groups_.back().count;
    if (racks_.empty() || racks_.back().rack != c.rack)
      racks_.push_back({c.rack, 0});
    ++racks_.back().free;
  }
}

RackId PoolView::fullest_rack() const {
  RackId best = 0;
  int best_free = -1;
  for (const RackTotal& r : racks_)
    if (r.free > best_free) {
      best = r.rack;
      best_free = r.free;
    }
  return best;
}

void PoolView::Remove(GpuId g) {
  const GpuCoord& c = topo_->gpu(g);
  auto grp = std::lower_bound(
      groups_.begin(), groups_.end(), c.machine,
      [](const Group& group, MachineId m) { return group.machine < m; });
  if (grp == groups_.end() || grp->machine != c.machine)
    throw std::logic_error("PoolView::Remove: GPU not in set");
  GpuId* first = gpus_.data() + grp->begin;
  GpuId* last = first + grp->count;
  GpuId* pos = std::find(first, last, g);
  if (pos == last) throw std::logic_error("PoolView::Remove: GPU not in set");
  std::copy(pos + 1, last, pos);
  --grp->count;
  auto rack = std::lower_bound(
      racks_.begin(), racks_.end(), c.rack,
      [](const RackTotal& r, RackId id) { return r.rack < id; });
  --rack->free;
  --size_;
}

namespace {

// Append the GPUs of the listed machines `order` (indices into `pool`) to
// `picked` until it holds `count`: faster machines first, then more free
// GPUs, then ascending machine id (list index order is machine id order).
void FillInOrder(const PoolView& pool, std::vector<int>& order, int count,
                 std::vector<GpuId>& picked) {
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (pool.speed(a) != pool.speed(b)) return pool.speed(a) > pool.speed(b);
    if (pool.count(a) != pool.count(b)) return pool.count(a) > pool.count(b);
    return a < b;
  });
  for (int i : order) {
    const GpuId* gpus = pool.gpus(i);
    for (int k = 0; k < pool.count(i); ++k) {
      if (static_cast<int>(picked.size()) == count) return;
      picked.push_back(gpus[k]);
    }
  }
}

// Fill `picked` up to `count` from the pool's machines in locality classes:
// every machine with free GPUs has a class in [0, num_classes) and lower
// classes are taken first, each in FillInOrder's order. A class is only
// sorted when the request reaches it.
template <typename ClassOf>
std::vector<GpuId> FillByClass(const PoolView& pool, int count,
                               int num_classes, ClassOf class_of) {
  std::vector<GpuId> picked;
  picked.reserve(std::min(count, pool.size()));
  std::vector<int> order;
  order.reserve(pool.num_groups());
  for (int cls = 0; cls < num_classes; ++cls) {
    if (static_cast<int>(picked.size()) == count) break;
    order.clear();
    for (int i = 0; i < pool.num_groups(); ++i)
      if (pool.count(i) > 0 && class_of(i) == cls) order.push_back(i);
    FillInOrder(pool, order, count, picked);
  }
  return picked;
}

}  // namespace

std::vector<GpuId> PickBestPlaced(int count, const PoolView& pool) {
  if (count <= 0 || pool.empty()) return {};

  // First preference: a single machine that fits the whole request; among
  // those, the fastest generation first (a whole gang on one machine runs at
  // that machine's speed), then the *tightest* fit to avoid fragmenting big
  // machines. With uniform speeds this is the original tightest-fit rule.
  int best_fit = -1;
  for (int i = 0; i < pool.num_groups(); ++i) {
    if (pool.count(i) < count) continue;
    if (best_fit < 0 || pool.speed(i) > pool.speed(best_fit) ||
        (pool.speed(i) == pool.speed(best_fit) &&
         pool.count(i) < pool.count(best_fit)))
      best_fit = i;
  }
  if (best_fit >= 0)
    return std::vector<GpuId>(pool.gpus(best_fit),
                              pool.gpus(best_fit) + count);

  // Otherwise fill machine-by-machine, largest group first, preferring to
  // stay within the rack that holds the most free GPUs. Faster machines
  // come first at equal locality (no-op on uniform-speed clusters).
  const RackId best_rack = pool.fullest_rack();
  return FillByClass(pool, count, 2,
                     [&](int i) { return pool.rack(i) == best_rack ? 0 : 1; });
}

std::vector<GpuId> PickBestPlacedNear(int count, const PoolView& pool,
                                      const std::vector<GpuId>& anchor) {
  if (count <= 0 || pool.empty()) return {};
  if (anchor.empty()) return PickBestPlaced(count, pool);

  std::vector<MachineId> anchor_machines;
  std::vector<RackId> anchor_racks;
  anchor_machines.reserve(anchor.size());
  anchor_racks.reserve(anchor.size());
  for (GpuId g : anchor) {
    const GpuCoord& c = pool.topology().gpu(g);
    anchor_machines.push_back(c.machine);
    anchor_racks.push_back(c.rack);
  }
  std::sort(anchor_machines.begin(), anchor_machines.end());
  std::sort(anchor_racks.begin(), anchor_racks.end());

  // Same machine as the anchor first, then same rack, then the rest.
  // Locality beats speed (the anchor's generation paces the gang anyway);
  // at equal locality FillInOrder prefers faster machines.
  return FillByClass(pool, count, 3, [&](int i) {
    if (std::binary_search(anchor_machines.begin(), anchor_machines.end(),
                           pool.machine(i)))
      return 0;
    if (std::binary_search(anchor_racks.begin(), anchor_racks.end(),
                           pool.rack(i)))
      return 1;
    return 2;
  });
}

std::vector<GpuId> PickBestPlaced(int count, const std::vector<GpuId>& free,
                                  const Topology& topo) {
  if (count <= 0 || free.empty()) return {};
  return PickBestPlaced(count, PoolView(free, topo));
}

std::vector<GpuId> PickBestPlacedNear(int count, const std::vector<GpuId>& free,
                                      const std::vector<GpuId>& anchor,
                                      const Topology& topo) {
  if (count <= 0 || free.empty()) return {};
  return PickBestPlacedNear(count, PoolView(free, topo), anchor);
}

}  // namespace themis
