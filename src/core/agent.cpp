#include "core/agent.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "placement/placement_model.h"

namespace themis {
namespace {

/// Usable prefix of a gang: whole task-multiples only.
int UsableGpus(const JobSpec& spec, int held) {
  return held - held % spec.gpus_per_task;
}

/// Progress rate of a job on `gpus`: EffectiveJobRate over the usable
/// prefix, 0 when no whole gang is usable or the usable set violates the
/// job's placement constraint (Sec. 6: S = 0, i.e. infinite rho).
double UsableRate(const JobSpec& spec, const std::vector<GpuId>& gpus,
                  const Topology& topo) {
  const int usable = UsableGpus(spec, static_cast<int>(gpus.size()));
  if (usable <= 0) return 0.0;
  if (usable == static_cast<int>(gpus.size()))
    return EffectiveJobRate(spec, gpus, topo);
  const std::vector<GpuId> used(gpus.begin(), gpus.begin() + usable);
  return EffectiveJobRate(spec, used, topo);
}

/// Would the job make progress on (held + extra)? Allocations it cannot run
/// on are never worth assigning.
bool WouldProgress(const JobSpec& spec, const std::vector<GpuId>& held,
                   const std::vector<GpuId>& extra, const Topology& topo) {
  std::vector<GpuId> combined = held;
  combined.insert(combined.end(), extra.begin(), extra.end());
  return UsableRate(spec, combined, topo) > 0.0;
}

/// Stable sort of `order` by remaining work ascending (indexed like
/// app.jobs) — the job driving the min() in T_SH first.
void SortByRemaining(std::vector<int>& order,
                     const std::vector<Work>& remaining) {
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return remaining[a] < remaining[b]; });
}

}  // namespace

Work Agent::RemainingWork(const AppState& app, int j) const {
  const JobState& job = app.jobs[j];
  return estimator_->RemainingWork(job.spec, job.DoneIterations(),
                                   app.spec.target_loss);
}

std::vector<int> Agent::JobPriorityOrder(const AppState& app) const {
  std::vector<int> order = app.ActiveJobs();
  std::vector<Work> remaining(app.jobs.size(), 0.0);
  for (int j : order) remaining[j] = RemainingWork(app, j);
  SortByRemaining(order, remaining);
  return order;
}

double Agent::RhoFromSharedTime(const AppState& app, double t_sh) const {
  if (!std::isfinite(t_sh)) return kUnboundedRho;
  const double rho = t_sh / app.ideal_time;
  return std::clamp(rho, 1e-9, kUnboundedRho);
}

double Agent::CurrentRho(const AppState& app) const {
  const Time elapsed = std::max(0.0, now_ - app.arrival());
  double t_sh = std::numeric_limits<double>::infinity();
  for (int j = 0; j < static_cast<int>(app.jobs.size()); ++j) {
    const JobState& job = app.jobs[j];
    if (!job.alive || job.finished) continue;
    const double rate = UsableRate(job.spec, job.gpus, *topo_);
    if (rate <= 0.0) continue;
    t_sh = std::min(t_sh, elapsed + RemainingWork(app, j) / rate);
  }
  return RhoFromSharedTime(app, t_sh);
}

std::vector<JobAssignment> Agent::DistributeToJobs(
    const AppState& app, const std::vector<GpuId>& granted) const {
  std::vector<JobAssignment> out;
  // `granted` arrives in materialization order; the view keeps that order
  // within each machine, as the picks expect.
  PoolView pool(granted, *topo_);
  for (int j : JobPriorityOrder(app)) {
    if (pool.empty()) break;
    const JobState& job = app.jobs[j];
    const int gang = job.spec.gpus_per_task;
    int gangs = std::min(job.UnmetGangs(), pool.size() / gang);
    if (gangs <= 0) continue;
    std::vector<GpuId> picked = PickBestPlacedNear(gangs * gang, pool, job.gpus);
    // Trim to whole gangs (PickBestPlacedNear returns what exists).
    const int usable = UsableGpus(job.spec, static_cast<int>(picked.size()));
    picked.resize(usable);
    // Shrink until the combined set satisfies the job's placement
    // constraint; an assignment the job cannot run on is worthless.
    while (!picked.empty() && !WouldProgress(job.spec, job.gpus, picked, *topo_))
      picked.resize(picked.size() - gang);
    if (picked.empty()) continue;
    for (GpuId g : picked) pool.Remove(g);
    out.push_back({j, std::move(picked)});
  }
  return out;
}

AgentBid Agent::PrepareBid(const AppState& app,
                           const std::vector<GpuId>& offered,
                           int max_rows) const {
  AgentBid bid;
  bid.table.app = app.id;
  const int machines = topo_->num_machines();

  // Per-job valuation state, indexed like app.jobs: the rate on the job's
  // hypothetical gang and, when the estimator is pure, its remaining work.
  // A noisy estimator is asked afresh on every T_SH evaluation instead, in
  // the call order the header documents.
  const std::vector<int> active = app.ActiveJobs();
  const bool cache_work = estimator_->IsPure();
  std::vector<double> rate(app.jobs.size(), 0.0);
  std::vector<Work> left(app.jobs.size(), 0.0);
  for (int j : active)
    rate[j] = UsableRate(app.jobs[j].spec, app.jobs[j].gpus, *topo_);
  if (cache_work)
    for (int j : active) left[j] = RemainingWork(app, j);
  const Time elapsed = std::max(0.0, now_ - app.arrival());
  auto shared_running_time = [&] {
    double t_sh = std::numeric_limits<double>::infinity();
    for (int j : active) {
      if (rate[j] <= 0.0) continue;
      const Work w = cache_work ? left[j] : RemainingWork(app, j);
      t_sh = std::min(t_sh, elapsed + w / rate[j]);
    }
    return t_sh;
  };

  const double current_rho = RhoFromSharedTime(app, shared_running_time());
  BidRow zero;
  zero.gpus_per_machine.assign(machines, 0);
  zero.rho = current_rho;
  bid.table.rows.push_back(zero);
  bid.row_gpus.push_back({});

  if (!cache_work)
    for (int j : active) left[j] = RemainingWork(app, j);
  std::vector<int> order = active;
  SortByRemaining(order, left);

  // Build the cumulative gang increments: walk jobs in priority order, each
  // taking one gang at a time from the offered pool, placed near the GPUs
  // already chosen for that job. Increments append to one pick buffer, and
  // a cut is a prefix of it with the T_SH it values at.
  struct Cut {
    std::size_t prefix;
    double t_sh;
  };
  std::vector<Cut> cuts;
  PoolView pool(offered, *topo_);
  std::vector<GpuId> picked_all;
  // A job's hypothetical gang is its held GPUs plus its increments; only
  // jobs that grow get their own copy.
  std::vector<std::vector<GpuId>> grown(app.jobs.size());
  std::vector<GpuId> combined;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int j : order) {
      const JobState& job = app.jobs[j];
      const std::vector<GpuId>& gpus = grown[j].empty() ? job.gpus : grown[j];
      const int gang = job.spec.gpus_per_task;
      const int cap = std::min(job.parallelism_cap, job.spec.MaxParallelism());
      if (static_cast<int>(gpus.size()) + gang > cap) continue;
      if (pool.size() < gang) continue;
      std::vector<GpuId> inc = PickBestPlacedNear(gang, pool, gpus);
      if (static_cast<int>(inc.size()) < gang) continue;
      combined.assign(gpus.begin(), gpus.end());
      combined.insert(combined.end(), inc.begin(), inc.end());
      // Never bid on bundles the job's placement constraint forbids
      // (Sec. 6: their rho would be infinite). The same rate is the job's
      // new T_SH term.
      const double grown_rate = UsableRate(job.spec, combined, *topo_);
      if (grown_rate <= 0.0) continue;
      for (GpuId g : inc) pool.Remove(g);
      grown[j].swap(combined);
      rate[j] = grown_rate;
      picked_all.insert(picked_all.end(), inc.begin(), inc.end());
      cuts.push_back({picked_all.size(), shared_running_time()});
      progress = true;
    }
  }

  if (cuts.empty()) return bid;

  // Keep at most max_rows cuts, evenly spaced and always including the last
  // (largest) bundle.
  std::vector<std::size_t> keep;
  if (static_cast<int>(cuts.size()) <= max_rows) {
    for (std::size_t i = 0; i < cuts.size(); ++i) keep.push_back(i);
  } else {
    for (int r = 0; r < max_rows; ++r)
      keep.push_back((r + 1) * cuts.size() / max_rows - 1);
  }

  for (std::size_t i : keep) {
    const auto prefix_end = picked_all.begin() + cuts[i].prefix;
    BidRow row;
    row.gpus_per_machine.assign(machines, 0);
    for (auto it = picked_all.begin(); it != prefix_end; ++it)
      ++row.gpus_per_machine[topo_->gpu(*it).machine];
    // Monotonicity guard: extra GPUs never value worse than the current rho.
    row.rho = std::min(RhoFromSharedTime(app, cuts[i].t_sh), current_rho);
    bid.table.rows.push_back(std::move(row));
    bid.row_gpus.emplace_back(picked_all.begin(), prefix_end);
  }
  return bid;
}

}  // namespace themis
