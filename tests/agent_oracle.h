// Reference for Agent::PrepareBid / Agent::CurrentRho: the original
// valuation, which recomputes T_SH over every job's hypothetical gang on
// every increment and copies the cumulative pick set into every cut. The
// production agent (core/agent.h) keeps per-job rates and remaining work
// instead and must return exactly what these return — same rows, same GPUs,
// bitwise-equal rho — and, under a noisy estimator, make the same
// RemainingWork calls in the same order.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/agent.h"
#include "placement/placement_model.h"

namespace themis::oracle {

inline int UsableGpus(const JobSpec& spec, int held) {
  return held - held % spec.gpus_per_task;
}

inline bool WouldProgress(const JobSpec& spec, const std::vector<GpuId>& held,
                          const std::vector<GpuId>& extra,
                          const Topology& topo) {
  std::vector<GpuId> combined = held;
  combined.insert(combined.end(), extra.begin(), extra.end());
  const int usable = UsableGpus(spec, static_cast<int>(combined.size()));
  if (usable <= 0) return false;
  combined.resize(usable);
  return EffectiveJobRate(spec, combined, topo) > 0.0;
}

/// The agent's inputs: the topology, the estimator and the probe instant.
struct AgentRef {
  const Topology* topo_;
  WorkEstimator* estimator_;
  Time now_;

  std::vector<int> JobPriorityOrder(const AppState& app) const {
    std::vector<int> order = app.ActiveJobs();
    std::vector<double> remaining(app.jobs.size(), 0.0);
    for (int j : order)
      remaining[j] = estimator_->RemainingWork(
          app.jobs[j].spec, app.jobs[j].DoneIterations(),
          app.spec.target_loss);
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return remaining[a] < remaining[b]; });
    return order;
  }

  double SharedRunningTime(const AppState& app,
                           const std::vector<std::vector<GpuId>>& gpus) const {
    const Time elapsed = std::max(0.0, now_ - app.arrival());
    double best = std::numeric_limits<double>::infinity();
    for (int j : app.ActiveJobs()) {
      const JobState& job = app.jobs[j];
      const int usable =
          UsableGpus(job.spec, static_cast<int>(gpus[j].size()));
      if (usable <= 0) continue;
      std::vector<GpuId> used(gpus[j].begin(), gpus[j].begin() + usable);
      const double rate = EffectiveJobRate(job.spec, used, *topo_);
      if (rate <= 0.0) continue;
      const Work left = estimator_->RemainingWork(
          job.spec, job.DoneIterations(), app.spec.target_loss);
      best = std::min(best, elapsed + left / rate);
    }
    return best;
  }

  double RhoFromSharedTime(const AppState& app, double t_sh) const {
    if (!std::isfinite(t_sh)) return kUnboundedRho;
    const double rho = t_sh / app.ideal_time;
    return std::clamp(rho, 1e-9, kUnboundedRho);
  }

  double CurrentRho(const AppState& app) const {
    std::vector<std::vector<GpuId>> gpus(app.jobs.size());
    for (std::size_t j = 0; j < app.jobs.size(); ++j)
      gpus[j] = app.jobs[j].gpus;
    return RhoFromSharedTime(app, SharedRunningTime(app, gpus));
  }

  AgentBid PrepareBid(const AppState& app, const std::vector<GpuId>& offered,
                      int max_rows = 6) const {
    AgentBid bid;
    bid.table.app = app.id;
    const int machines = topo_->num_machines();

    auto row_vector = [&](const std::vector<GpuId>& gpus) {
      std::vector<int> v(machines, 0);
      for (GpuId g : gpus) ++v[topo_->gpu(g).machine];
      return v;
    };

    const double current_rho = CurrentRho(app);
    BidRow zero;
    zero.gpus_per_machine.assign(machines, 0);
    zero.rho = current_rho;
    bid.table.rows.push_back(zero);
    bid.row_gpus.push_back({});

    struct Cut {
      std::vector<GpuId> gpus;  // cumulative picked set
      double rho;
    };
    std::vector<Cut> cuts;
    PoolView pool(offered, *topo_);
    std::vector<GpuId> picked_all;
    std::vector<std::vector<GpuId>> hypothetical(app.jobs.size());
    for (std::size_t j = 0; j < app.jobs.size(); ++j)
      hypothetical[j] = app.jobs[j].gpus;

    const std::vector<int> order = JobPriorityOrder(app);
    bool progress = true;
    while (progress) {
      progress = false;
      for (int j : order) {
        const JobState& job = app.jobs[j];
        const int gang = job.spec.gpus_per_task;
        const int cap =
            std::min(job.parallelism_cap, job.spec.MaxParallelism());
        const int held = static_cast<int>(hypothetical[j].size());
        if (held + gang > cap) continue;
        if (pool.size() < gang) continue;
        std::vector<GpuId> inc =
            PickBestPlacedNear(gang, pool, hypothetical[j]);
        if (static_cast<int>(inc.size()) < gang) continue;
        if (!WouldProgress(job.spec, hypothetical[j], inc, *topo_)) continue;
        for (GpuId g : inc) pool.Remove(g);
        hypothetical[j].insert(hypothetical[j].end(), inc.begin(), inc.end());
        picked_all.insert(picked_all.end(), inc.begin(), inc.end());
        cuts.push_back({picked_all, SharedRunningTime(app, hypothetical)});
        progress = true;
      }
    }

    if (cuts.empty()) return bid;

    std::vector<std::size_t> keep;
    if (static_cast<int>(cuts.size()) <= max_rows) {
      for (std::size_t i = 0; i < cuts.size(); ++i) keep.push_back(i);
    } else {
      for (int r = 0; r < max_rows; ++r)
        keep.push_back((r + 1) * cuts.size() / max_rows - 1);
    }

    for (std::size_t i : keep) {
      BidRow row;
      row.gpus_per_machine = row_vector(cuts[i].gpus);
      row.rho = RhoFromSharedTime(app, cuts[i].rho);
      row.rho = std::min(row.rho, current_rho);
      bid.table.rows.push_back(std::move(row));
      bid.row_gpus.push_back(cuts[i].gpus);
    }
    return bid;
  }
};

}  // namespace themis::oracle
