// The THEMIS AGENT (Sec. 5.2).
//
// An AGENT is co-located with each app's scheduler and mediates between it
// and the ARBITER: it answers rho probes, and when the app is offered
// resources it prepares a bid — a valuation table mapping candidate GPU
// subsets to the app's estimated new finish-time fairness metric. Valuations
// follow the paper's recipe:
//   T_SH = min over alive jobs of (elapsed + W'_j / (G_j * S_j))
//   T_ID = min over jobs of (W_j / G_ideal_j)      (ideal placement, S = 1)
//   rho  = T_SH / T_ID
// where work-left W' comes from the app scheduler's estimator (clairvoyant,
// noisy, or curve-fit — Sec. 8.1 / Fig. 11) and S captures placement
// sensitivity. Apps holding no usable gang report the unbounded-rho cap.
//
// Valuation is incremental. PrepareBid walks cumulative gang increments,
// and an increment changes only the one job that grew, so the agent keeps
// per-job state for the call: each active job's rate G * S on the usable
// prefix of its hypothetical gang (0 when the job makes no progress) and,
// under a pure estimator (WorkEstimator::IsPure), its remaining work W',
// fetched once. Each increment recomputes the grown job's rate only — the
// same rate that decides whether the gang is worth bidding on — and T_SH is
// a min over the cached per-job terms. Cuts are prefixes of one pick
// buffer; only the kept rows materialize their GPUs.
//
// Estimator call sequence. A noisy estimator (kNoisy, theta > 0) draws on
// every RemainingWork call, so its draws are part of the output. PrepareBid
// then makes exactly the calls of the straightforward recomputation:
// CurrentRho's (one per active job with rate > 0, ascending job index),
// then JobPriorityOrder's (one per active job, ascending), then per
// increment one per active job with rate > 0, ascending. Rates are cached in
// every mode; only W' is refetched. tests/agent_oracle.h keeps that
// recomputation as the reference the agent must match bit for bit.
#pragma once

#include <utility>
#include <vector>

#include "auction/bid.h"
#include "estimator/work_estimator.h"
#include "sim/state.h"

namespace themis {

/// A bid plus the concrete GPUs backing each row, so the ARBITER can
/// materialize the (scaled) winning allocation on the same machines the app
/// valued.
struct AgentBid {
  BidTable table;
  /// row_gpus[r] = concrete GPU ids the agent picked for row r.
  std::vector<std::vector<GpuId>> row_gpus;
};

/// One job's share of an app-level grant.
struct JobAssignment {
  int job_index = -1;
  std::vector<GpuId> gpus;
};

class Agent {
 public:
  Agent(const Topology* topo, WorkEstimator* estimator, Time now)
      : topo_(topo), estimator_(estimator), now_(now) {}

  /// rho with the app's current allocation (ARBITER probe, step 1 of Fig. 3).
  double CurrentRho(const AppState& app) const;

  /// Build the valuation table for an offer (step 3 of Fig. 3). Rows are
  /// cumulative task-gang bundles in the app's own greedy priority order,
  /// placed as well as the offered pool allows; row 0 is the zero allocation
  /// at the current rho. At most `max_rows` non-zero rows.
  AgentBid PrepareBid(const AppState& app, const std::vector<GpuId>& offered,
                      int max_rows = 6) const;

  /// Greedy app-internal distribution of granted GPUs to jobs in whole gangs
  /// (Sec. 5.2 step 4: "GPUs are assigned to jobs in a placement sensitive
  /// manner"). GPUs that do not fill a gang are left unassigned.
  std::vector<JobAssignment> DistributeToJobs(
      const AppState& app, const std::vector<GpuId>& granted) const;

  /// Jobs ordered by estimated remaining work ascending — the job driving
  /// the min() in T_SH first.
  std::vector<int> JobPriorityOrder(const AppState& app) const;

 private:
  /// W' of app.jobs[j] from the estimator (one draw when noisy).
  Work RemainingWork(const AppState& app, int j) const;
  double RhoFromSharedTime(const AppState& app, double t_sh) const;

  const Topology* topo_;
  WorkEstimator* estimator_;
  Time now_;
};

}  // namespace themis
