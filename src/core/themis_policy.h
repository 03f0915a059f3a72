// The THEMIS ARBITER — Pseudocode 1 of the paper, as one protocol round.
//
// On every round with free GPUs:
//   1. probe all active apps' AGENTs for their current rho,
//   2. offer the round's pool to the worst-off 1-f fraction (the fairness
//      knob f trades finish-time fairness for placement efficiency,
//      Sec. 8.2),
//   3. collect one valuation-table bid per offered app,
//   4. run the Partial Allocation mechanism to pick winning rows and apply
//      hidden payments,
//   5. stage each winner's (scaled) bundle as grants, letting the app's own
//      scheduler spread it over constituent jobs, and
//   6. stage leftover GPUs work-conservingly for apps outside the auction,
//      one gang at a time, preferring machines those apps already occupy
//      (Sec. 5.1 "Leftover Allocation").
// Steps 1-2 read the front end's maintained RhoIndex: only apps holding
// GPUs can have a rho that moved since the last round, so only they are
// re-probed, and the gangless hungry apps — whose rho is the kUnboundedRho
// constant — sit pre-ordered in the index (core/rho_index.h). The cut is
// the one probing and sorting every active app would give.
// The returned GrantSet carries the round's auction diagnostics (offered /
// granted / leftover counts, participant count); applying the leases is the
// caller's job via ApplyGrants.
//
// Heterogeneous generations: the auction prices speed-weighted shares
// without any PA change, because every valuation is a rho and rho is built
// from speed-aware quantities — T_SH uses EffectiveJobRate (G * S *
// min-gang-speed) and T_ID assumes the cluster's fastest generation — so a
// bundle of A100 machines values higher than the same GPU count of K80s,
// and the hidden payments price that difference. The offer's
// machine_speeds vector carries the same information to external bidders.
#pragma once

#include "auction/partial_allocation.h"
#include "core/agent.h"
#include "sim/policy.h"

namespace themis {

struct ThemisConfig {
  /// Fairness knob f in [0, 1]: the free pool is offered to the 1-f fraction
  /// of apps with the worst rho. Paper default 0.8 (Sec. 8.2).
  double fairness_knob = 0.8;
  /// Max non-zero rows per bid table.
  int max_bid_rows = 6;
  /// Ablation switch for the Sec. 8.3.1 / Fig. 8 behaviour: break equal-rho
  /// ties toward apps with smaller ideal running time ("we break ties in
  /// favor of shorter apps"). When false, ties fall back to app id.
  bool short_app_tiebreak = true;
  /// Thread budget for the round's embarrassingly parallel phases — the rho
  /// probe over GPU holders and per-participant bid preparation (each worker
  /// writes only its own app / its own pre-sized bids[i] slot, so results are
  /// bit-identical to the serial loop at any thread count). 0 or 1 = serial;
  /// >= 2 = run on the shared process pool (common/parallel.h). The parallel
  /// path engages only under a pure estimator (WorkEstimator::IsPure:
  /// kClairvoyant, kCurveFit, kNoisy at theta 0); a noisy estimator shares
  /// RNG state whose draw order the serial loop defines, so that mode
  /// silently falls back to serial.
  int auction_threads = 0;
  PaConfig pa;
};

class ThemisPolicy final : public IRoundScheduler {
 public:
  explicit ThemisPolicy(ThemisConfig config = {});

  /// One round of Pseudocode 1. The filter reads the context's maintained
  /// RhoIndex (core/rho_index.h); a context without one throws
  /// std::invalid_argument.
  GrantSet RunRound(const ResourceOffer& offer, SchedulerContext& ctx) override;
  const char* name() const override { return "Themis"; }

 private:
  ThemisConfig config_;
};

/// Stages 3-5 of a Themis round: collect one valuation-table bid per
/// participant against the offer (fanned over `round_threads`, bit-identical
/// at any count), run Partial Allocation with hidden payments, stamp the
/// auction diagnostics, and stage each winner's bundle as grants spread over
/// its jobs. `participants` is the filter's output, worst-off first.
void RunAuction(SchedulerContext& ctx, const ResourceOffer& offer,
                const Agent& agent, const std::vector<AppState*>& participants,
                const ThemisConfig& config, int round_threads);

/// Stage 6 of a Themis round: hand out whatever is still in `ctx`'s pool,
/// one gang at a time to an app drawn with ctx.rng() — apps outside
/// `participants` first, then anyone with unmet demand — preferring apps
/// already placed on machines with free GPUs, each gang placed near the
/// job's existing GPUs. Stops when the pool is empty or no candidate can
/// take a gang.
void AllocateLeftovers(SchedulerContext& ctx, const Agent& agent,
                       const std::vector<AppState*>& participants);

}  // namespace themis
