// The ARBITER behind themis_arbiterd (Sec. 5.1's central resource
// allocator, run as a service instead of inside the simulator).
//
// ArbiterCore is a fixed-interval clock around the ARBITER state it shares
// with the simulator (sim/arbiter_state.h): round k runs at
// k * round_interval_minutes of *virtual* time, independent of wall time.
// Everything a policy reads — job progress, attained service, rho inputs,
// the work estimator and its RNG stream — lives in that state, never with
// the AGENTs (the paper's semi-trusted AGENT model: the ARBITER corrects
// misreported bids anyway, so it keeps the authoritative copy). A BID on
// the wire therefore only signals liveness and declared demand; the auction
// runs against this state. That is what makes daemon-served rounds
// bit-identical to driving the same core in-process: both paths are the
// same BeginRound()/FinishRound() call sequence on the same state, and the
// wire in between carries no float that feeds back into scheduling.
//
// One round is split in two so the daemon can fan out the offer and await
// bids between the halves:
//   BeginRound()  — advance the clock one interval, accrue progress for
//                   lease holders, finish apps whose best model converged
//                   by the boundary, reclaim expired leases, step the
//                   tuners, and publish the ResourceOffer (if there is
//                   anything to offer). No core mutation may happen
//                   between the halves.
//   FinishRound() — run the policy's RunRound over the offer, apply the
//                   grants (binding leases), charge restart overheads to
//                   every job whose gang changed (an intact renewal is
//                   free), and fold the grants into the running GrantDigest.
// The in-process reference calls both back-to-back (RunOneRound).
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster.h"
#include "core/themis_policy.h"
#include "estimator/work_estimator.h"
#include "net/wire.h"
#include "sim/arbiter_state.h"
#include "sim/experiment.h"
#include "sim/state.h"

namespace themis::server {

struct ArbiterConfig {
  ClusterSpec cluster = ClusterSpec::Simulation256();
  PolicyKind policy = PolicyKind::kThemis;
  ThemisConfig themis;
  EstimatorConfig estimator;
  /// GPU lease duration in virtual minutes.
  Time lease_minutes = 20.0;
  /// Virtual minutes between rounds: round k runs at k * interval.
  Time round_interval_minutes = 5.0;
  /// Progress stall charged to a job whenever its gang changes.
  Time restart_overhead_minutes = 0.75;
  std::uint64_t seed = 1234;

  /// Throws std::invalid_argument naming the offending knob.
  void Validate() const;
};

/// The first half of a round: what the daemon fans out.
struct RoundStart {
  std::uint64_t round_id = 0;
  Time time = 0.0;
  /// Apps that finished at this round boundary (their best model reached
  /// the target); their AGENTs get CLOSE-worthy notice in the GRANT frame.
  std::vector<AppId> finished;
  /// True when there is an offer to auction (free GPUs and active apps).
  bool have_offer = false;
  ResourceOffer offer;
};

class ArbiterCore {
 public:
  explicit ArbiterCore(const ArbiterConfig& config);

  /// Register an app at the current virtual time (spec.arrival is
  /// overwritten with now()). Returns its AppId. Registration order is part
  /// of the deterministic contract: daemon and reference must register the
  /// same specs in the same order to produce identical rounds.
  AppId RegisterApp(AppSpec spec);

  /// Evict an app (its AGENT disconnected): kill its jobs, release its
  /// leases. Must not be called between BeginRound and FinishRound.
  void RemoveApp(AppId id);

  RoundStart BeginRound();
  /// `offer` must be the offer BeginRound just published.
  GrantSet FinishRound(const ResourceOffer& offer);

  /// Both halves back-to-back — the in-process reference path. When
  /// `start` is non-null the round's first half is copied out.
  GrantSet RunOneRound(RoundStart* start = nullptr);

  Time now() const { return now_; }
  std::uint64_t rounds_run() const { return passes_; }
  std::size_t apps_registered() const { return state_.num_apps(); }
  std::size_t apps_active() const { return state_.active().size(); }
  std::size_t apps_finished() const { return state_.finished_apps(); }
  const net::GrantDigest& digest() const { return digest_; }
  const Cluster& cluster() const { return state_.cluster(); }
  const AppState* app(AppId id) const { return state_.FindApp(id); }

 private:
  ArbiterConfig config_;
  ArbiterState state_;
  net::GrantDigest digest_;
  Time now_ = 0.0;
  std::uint64_t passes_ = 0;
  bool round_open_ = false;
};

}  // namespace themis::server
