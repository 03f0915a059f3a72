// The inter-app scheduling context — the state a round scheduler works
// against (Sec. 2.3). ThemisPolicy and the four baseline emulations
// (Gandiva / Tiresias / SLAQ / DRF, Sec. 8 intro) all implement
// IRoundScheduler (core/round.h), the one round API: whenever GPUs are
// reclaimed or apps arrive/finish, the front end (Simulator or
// server::ArbiterCore) publishes a ResourceOffer, builds a context over it
// and its maintained RhoIndex, lets the scheduler stage grants through the
// context, and applies the returned GrantSet through ApplyGrants. The front
// end then applies restart overheads, lease bookkeeping and finish-event
// rescheduling for the (app, job) pairs the GrantSet names.
#pragma once

#include "common/rng.h"
#include "core/round.h"
#include "estimator/work_estimator.h"
#include "sim/state.h"

namespace themis {

class RhoIndex;

/// Staging area for one round. Construction snapshots the offer into a
/// FreePool; every Grant() moves GPUs from the pool onto the job's gang and
/// into the pending GrantSet, so mid-round reads (pool membership,
/// per-machine counts, JobState::gpus) see every grant staged so far without
/// any cluster mutation. One context runs exactly one round.
class SchedulerContext {
 public:
  /// The context adopts the offer's pool and lease terms. `offer` must
  /// snapshot `cluster`'s current free pool. `rho_index` is the front end's
  /// maintained filter index over `apps` (core/rho_index.h); ThemisPolicy
  /// requires it, the baselines never read it and accept null.
  SchedulerContext(const ResourceOffer& offer, Cluster* cluster,
                   WorkEstimator* estimator, AppList* apps, Rng* rng,
                   RhoIndex* rho_index);

  Time now() const { return now_; }
  /// Read-only cluster topology/lease queries. Free-pool state must be read
  /// through free_pool(): the cluster does not see this round's grants until
  /// ApplyGrants runs.
  Cluster& cluster() { return *cluster_; }
  const Topology& topology() const { return cluster_->topology(); }
  WorkEstimator& estimator() { return *estimator_; }
  Time lease_duration() const { return lease_duration_; }
  /// Active apps (arrived, unfinished), ascending AppId order.
  const AppList& apps() const { return *apps_; }
  Rng& rng() { return *rng_; }

  /// The maintained rho index, in sync with every app mutation up to round
  /// start. Policies must not read it after staging grants (grants change
  /// holdings the index has not seen yet).
  RhoIndex* rho_index() const { return rho_index_; }

  /// The offer's pool, shrunk by every grant staged so far. Policies read
  /// this instead of recounting the cluster's free state.
  const FreePool& free_pool() const { return pool_; }

  /// Free GPU count per machine for the GPUs still in the pool. At round
  /// start this equals the offer's resource vector R->.
  const std::vector<int>& free_per_machine() const {
    return pool_.per_machine();
  }

  /// Stage a grant: lease `gpus` to (app, job) until now + lease_duration.
  /// The GPUs must be in the pool; they leave it, the job records them
  /// immediately (the AGENT side of the protocol), and the pending GrantSet
  /// gains one Grant. The cluster is not touched.
  void Grant(AppState& app, JobState& job, const std::vector<GpuId>& gpus);

  /// The pending grant set (e.g. for a policy stamping auction diagnostics).
  GrantSet& grants() { return grants_; }

  /// Finish the round: stamp the pool-level diagnostics (offered / granted /
  /// leftover) and move the GrantSet out. The context is spent afterwards.
  GrantSet TakeGrants();

 private:
  Time now_;
  Cluster* cluster_;
  WorkEstimator* estimator_;
  Time lease_duration_;
  AppList* apps_;
  Rng* rng_;
  RhoIndex* rho_index_;
  FreePool pool_;
  GrantSet grants_;
  int offered_gpus_ = 0;
  int granted_gpus_ = 0;
};

}  // namespace themis
