// One ARBITER round driven the way Simulator::SchedulingPass and
// server::ArbiterCore::FinishRound drive it, for tests and benches that
// build their worlds by hand: publish the cluster's free pool as an offer,
// run the scheduler against a context carrying a maintained RhoIndex,
// lease the grants through ApplyGrants, and re-classify every granted app.
#pragma once

#include <algorithm>
#include <vector>

#include "core/rho_index.h"
#include "sim/policy.h"

namespace themis::harness {

/// Runs one round over `apps` (ascending AppId, as the front ends keep
/// them) at time `now` with leases of `lease`. `changed` names the apps
/// mutated since `index` last saw them — a test that edits AppState by
/// hand passes `apps` itself — and is re-classified first. Returns the
/// applied GrantSet.
inline GrantSet DriveRound(IRoundScheduler& scheduler, Cluster& cluster,
                           WorkEstimator& estimator, AppList& apps, Rng& rng,
                           RhoIndex& index,
                           const std::vector<AppState*>& changed,
                           Time now = 0.0, Time lease = 20.0) {
  for (AppState* app : changed) index.Update(app);
  const ResourceOffer offer = MakeOffer(/*round_id=*/0, now, lease, cluster);
  SchedulerContext ctx(offer, &cluster, &estimator, &apps, &rng, &index);
  GrantSet grants = scheduler.RunRound(offer, ctx);
  ApplyGrants(grants, cluster);
  for (const Grant& g : grants.grants) {
    const auto it = std::lower_bound(
        apps.begin(), apps.end(), g.app,
        [](const AppState* a, AppId id) { return a->id < id; });
    index.Update(*it);
  }
  return grants;
}

}  // namespace themis::harness
