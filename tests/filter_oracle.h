// Reference for ThemisPolicy's filter step (Fig. 3, steps 1-2): the literal
// probe-everything scan. Every active app is probed for rho in ascending id
// order, the hungry ones are stable_sorted worst-off first, and the top 1-f
// fraction is cut. ThemisPolicy reads the maintained RhoIndex instead and
// must pick exactly these participants in exactly this order — and, under
// a noisy estimator, make the same RemainingWork calls in the same order.
// The rest of the round (bid prep, PA, materialization, leftovers) is the
// production code, so whole runs through LiteralFilterPolicy are a
// bit-for-bit reference for runs through ThemisPolicy.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/themis_policy.h"

namespace themis::oracle {

/// A Themis round scheduler whose filter ignores the context's RhoIndex.
/// Serial: the probe and bid prep run on the calling thread.
class LiteralFilterPolicy final : public IRoundScheduler {
 public:
  explicit LiteralFilterPolicy(ThemisConfig config = {}) : config_(config) {}

  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override {
    Agent agent(&ctx.topology(), &ctx.estimator(), ctx.now());
    const bool short_first = config_.short_app_tiebreak;
    const auto worse = [short_first](const AppState* a, const AppState* b) {
      if (a->last_rho != b->last_rho) return a->last_rho > b->last_rho;
      if (short_first && a->ideal_time != b->ideal_time)
        return a->ideal_time < b->ideal_time;
      return a->id < b->id;
    };

    // Literal filter: probe every active app, sort the full candidate set.
    for (AppState* app : ctx.apps()) app->last_rho = agent.CurrentRho(*app);
    std::vector<AppState*> candidates;
    for (AppState* app : ctx.apps())
      if (app->UnmetDemand() > 0) candidates.push_back(app);
    if (candidates.empty()) return ctx.TakeGrants();
    std::stable_sort(candidates.begin(), candidates.end(), worse);
    const int n_offer = std::max(
        1, static_cast<int>(std::ceil((1.0 - config_.fairness_knob) *
                                      static_cast<double>(candidates.size()))));
    const std::vector<AppState*> participants(
        candidates.begin(),
        candidates.begin() +
            std::min<std::size_t>(static_cast<std::size_t>(n_offer),
                                  candidates.size()));

    RunAuction(ctx, offer, agent, participants, config_, /*round_threads=*/1);
    AllocateLeftovers(ctx, agent, participants);
    return ctx.TakeGrants();
  }

  const char* name() const override { return "Themis (literal filter)"; }

 private:
  ThemisConfig config_;
};

}  // namespace themis::oracle
