#include "server/arbiter_core.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace themis::server {

void ArbiterConfig::Validate() const {
  if (!(lease_minutes > 0.0))
    throw std::invalid_argument("ArbiterConfig: lease_minutes must be > 0 (got " +
                                std::to_string(lease_minutes) + ")");
  if (!(round_interval_minutes > 0.0))
    throw std::invalid_argument(
        "ArbiterConfig: round_interval_minutes must be > 0 (got " +
        std::to_string(round_interval_minutes) + ")");
  if (restart_overhead_minutes < 0.0)
    throw std::invalid_argument(
        "ArbiterConfig: restart_overhead_minutes must be >= 0 (got " +
        std::to_string(restart_overhead_minutes) + ")");
  if (themis.auction_threads < 0)
    throw std::invalid_argument(
        "ArbiterConfig: themis.auction_threads must be >= 0 (got " +
        std::to_string(themis.auction_threads) + ")");
}

ArbiterCore::ArbiterCore(const ArbiterConfig& config)
    : config_(config),
      state_(config.cluster, MakePolicy(config.policy, config.themis),
             config.estimator, config.seed, config.lease_minutes,
             config.restart_overhead_minutes) {
  config_.Validate();
}

AppId ArbiterCore::RegisterApp(AppSpec spec) {
  if (round_open_)
    throw std::logic_error("ArbiterCore: RegisterApp inside an open round");
  spec.arrival = now_;
  AppState& app = state_.AddApp(std::move(spec));
  state_.Arrive(app);
  return app.id;
}

void ArbiterCore::RemoveApp(AppId id) {
  if (round_open_)
    throw std::logic_error("ArbiterCore: RemoveApp inside an open round");
  // Evicted, not converged: leases released and out of every index,
  // without counting toward apps_finished().
  if (AppState* app = state_.FindApp(id)) state_.EvictApp(now_, *app);
}

RoundStart ArbiterCore::BeginRound() {
  if (round_open_)
    throw std::logic_error("ArbiterCore: BeginRound with a round open");
  RoundStart start;
  start.round_id = ++passes_;
  const Time last = now_;
  // Multiplication, not accumulation: round k lands at exactly k * interval
  // on every path, so daemon and reference agree to the last bit.
  now_ = static_cast<double>(passes_) * config_.round_interval_minutes;
  start.time = now_;

  state_.Accrue(last, now_, nullptr);

  // Finish detection at the round boundary: the first job of an app to
  // reach the target accuracy is its best model. Ascending-id walk over a
  // snapshot — FinishJob edits the active list.
  const AppList active = state_.active();
  for (AppState* app : active) {
    for (JobState& job : app->jobs) {
      if (!job.Running() || !job.ReachedTarget()) continue;
      state_.FinishJob(now_, *app, job);
      start.finished.push_back(app->id);
      break;
    }
  }

  state_.ReclaimExpired(now_);
  state_.StepTuners(now_);
  start.have_offer = state_.PublishOffer(start.round_id, now_, start.offer);
  round_open_ = start.have_offer;
  return start;
}

GrantSet ArbiterCore::FinishRound(const ResourceOffer& offer) {
  if (!round_open_)
    throw std::logic_error("ArbiterCore: FinishRound without an open offer");
  round_open_ = false;
  GrantSet grants = state_.RunRound(offer);
  state_.ChargeRestarts(now_, grants);
  for (const Grant& g : grants.grants)
    digest_.Add(grants.round_id, grants.lease_expiry, g);
  return grants;
}

GrantSet ArbiterCore::RunOneRound(RoundStart* start) {
  RoundStart s = BeginRound();
  if (start != nullptr) *start = s;
  if (!s.have_offer) return GrantSet{};
  return FinishRound(s.offer);
}

}  // namespace themis::server
