#include "core/themis_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "core/rho_index.h"
#include "placement/placement_model.h"

namespace themis {

namespace {

/// Steps 1-2 (Fig. 3): probe for rho, order worst-off first, keep the top
/// 1-f fraction. Only the index's holders are re-probed — ascending id,
/// which is exactly the estimator-call sequence of probing every active
/// app, because gangless apps make no estimator calls. The gangless hungry
/// class sits pre-ordered in the index with last_rho pinned to the
/// kUnboundedRho constant the probe would return. Returns no participants
/// when no app has unmet demand.
std::vector<AppState*> SelectParticipants(const ThemisConfig& config,
                                          RhoIndex& index, const Agent& agent,
                                          int round_threads) {
  // The comparator is a strict total order (ids are unique), so "sorted
  // under it" names one unique permutation — which is what lets a merge of
  // the two classes reproduce a stable_sort of all candidates bit-for-bit.
  const bool short_first = config.short_app_tiebreak;
  const auto worse = [short_first](const AppState* a, const AppState* b) {
    if (a->last_rho != b->last_rho) return a->last_rho > b->last_rho;
    // Sec. 8.3.1 / Fig. 8: "we break ties in favor of shorter apps" — equal
    // (often unbounded) rho goes to the app with the smaller ideal time.
    if (short_first && a->ideal_time != b->ideal_time)
      return a->ideal_time < b->ideal_time;
    return a->id < b->id;  // deterministic final tie-break
  };

  index.SetTiebreak(short_first);
  const std::vector<AppState*>& holders = index.holders();
  // Probe phase: each slot touches only its own app, so the parallel probe
  // stores the exact values the serial ascending loop would.
  ParallelFor(holders.size(), round_threads, [&](std::size_t i) {
    holders[i]->last_rho = agent.CurrentRho(*holders[i]);
  });
  std::vector<AppState*> bounded;
  for (AppState* app : holders)
    if (app->UnmetDemand() > 0) bounded.push_back(app);
  const std::size_t num_candidates = bounded.size() + index.num_unbounded();
  if (num_candidates == 0) return {};
  std::stable_sort(bounded.begin(), bounded.end(), worse);

  // Always at least one app so the round is work conserving.
  const int offer_count = std::max(
      1, static_cast<int>(std::ceil((1.0 - config.fairness_knob) *
                                    static_cast<double>(num_candidates))));
  const std::size_t take =
      std::min<std::size_t>(static_cast<std::size_t>(offer_count),
                            num_candidates);

  // Merge the two sorted classes under the full comparator, stopping at the
  // cut instead of materializing the whole order.
  std::vector<AppState*> participants;
  participants.reserve(take);
  auto ub = index.unbounded_candidates().begin();
  const auto ub_end = index.unbounded_candidates().end();
  std::size_t bi = 0;
  while (participants.size() < take) {
    if (bi < bounded.size() && (ub == ub_end || worse(bounded[bi], *ub)))
      participants.push_back(bounded[bi++]);
    else
      participants.push_back(*ub++);
  }
  return participants;
}

}  // namespace

ThemisPolicy::ThemisPolicy(ThemisConfig config) : config_(config) {}

GrantSet ThemisPolicy::RunRound(const ResourceOffer& offer,
                                SchedulerContext& ctx) {
  if (ctx.rho_index() == nullptr)
    throw std::invalid_argument(
        "ThemisPolicy::RunRound: the context carries no RhoIndex");
  Agent agent(&ctx.topology(), &ctx.estimator(), ctx.now());

  // Thread budget for the round's data-parallel phases (probe, bid prep).
  // They are safe off the main thread whenever the estimator is pure
  // (clairvoyant, curve-fit, or noise-free kNoisy). A noisy estimator draws
  // from its RNG on every probe, so its call *sequence* is part of the
  // contract and the round falls back to the serial loop regardless of the
  // configured budget.
  const int round_threads =
      ctx.estimator().IsPure() ? std::max(1, config_.auction_threads) : 1;

  const std::vector<AppState*> participants =
      SelectParticipants(config_, *ctx.rho_index(), agent, round_threads);
  if (participants.empty()) return ctx.TakeGrants();
  RunAuction(ctx, offer, agent, participants, config_, round_threads);
  // Step 6: leftover allocation (work conserving).
  AllocateLeftovers(ctx, agent, participants);
  return ctx.TakeGrants();
}

void RunAuction(SchedulerContext& ctx, const ResourceOffer& offer,
                const Agent& agent, const std::vector<AppState*>& participants,
                const ThemisConfig& config, int round_threads) {
  // Step 3: collect bids against the offer's resource vector R-> and pool —
  // the protocol inputs, no recount of the cluster's free state.
  const std::vector<int>& offered = offer.free_per_machine;
  const std::vector<GpuId>& free_gpus = offer.gpus;

  // Bids are independent by construction — each AGENT values the same offer
  // against only its own app state — so preparation fans out over the pool.
  // Every worker writes only its pre-sized bids[i] slot, making the merged
  // sequence position-identical to the serial loop at any thread count.
  // Bid prep dominates the round, so grain 1 lets the pool balance the
  // unevenly sized valuation tables.
  std::vector<AgentBid> bids(participants.size());
  ParallelFor(
      participants.size(), round_threads,
      [&](std::size_t i) {
        bids[i] = agent.PrepareBid(*participants[i], free_gpus,
                                   config.max_bid_rows);
      },
      /*grain=*/1);
  // The solver borrows the tables in place — no per-bid copy.
  std::vector<const BidTable*> tables;
  tables.reserve(bids.size());
  for (const AgentBid& bid : bids) tables.push_back(&bid.table);

  // Step 4: partial allocation with hidden payments.
  const PaResult pa = PartialAllocation(tables, offered, config.pa);
  ctx.grants().diagnostics.auction_ran = true;
  ctx.grants().diagnostics.auction_participants =
      static_cast<int>(participants.size());
  ctx.grants().diagnostics.pa_exact = pa.exact;
  ctx.grants().diagnostics.pa_nodes = pa.nodes;
  ctx.grants().diagnostics.pa_log_welfare = pa.log_welfare;

  // Step 5: stage grants. Each winner receives granted[m] GPUs on machine m,
  // preferring the concrete GPUs its own bid row picked. Bids were prepared
  // independently, so two rows may name the same GPU id even though the
  // per-machine *counts* fit the offer; a shared free-set keeps
  // materialization conflict-free.
  std::vector<bool> still_free(ctx.topology().num_gpus(), false);
  for (GpuId g : free_gpus) still_free[g] = true;

  // Per-machine preference buckets, allocated once and reused across
  // winners; only the machines a winner's bid row touched are cleared
  // between iterations, so the per-winner hot path allocates nothing.
  // Within a bucket the bid row's GPU order is preserved and machines are
  // visited ascending by the granted loop — the same visit order the old
  // per-winner std::map produced.
  std::vector<std::vector<GpuId>> preferred(ctx.topology().num_machines());
  std::vector<MachineId> touched;
  touched.reserve(ctx.topology().num_machines());

  for (std::size_t i = 0; i < pa.winners.size(); ++i) {
    const PaWinner& w = pa.winners[i];
    if (w.row == 0) continue;  // zero row: no new allocation this round
    AppState* app = participants[i];

    for (MachineId m : touched) preferred[m].clear();
    touched.clear();
    for (GpuId g : bids[i].row_gpus[w.row]) {
      const MachineId m = ctx.topology().gpu(g).machine;
      if (preferred[m].empty()) touched.push_back(m);
      preferred[m].push_back(g);
    }

    std::vector<GpuId> concrete;
    for (MachineId m = 0; m < static_cast<MachineId>(w.granted.size()); ++m) {
      int need = w.granted[m];
      if (need <= 0) continue;
      auto take = [&](GpuId g) {
        if (need > 0 && still_free[g]) {
          still_free[g] = false;
          concrete.push_back(g);
          --need;
        }
      };
      for (GpuId g : preferred[m]) take(g);
      for (GpuId g : ctx.topology().machine_gpus(m)) {
        if (need == 0) break;
        if (ctx.free_pool().Contains(g)) take(g);
      }
    }
    for (const JobAssignment& a : agent.DistributeToJobs(*app, concrete)) {
      ctx.Grant(*app, app->jobs[a.job_index], a.gpus);
    }
    // GPUs Distribute left unassigned (no whole gang) return to the pool.
    for (GpuId g : concrete)
      if (ctx.free_pool().Contains(g)) still_free[g] = true;
  }
}

namespace {

/// Smallest gang among the app's jobs that still want one (INT_MAX when
/// none does): the app can absorb a leftover gang iff this fits the pool.
int SmallestWantedGang(const AppState& app) {
  int smallest = std::numeric_limits<int>::max();
  for (const JobState& job : app.jobs)
    if (job.UnmetGangs() > 0)
      smallest = std::min(smallest, job.spec.gpus_per_task);
  return smallest;
}

}  // namespace

void AllocateLeftovers(SchedulerContext& ctx, const Agent& agent,
                       const std::vector<AppState*>& participants) {
  if (ctx.free_pool().empty()) return;
  const Topology& topo = ctx.topology();

  // Participant lookups are O(log P) against a sorted id vector instead of
  // an O(P) find per candidate per iteration.
  std::vector<AppId> participant_ids;
  participant_ids.reserve(participants.size());
  for (const AppState* app : participants) participant_ids.push_back(app->id);
  std::sort(participant_ids.begin(), participant_ids.end());
  auto is_participant = [&](const AppState* app) {
    return std::binary_search(participant_ids.begin(), participant_ids.end(),
                              app->id);
  };

  // From here on only this function's grants shrink the pool, so one view,
  // kept in step with each grant, serves every pick.
  PoolView free(ctx.free_pool().ToVector(), topo);

  // An app is anchored when it already holds a GPU on a machine that still
  // has free ones.
  auto is_anchored = [&](const AppState* app) {
    const std::vector<int>& per_machine = ctx.free_per_machine();
    for (const JobState& job : app->jobs)
      for (GpuId g : job.gpus)
        if (per_machine[topo.gpu(g).machine] > 0) return true;
    return false;
  };

  // Two phases: first apps that did not participate in the auction (the
  // paper's rule — they cannot game leftovers), then, purely for work
  // conservation, anyone with unmet demand.
  struct Candidate {
    AppState* app;
    int gang;  // SmallestWantedGang(*app)
  };
  std::vector<Candidate> candidates;
  std::vector<int> anchored;  // indices into candidates
  for (const bool outsiders_only : {true, false}) {
    // Candidates absorb at least one whole gang, in app-list order. Within
    // a phase the pool only shrinks and only the granted app's demand
    // changes, so candidacy only ever drops: the list is built once and
    // filtered in place, and stays the list a full rescan would build.
    candidates.clear();
    for (AppState* app : ctx.apps())
      if (!(outsiders_only && is_participant(app)))
        candidates.push_back({app, SmallestWantedGang(*app)});

    bool progress = true;
    while (progress) {
      progress = false;
      if (free.empty()) return;
      candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                      [&](const Candidate& c) {
                                        return c.gang > free.size();
                                      }),
                       candidates.end());
      if (candidates.empty()) break;

      // Paper: "when many such candidate apps exist for a GPU, one of the
      // apps is picked at random"; prefer apps already placed on machines
      // with free GPUs.
      anchored.clear();
      for (int i = 0; i < static_cast<int>(candidates.size()); ++i)
        if (is_anchored(candidates[i].app)) anchored.push_back(i);
      const int pick_count = anchored.empty()
                                 ? static_cast<int>(candidates.size())
                                 : static_cast<int>(anchored.size());
      const int drawn = ctx.rng().UniformInt(0, pick_count - 1);
      Candidate& chosen = candidates[anchored.empty() ? drawn : anchored[drawn]];
      AppState* app = chosen.app;

      // Give its highest-priority job one gang, placed near its gang.
      for (int j : agent.JobPriorityOrder(*app)) {
        JobState& job = app->jobs[j];
        if (job.UnmetGangs() <= 0) continue;
        const int gang = job.spec.gpus_per_task;
        std::vector<GpuId> picked = PickBestPlacedNear(gang, free, job.gpus);
        if (static_cast<int>(picked.size()) < gang) continue;
        // Respect placement constraints: a gang the job cannot run on
        // (S = 0) would hold the lease without making progress.
        std::vector<GpuId> combined = job.gpus;
        combined.insert(combined.end(), picked.begin(), picked.end());
        combined.resize(combined.size() - combined.size() % gang);
        if (combined.empty() || EffectiveJobRate(job.spec, combined, topo) <= 0.0)
          continue;
        ctx.Grant(*app, job, picked);
        for (GpuId g : picked) free.Remove(g);
        chosen.gang = SmallestWantedGang(*app);  // its demand just fell
        progress = true;
        break;
      }
    }
  }
}

}  // namespace themis
