#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "auction/partial_allocation.h"
#include "core/agent.h"
#include "core/themis_policy.h"
#include "perfbench.h"
#include "placement/placement_model.h"
#include "sim/experiment.h"

namespace perfbench {

using namespace themis;

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void LayerTrace::AddRound(double seconds, const RoundDiagnostics& d) {
  ++round_calls;
  round_s += seconds;
  round_us.push_back(seconds * 1e6);
  offered_gpus += d.offered_gpus;
  granted_gpus += d.granted_gpus;
  leftover_gpus += d.leftover_gpus;
  if (d.auction_ran) {
    ++auction_rounds;
    bidders_sum += d.auction_participants;
  }
}

std::vector<Metric> LayerTrace::Metrics() const {
  const double sim_self_s =
      sim_run_s > 0.0 ? sim_run_s - round_s - apply_s - next_s - probe_s : 0.0;
  const double round_max_us =
      round_us.empty() ? 0.0
                       : *std::max_element(round_us.begin(), round_us.end());
  const auto n = [](long long v) { return static_cast<double>(v); };
  return {
      {"sim.run_s", sim_run_s, "s"},
      {"sim.self_s", sim_self_s, "s"},
      {"sim.events", n(sim_events), "count"},
      {"sim.passes", n(sim_passes), "count"},
      {"sim.rounds", n(sim_rounds), "count"},
      {"sim.self_ns_per_event", Ratio(sim_self_s * 1e9, n(sim_events)), "ns"},
      {"sim.peak_live_apps", n(sim_peak_live_apps), "count"},
      {"workload.next_calls", n(next_calls), "count"},
      {"workload.next_s", next_s, "s"},
      {"core.round_calls", n(round_calls), "count"},
      {"core.round_s", round_s, "s"},
      {"core.round_p50_us", Percentile(round_us, 0.5), "us"},
      {"core.round_max_us", round_max_us, "us"},
      {"core.offered_gpus", n(offered_gpus), "count"},
      {"core.granted_gpus", n(granted_gpus), "count"},
      {"core.leftover_gpus", n(leftover_gpus), "count"},
      {"core.grant_ratio", Ratio(n(granted_gpus), n(offered_gpus)), "frac"},
      {"core.auction_rounds", n(auction_rounds), "count"},
      {"core.bidders_mean", Ratio(n(bidders_sum), n(auction_rounds)), "count"},
      {"cluster.apply_s", apply_s, "s"},
      {"cluster.leased_gpus", Ratio(leased_gpus_sum, n(leased_samples)),
       "count"},
      {"placement.pick_calls", n(pick_calls), "count"},
      {"placement.pick_us", Ratio(pick_s * 1e6, n(pick_calls)), "us"},
      {"placement.pool_gpus", Ratio(n(pool_gpus_sum), n(pick_calls)), "count"},
      {"auction.bidprep_us", Ratio(bidprep_s * 1e6, n(probe_rounds)), "us"},
      {"auction.bidders", Ratio(n(bidders), n(probe_rounds)), "count"},
      {"auction.pa_calls", n(pa_calls), "count"},
      {"auction.pa_us", Ratio(pa_s * 1e6, n(pa_calls)), "us"},
      {"auction.pa_exact_frac", Ratio(n(pa_exact), n(pa_calls)), "frac"},
      {"server.rounds", n(server_rounds), "count"},
      {"server.round_s", server_round_s, "s"},
      {"server.core_s", server_core_s, "s"},
      {"server.core_share", Ratio(server_core_s, server_round_s), "frac"},
      {"server.frames_in", n(frames_in), "count"},
      {"server.frames_out", n(frames_out), "count"},
      {"server.deadline_misses", n(deadline_misses), "count"},
      {"server.protocol_errors", n(protocol_errors), "count"},
      {"server.sessions_evicted", n(sessions_evicted), "count"},
      {"net.wait_s", wait_s, "s"},
      {"net.decode_us", Ratio(decode_s * 1e6, n(decode_calls)), "us"},
      {"net.encode_us", Ratio(encode_s * 1e6, n(encode_calls)), "us"},
      {"net.bytes_in", n(bytes_in), "B"},
      {"net.bytes_out", n(bytes_out), "B"},
      {"net.hello_bytes", n(hello_bytes), "B"},
      {"bench.trace_overhead_frac", trace_overhead_frac, "frac"},
  };
}

RoundProbe::RoundProbe() : estimator_(EstimatorConfig{}) {}

void RoundProbe::Probe(const ResourceOffer& offer, const Topology& topo,
                       const std::vector<const AppState*>& apps,
                       LayerTrace& trace) {
  const auto probe_start = Clock::now();
  const ThemisConfig policy;  // the defaults every workload runs with

  // Placement: one 4-GPU gang on the round's real pool.
  auto t0 = Clock::now();
  const std::vector<GpuId> gang = PickBestPlaced(4, offer.gpus, topo);
  trace.pick_s += SecondsSince(t0);
  static_cast<void>(gang);
  ++trace.pick_calls;
  trace.pool_gpus_sum += offer.TotalGpus();

  // Auction: rank the hungry apps worst-rho first (the policy's comparator),
  // bid for the worst 1-f of them, and run PA on those bids.
  Agent agent(&topo, &estimator_, offer.time);
  struct Ranked {
    const AppState* app;
    double rho;
  };
  std::vector<Ranked> ranked;
  for (const AppState* app : apps)
    if (app->UnmetDemand() > 0) ranked.push_back({app, agent.CurrentRho(*app)});
  if (!ranked.empty()) {
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) {
                if (a.rho != b.rho) return a.rho > b.rho;
                if (a.app->ideal_time != b.app->ideal_time)
                  return a.app->ideal_time < b.app->ideal_time;
                return a.app->id < b.app->id;
              });
    const std::size_t take = std::min<std::size_t>(
        ranked.size(),
        static_cast<std::size_t>(std::max(
            1.0, std::ceil((1.0 - policy.fairness_knob) *
                           static_cast<double>(ranked.size())))));
    std::vector<AgentBid> bids(take);
    t0 = Clock::now();
    for (std::size_t i = 0; i < take; ++i)
      bids[i] = agent.PrepareBid(*ranked[i].app, offer.gpus,
                                 policy.max_bid_rows);
    trace.bidprep_s += SecondsSince(t0);
    ++trace.probe_rounds;
    trace.bidders += static_cast<long long>(take);

    std::vector<const BidTable*> tables;
    for (const AgentBid& bid : bids) tables.push_back(&bid.table);
    t0 = Clock::now();
    const PaResult pa =
        PartialAllocation(tables, offer.free_per_machine, policy.pa);
    trace.pa_s += SecondsSince(t0);
    ++trace.pa_calls;
    if (pa.exact) ++trace.pa_exact;
  }
  trace.probe_s += SecondsSince(probe_start);
}

bool TimedReader::Next(AppSpec& out) {
  const auto t0 = Clock::now();
  const bool more = inner_->Next(out);
  trace_->next_s += SecondsSince(t0);
  ++trace_->next_calls;
  return more;
}

void Outcome::Summarize(const MetricsCollector& metrics) {
  max_fairness = metrics.MaxFairness();
  jain = metrics.JainsFairnessIndex();
  avg_act = metrics.AverageCompletionTime();
  gpu_time = metrics.TotalGpuTime();
  rhos = metrics.Rhos();
}

bool Outcome::operator==(const Outcome& other) const {
  return digest == other.digest && max_fairness == other.max_fairness &&
         jain == other.jain && avg_act == other.avg_act &&
         gpu_time == other.gpu_time;
}

void ReportEndToEnd(const std::vector<SubRun>& runs, int quality_runs,
                    RunReport& report) {
  std::vector<double> setup;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SubRun& r = runs[i];
    setup.push_back(r.setup_s);
    char note[160];
    std::snprintf(note, sizeof note,
                  "sub-run %zu: %lld jobs, %lld app-rounds, setup %.3f s, "
                  "busy %.3f s, %zu auction rounds",
                  i, r.jobs, r.app_rounds, r.setup_s, r.busy_s,
                  r.round_ms.size());
    report.notes.push_back(note);
  }

  // Other tenants of the host slow whole stretches of a run, by up to 40%
  // for tens of seconds, and never speed it up. So the timings come from
  // the half of the sub-runs least disturbed: those with the highest
  // app-rounds per second.
  std::vector<const SubRun*> fastest;
  for (const SubRun& r : runs) fastest.push_back(&r);
  std::sort(fastest.begin(), fastest.end(),
            [](const SubRun* a, const SubRun* b) {
              return a->app_rounds * b->busy_s > b->app_rounds * a->busy_s;
            });
  fastest.resize((fastest.size() + 1) / 2);
  double jobs = 0.0, app_rounds = 0.0, busy_s = 0.0;
  std::vector<double> round_ms;
  for (const SubRun* r : fastest) {
    jobs += static_cast<double>(r->jobs);
    app_rounds += static_cast<double>(r->app_rounds);
    busy_s += r->busy_s;
    round_ms.insert(round_ms.end(), r->round_ms.begin(), r->round_ms.end());
  }
  report.notes.push_back(std::to_string(fastest.size()) + " of " +
                         std::to_string(runs.size()) + " sub-runs timed, " +
                         std::to_string(round_ms.size()) +
                         " round latency samples");

  const std::size_t n =
      std::min(runs.size(), static_cast<std::size_t>(quality_runs));
  double max_fairness = 0.0, jain = 0.0, avg_act = 0.0, gpu_time = 0.0;
  std::vector<double> rhos;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = runs[i].outcome;
    max_fairness += o.max_fairness / n;
    jain += o.jain / n;
    avg_act += o.avg_act / n;
    gpu_time += o.gpu_time / n;
    rhos.insert(rhos.end(), o.rhos.begin(), o.rhos.end());
  }
  report.metrics = {
      {"jobs_per_sec", jobs / busy_s, "1/s"},
      {"apps_served_per_sec", app_rounds / busy_s, "1/s"},
      {"round_p50_ms", Percentile(round_ms, 0.5), "ms"},
      {"round_p90_ms", Percentile(round_ms, 0.9), "ms"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"fairness_p99", Percentile(rhos, 0.99), "rho"},
      {"jain_index", jain, "index"},
      {"avg_act_min", avg_act, "min"},
      {"gpu_time_gpu_min", gpu_time, "GPU-min"},
  };
  report.printed.push_back({"max_fairness", max_fairness, "rho"});
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 0.5); }

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<Metric> MedianMetrics(
    const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out = passes.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const std::vector<Metric>& pass : passes)
      values.push_back(pass[m].value);
    out[m].value = Median(std::move(values));
  }
  return out;
}

bool MorePasses(int done, int min_passes, double elapsed, double seconds) {
  if (done < min_passes) return true;
  if (done >= 1000) return false;
  return elapsed + elapsed / done <= seconds;
}

std::uint64_t SubSeed(std::uint64_t seed, int i) {
  return DeriveScenarioSeed(seed, static_cast<std::size_t>(i));
}

}  // namespace perfbench
