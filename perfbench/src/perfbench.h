// Shared declarations of the ARBITER benchmark: run arguments, the report a
// run prints, the per-layer accumulators of a traced pass, and the two
// probes the traced passes wrap around the program's public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/round.h"
#include "estimator/work_estimator.h"
#include "metrics/collector.h"
#include "net/wire.h"
#include "sim/state.h"
#include "workload/trace_io.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the metrics of its mode plus the output checks.
struct RunReport {
  /// Output checks that failed, one message each; empty means correct.
  std::vector<std::string> failures;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Printed like metrics but not part of the result line.
  std::vector<Metric> printed;
  /// Printed as comment lines.
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Per-layer accumulators of one traced pass. A layer a workload does not
/// exercise stays at zero. `probe_s` is the time spent inside the replay
/// probes; it is excluded from every span and from traced throughput.
struct LayerTrace {
  // sim
  double sim_run_s = 0.0;
  long long sim_events = 0;
  long long sim_passes = 0;
  long long sim_rounds = 0;
  long long sim_peak_live_apps = 0;
  // workload
  long long next_calls = 0;
  double next_s = 0.0;
  // core
  long long round_calls = 0;
  double round_s = 0.0;
  std::vector<double> round_us;
  long long offered_gpus = 0;
  long long granted_gpus = 0;
  long long leftover_gpus = 0;
  long long auction_rounds = 0;
  long long bidders_sum = 0;
  // cluster
  double apply_s = 0.0;
  double leased_gpus_sum = 0.0;
  long long leased_samples = 0;
  // placement (probe)
  long long pick_calls = 0;
  double pick_s = 0.0;
  long long pool_gpus_sum = 0;
  // auction (probe)
  long long probe_rounds = 0;
  double bidprep_s = 0.0;
  long long bidders = 0;
  long long pa_calls = 0;
  double pa_s = 0.0;
  long long pa_exact = 0;
  // server
  long long server_rounds = 0;
  double server_round_s = 0.0;
  double server_core_s = 0.0;
  long long frames_in = 0;
  long long frames_out = 0;
  long long deadline_misses = 0;
  long long protocol_errors = 0;
  long long sessions_evicted = 0;
  // net
  double wait_s = 0.0;
  long long decode_calls = 0;
  double decode_s = 0.0;
  long long encode_calls = 0;
  double encode_s = 0.0;
  long long bytes_in = 0;
  long long bytes_out = 0;
  long long hello_bytes = 0;

  double probe_s = 0.0;
  /// Traced throughput relative to the untraced pass of the same input.
  double trace_overhead_frac = 0.0;

  /// Record one RunRound: its span and the GrantSet's diagnostics.
  void AddRound(double seconds, const themis::RoundDiagnostics& d);
  /// The per-layer metrics, in the order BENCHMARK.json lists them.
  std::vector<Metric> Metrics() const;
};

/// Replays the placement and auction steps of one round on its real offer,
/// timing `PickBestPlaced` for a 4-GPU gang, `Agent::PrepareBid` for the
/// worst-(1-f) apps ranked by `Agent::CurrentRho`, and `PartialAllocation`
/// on those bids. Calls only const or pure functions, with its own
/// clairvoyant estimator, so it cannot change a grant.
class RoundProbe {
 public:
  RoundProbe();
  void Probe(const themis::ResourceOffer& offer, const themis::Topology& topo,
             const std::vector<const themis::AppState*>& apps,
             LayerTrace& trace);

 private:
  themis::WorkEstimator estimator_;
};

/// TraceReader that times every Next call into a LayerTrace.
class TimedReader final : public themis::TraceReader {
 public:
  TimedReader(std::unique_ptr<themis::TraceReader> inner, LayerTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}
  bool Next(themis::AppSpec& out) override;

 private:
  std::unique_ptr<themis::TraceReader> inner_;
  LayerTrace* trace_;
};

/// What a sub-run produced: its grant stream and its schedule quality.
struct Outcome {
  themis::net::GrantDigest digest;
  double max_fairness = 0.0;
  double jain = 0.0;
  double avg_act = 0.0;
  double gpu_time = 0.0;
  std::vector<double> rhos;  // every finished app's finish-time fairness

  void Summarize(const themis::MetricsCollector& metrics);
  /// Same grants and bit-identical quality.
  bool operator==(const Outcome& other) const;
};

/// The end-to-end measurements of one untraced sub-run: one replayed trace
/// or one drain of the fleet.
struct SubRun {
  double setup_s = 0.0;
  /// Wall time of Simulator::Run, or of the daemon's rounds phase, less any
  /// probe time.
  double busy_s = 0.0;
  long long jobs = 0;
  /// Live apps offered a round, summed over rounds.
  long long app_rounds = 0;
  /// Latency of the rounds that ran an auction.
  std::vector<double> round_ms;
  Outcome outcome;

  double JobsPerSec() const { return static_cast<double>(jobs) / busy_s; }
};

/// The end-to-end metrics of an untraced run: throughput and round latency
/// over the faster half of the sub-runs (by app-rounds per second), set-up
/// time the median over all; the schedule quality is computed over the
/// first `quality_runs`, which every run makes, so it is deterministic at a
/// fixed seed.
void ReportEndToEnd(const std::vector<SubRun>& runs, int quality_runs,
                    RunReport& report);

double Median(std::vector<double> xs);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> xs, double p);
double PeakRssMb();
/// Element-wise median of several passes' metric lists (same names, same
/// order), so repeated traced passes report one steady value per metric.
std::vector<Metric> MedianMetrics(const std::vector<std::vector<Metric>>& passes);

/// Whether a run that finished `done` passes after `elapsed` seconds starts
/// another: always until `min_passes`, then while one more pass at the mean
/// pass time so far still fits in `seconds`.
bool MorePasses(int done, int min_passes, double elapsed, double seconds);

/// Sub-run i of a run draws its inputs from this seed.
std::uint64_t SubSeed(std::uint64_t seed, int i);

RunReport RunReplay(const RunArgs& args);
RunReport RunFleet(const RunArgs& args);

}  // namespace perfbench
