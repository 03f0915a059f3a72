// The daemon-fleet workload: an ArbiterServer on loopback inside this
// process (Simulation256, Themis defaults) and kAgents AGENT connections of
// kAppsPerAgent apps each, driven round-robin from this one thread through
// ArbiterClient until every app finished. This loads the auction, `server`
// and `net`, and bypasses Simulator and TraceReader.
//
// Before each drain the same registrations run through an in-process
// ArbiterCore (BeginRound/FinishRound). That reference gives the grant
// digest the fleet must reproduce, and the per-round list of finished apps,
// which tells this loop which connections get an OFFER in each round, so
// it never blocks on a connection the server has nothing to say to.
//
// Any bid-deadline miss, ERROR frame or eviction the fleet sees counts as a
// failed agent-round: there is no retry.
#include <algorithm>
#include <thread>

#include "metrics/collector.h"
#include "net/frame.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/trace_gen.h"

namespace perfbench {

using namespace themis;

namespace {

constexpr int kAgents = 4;
/// A HELLO carries its agent's full app specs in one frame; 96 apps stay
/// under the default 1 MiB line limit, 128 do not.
constexpr int kAppsPerAgent = 96;
/// Drains every untraced run makes; the quality metrics cover exactly these.
constexpr int kQualityDrains = 8;

struct FleetInput {
  std::vector<server::AgentScript> agents;
  long long jobs = 0;
  long long hello_bytes = 0;  // largest HELLO frame, newline included
  LayerTrace trace;           // workload layer: spec generation
};

/// The fleet's app specs, split over the agents. Generated through a
/// TimedReader so the workload layer's share of set-up is measured.
FleetInput MakeInput(std::uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  tc.num_apps = kAgents * kAppsPerAgent;
  FleetInput in;
  TimedReader reader(std::make_unique<GeneratorTraceReader>(tc), &in.trace);
  std::vector<AppSpec> apps;
  AppSpec app;
  while (reader.Next(app)) apps.push_back(std::move(app));
  in.agents.resize(kAgents);
  for (int k = 0; k < kAgents; ++k) {
    in.agents[k].name = "agent-" + std::to_string(k);
    for (int j = 0; j < kAppsPerAgent; ++j) {
      const AppSpec& spec = apps[k * kAppsPerAgent + j];
      in.jobs += static_cast<long long>(spec.jobs.size());
      in.agents[k].apps.push_back(spec);
    }
    in.hello_bytes = std::max<long long>(
        in.hello_bytes,
        static_cast<long long>(
            net::EncodeHello(in.agents[k].name, in.agents[k].apps).size() +
            1));
  }
  return in;
}

/// The in-process ArbiterCore run over the fleet's registrations.
struct Reference {
  net::GrantDigest digest;
  std::vector<std::vector<AppId>> app_ids;      // per agent
  std::vector<std::vector<AppId>> finished;     // per round
  std::vector<bool> auctioned;                  // per round: an auction ran
  double core_s = 0.0;                          // BeginRound + FinishRound
  /// Traced: the workload, core, cluster, placement and auction layers.
  LayerTrace trace;
};

server::ArbiterConfig ArbiterFor(std::uint64_t seed) {
  server::ArbiterConfig config;
  config.seed = seed;
  return config;
}

Reference RunReference(const FleetInput& in, std::uint64_t seed, bool traced,
                       RunReport& report) {
  Reference ref;
  server::ArbiterCore core(ArbiterFor(seed));
  for (const server::AgentScript& agent : in.agents) {
    ref.app_ids.emplace_back();
    for (const AppSpec& app : agent.apps)
      ref.app_ids.back().push_back(core.RegisterApp(app));
  }
  if (traced) ref.trace = in.trace;
  RoundProbe probe;
  const std::size_t apps = core.apps_registered();
  while (core.apps_active() > 0) {
    if (ref.finished.size() >= 100000) {
      report.Check(false, "reference did not drain in 100000 rounds");
      break;
    }
    auto t0 = Clock::now();
    const server::RoundStart start = core.BeginRound();
    ref.core_s += SecondsSince(t0);
    ref.finished.push_back(start.finished);
    ref.auctioned.push_back(false);
    if (!start.have_offer) continue;
    if (traced) {
      std::vector<const AppState*> live;
      for (AppId id = 0; id < apps; ++id) {
        const AppState* app = core.app(id);
        if (app->arrived && !app->finished) live.push_back(app);
      }
      probe.Probe(start.offer, core.cluster().topology(), live, ref.trace);
    }
    t0 = Clock::now();
    const GrantSet grants = core.FinishRound(start.offer);
    const double finish_s = SecondsSince(t0);
    ref.core_s += finish_s;
    ref.auctioned.back() = grants.diagnostics.auction_ran;
    if (traced) {
      ref.trace.AddRound(finish_s, grants.diagnostics);
      ref.trace.leased_gpus_sum += core.cluster().num_allocated();
      ++ref.trace.leased_samples;
    }
  }
  ref.digest = core.digest();
  return ref;
}

/// What one drain of the fleet observed. The outcome's digest is the one
/// the fleet saw; its quality comes from the drained server core.
struct Drain {
  SubRun run;  // busy_s is the rounds phase: first round to last CLOSE
  long long errors = 0;  // ERROR frames the fleet received
  server::ServerStats stats;
  LayerTrace trace;
};

/// Finish-time fairness and efficiency of a drained core, through the same
/// MetricsCollector summaries the simulator reports.
void Summarize(const server::ArbiterCore& core, Outcome& out) {
  MetricsCollector metrics;
  for (AppId id = 0; id < core.apps_registered(); ++id) {
    const AppState& app = *core.app(id);
    if (!app.finished) continue;
    AppRecord record;
    record.app = id;
    record.arrival = app.arrival();
    record.finish = app.finish_time;
    record.ideal_time = app.ideal_time;
    record.attained_service = app.attained_service;
    metrics.RecordAppFinish(record);
    metrics.RecordGpuTime(app.attained_service);
  }
  out.Summarize(metrics);
}

/// One AGENT connection and the apps it still has running.
struct AgentConn {
  server::ArbiterClient client;
  std::vector<AppId> live;
  std::vector<int> declared;  // per live app: max job parallelism
  bool closed = false;
};

/// Drives the fleet through the reference's rounds. Returns an error
/// message, or an empty string when every round went as predicted.
std::string DriveRounds(std::vector<AgentConn>& agents, const Reference& ref,
                        bool traced, Drain& d) {
  std::string err;
  // Next frame of `want` type on agent k; ERROR frames are counted and
  // skipped. In traced mode the frame is re-encoded and its decode timed.
  const auto await = [&](std::size_t k, net::MsgType want,
                         net::WireMessage* msg) -> bool {
    for (;;) {
      const auto t0 = Clock::now();
      if (!agents[k].client.NextMessage(msg, &err)) return false;
      if (traced) {
        d.trace.wait_s += SecondsSince(t0);
        const auto probe_start = Clock::now();
        std::string line;
        if (msg->type == net::MsgType::kOffer)
          line = net::EncodeOffer(msg->offer);
        else if (msg->type == net::MsgType::kGrant)
          line = net::EncodeGrant(msg->grants, msg->finished_apps);
        else if (msg->type == net::MsgType::kClose)
          line = net::EncodeClose(msg->reason);
        else
          line = net::EncodeError(msg->code, msg->detail);
        const auto decode_start = Clock::now();
        static_cast<void>(net::ParseWireMessage(line));
        d.trace.decode_s += SecondsSince(decode_start);
        ++d.trace.decode_calls;
        d.trace.bytes_in += static_cast<long long>(line.size() + 1);
        d.trace.probe_s += SecondsSince(probe_start);
      }
      if (msg->type == net::MsgType::kError) {
        ++d.errors;
        continue;
      }
      if (msg->type == want) return true;
      err = "agent " + std::to_string(k) + ": expected " +
            net::ToString(want) + ", got " + net::ToString(msg->type);
      return false;
    }
  };
  // Encode a frame (timed when tracing) and send it on agent k.
  const auto send = [&](std::size_t k, const auto& encode) -> bool {
    const auto t0 = Clock::now();
    const std::string frame = encode();
    if (traced) {
      d.trace.encode_s += SecondsSince(t0);
      ++d.trace.encode_calls;
      d.trace.bytes_out += static_cast<long long>(frame.size() + 1);
    }
    return agents[k].client.Send(frame, &err);
  };

  net::WireMessage msg;
  for (std::size_t r = 0; r < ref.finished.size(); ++r) {
    const std::uint64_t round_id = r + 1;
    std::vector<std::vector<AppId>> finishing(agents.size());
    for (std::size_t k = 0; k < agents.size(); ++k) {
      AgentConn& a = agents[k];
      for (AppId id : ref.finished[r]) {
        const auto it = std::find(a.live.begin(), a.live.end(), id);
        if (it == a.live.end()) continue;
        a.declared.erase(a.declared.begin() + (it - a.live.begin()));
        a.live.erase(it);
        finishing[k].push_back(id);
      }
    }
    for (std::size_t k = 0; k < agents.size(); ++k) {
      AgentConn& a = agents[k];
      if (a.live.empty()) continue;
      if (!await(k, net::MsgType::kOffer, &msg)) return err;
      if (msg.offer.round_id != round_id)
        return "agent " + std::to_string(k) + ": OFFER for round " +
               std::to_string(msg.offer.round_id) + ", expected " +
               std::to_string(round_id);
      d.run.app_rounds += static_cast<long long>(a.live.size());
      std::vector<net::BidDemand> demands;
      for (std::size_t j = 0; j < a.live.size(); ++j)
        demands.push_back({a.live[j], a.declared[j]});
      if (!send(k, [&] { return net::EncodeBid(round_id, demands); }))
        return err;
    }
    for (std::size_t k = 0; k < agents.size(); ++k) {
      AgentConn& a = agents[k];
      if (a.closed || (a.live.empty() && finishing[k].empty())) continue;
      if (!await(k, net::MsgType::kGrant, &msg)) return err;
      for (const Grant& g : msg.grants.grants)
        d.run.outcome.digest.Add(msg.grants.round_id,
                                 msg.grants.lease_expiry, g);
      std::vector<AppId> got = msg.finished_apps;
      std::sort(got.begin(), got.end());
      std::sort(finishing[k].begin(), finishing[k].end());
      if (got != finishing[k])
        return "agent " + std::to_string(k) + ": round " +
               std::to_string(round_id) +
               " finished apps differ from the reference";
      // A connection whose apps all finished is closed by the server right
      // after this GRANT, so it gets no ACK.
      if (a.live.empty()) {
        if (!await(k, net::MsgType::kClose, &msg)) return err;
        a.closed = true;
      } else if (!send(k,
                       [&] { return net::EncodeAck(msg.grants.round_id); })) {
        return err;
      }
    }
  }
  for (std::size_t k = 0; k < agents.size(); ++k)
    if (!agents[k].closed)
      return "agent " + std::to_string(k) + " still has apps after the "
             "reference drained";
  return {};
}

/// One drain of the fleet. When traced, the drain's server and net layers
/// are added to the reference's trace of the same input.
Drain RunDrain(const FleetInput& in, const Reference& ref, std::uint64_t seed,
               bool traced, RunReport& report) {
  Drain d;
  d.run.jobs = in.jobs;
  if (traced) d.trace = ref.trace;
  server::ServerConfig config;
  config.min_agents = kAgents;
  config.arbiter = ArbiterFor(seed);
  server::ArbiterServer srv(config);
  std::vector<AgentConn> agents(kAgents);

  const auto setup_start = Clock::now();
  std::string err;
  if (!srv.Start(&err)) {
    report.Check(false, "server start: " + err);
    return d;
  }
  int server_rc = -1;
  std::thread server_thread([&srv, &server_rc] {
    try {
      server_rc = srv.Run();
    } catch (const std::exception&) {
      server_rc = -2;
    }
  });
  std::string failure;
  try {
    for (int k = 0; k < kAgents && failure.empty(); ++k) {
      AgentConn& a = agents[k];
      if (!a.client.Connect("127.0.0.1", srv.port(), &err) ||
          !a.client.Hello(in.agents[k].name, in.agents[k].apps, &err)) {
        failure = "agent " + std::to_string(k) + ": " + err;
        break;
      }
      if (a.client.app_ids() != ref.app_ids[k])
        failure = "agent " + std::to_string(k) +
                  ": WELCOME app ids differ from the reference registration";
      a.live = a.client.app_ids();
      for (const AppSpec& app : in.agents[k].apps)
        a.declared.push_back(app.MaxJobParallelism());
    }
    d.run.setup_s = SecondsSince(setup_start);
    const auto rounds_start = Clock::now();
    const double probe_before = d.trace.probe_s;
    if (failure.empty()) failure = DriveRounds(agents, ref, traced, d);
    d.run.busy_s =
        SecondsSince(rounds_start) - (d.trace.probe_s - probe_before);
  } catch (const std::exception& e) {
    failure = e.what();
  }
  if (!failure.empty()) srv.RequestStop();
  for (AgentConn& a : agents) a.client.Close();
  server_thread.join();

  d.stats = srv.stats();
  // Latencies stay in round order while rounds fit the reservoir.
  const std::vector<double>& latency = d.stats.round_latency_ms.items();
  for (std::size_t r = 0; r < latency.size() && r < ref.auctioned.size(); ++r)
    if (ref.auctioned[r]) d.run.round_ms.push_back(latency[r]);
  Summarize(srv.core(), d.run.outcome);
  report.Check(failure.empty(), "fleet: " + failure);
  report.Check(server_rc == 0, "server exited with " +
                                   std::to_string(server_rc));
  report.Check(d.run.outcome.digest == ref.digest,
               "fleet grant digest differs from the in-process reference");
  report.Check(srv.core().digest() == ref.digest,
               "server grant digest differs from the in-process reference");
  report.Check(d.stats.rounds == ref.finished.size(),
               "server ran " + std::to_string(d.stats.rounds) +
                   " rounds, reference " +
                   std::to_string(ref.finished.size()));
  report.Check(srv.core().apps_finished() == srv.core().apps_registered() &&
                   srv.core().apps_registered() ==
                       static_cast<std::size_t>(kAgents * kAppsPerAgent),
               "not every registered app finished");
  const long long failed = static_cast<long long>(
      d.stats.bid_deadline_misses + d.stats.sessions_evicted) + d.errors;
  report.attempted += static_cast<long long>(d.stats.agent_round_serves);
  report.failed += failed;

  if (traced) {
    LayerTrace& t = d.trace;
    t.server_rounds = static_cast<long long>(d.stats.rounds);
    t.server_round_s = d.stats.round_latency_summary.sum() / 1000.0;
    t.server_core_s = ref.core_s;
    t.frames_in = static_cast<long long>(d.stats.frames_in);
    t.frames_out = static_cast<long long>(d.stats.frames_out);
    t.deadline_misses = static_cast<long long>(d.stats.bid_deadline_misses);
    t.protocol_errors = static_cast<long long>(d.stats.protocol_errors);
    t.sessions_evicted = static_cast<long long>(d.stats.sessions_evicted);
    t.hello_bytes = in.hello_bytes;
  }
  return d;
}

FleetInput CheckedInput(std::uint64_t seed, RunReport& report) {
  FleetInput in = MakeInput(seed);
  report.Check(in.hello_bytes <= static_cast<long long>(net::kDefaultMaxLine),
               "HELLO of " + std::to_string(in.hello_bytes) +
                   " bytes exceeds the 1 MiB line limit");
  return in;
}

}  // namespace

RunReport RunFleet(const RunArgs& args) {
  RunReport report;
  const auto start = Clock::now();

  if (!args.trace) {
    std::vector<Drain> drains;
    while (report.failures.empty() &&
           MorePasses(static_cast<int>(drains.size()), kQualityDrains,
                      SecondsSince(start), args.seconds)) {
      const std::uint64_t seed =
          SubSeed(args.seed, static_cast<int>(drains.size()));
      const FleetInput in = CheckedInput(seed, report);
      const Reference ref = RunReference(in, seed, false, report);
      drains.push_back(RunDrain(in, ref, seed, false, report));
    }
    std::vector<SubRun> runs;
    for (const Drain& d : drains) runs.push_back(d.run);
    ReportEndToEnd(runs, kQualityDrains, report);
    return report;
  }

  const std::uint64_t seed = SubSeed(args.seed, 0);
  const FleetInput in = CheckedInput(seed, report);
  const Reference ref = RunReference(in, seed, true, report);
  const Drain base = RunDrain(in, ref, seed, false, report);
  std::vector<std::vector<Metric>> layers;
  while (MorePasses(static_cast<int>(layers.size()), 1, SecondsSince(start),
                    args.seconds) &&
         (layers.empty() || report.failures.empty())) {
    Drain d = RunDrain(in, ref, seed, true, report);
    report.Check(d.run.outcome == base.run.outcome,
                 "traced drain " + std::to_string(layers.size()) +
                     " differs from the untraced drain");
    d.trace.trace_overhead_frac =
        1.0 - d.run.JobsPerSec() / base.run.JobsPerSec();
    layers.push_back(d.trace.Metrics());
  }
  report.metrics = MedianMetrics(layers);
  report.notes.push_back(std::to_string(layers.size()) +
                         " traced drains of input 0");
  return report;
}

}  // namespace perfbench
