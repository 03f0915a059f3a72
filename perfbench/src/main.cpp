// perfbench: the ARBITER benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: replay-256-contended (replay.cpp) and daemon-fleet
// (fleet.cpp). --trace 0 measures the end-to-end metrics;
// --trace 1 makes a separate traced run and reports the per-layer metrics.
// Prints one "name value unit" line per metric, then one JSON result line.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

using perfbench::Metric;
using perfbench::RunReport;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload replay-256-contended|"
               "daemon-fleet --seed N --seconds S --trace 0|1\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(const RunReport& report) {
  for (const std::string& note : report.notes)
    std::printf("# %s\n", note.c_str());
  for (const std::vector<Metric>* list : {&report.metrics, &report.printed})
    for (const Metric& m : *list)
      std::printf("%-28s %.17g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  std::printf("%-28s %.17g %s\n", "failed_frac",
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              "frac");
  for (const std::string& f : report.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += report.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (std::isfinite(m.value))
      std::snprintf(value, sizeof value, "%.17g", m.value);
    else
      std::snprintf(value, sizeof value, "null");
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return Usage();
    }
  }
  const bool replay = args.workload == "replay-256-contended";
  if (!(replay || args.workload == "daemon-fleet") || !have_seed ||
      !have_seconds || !have_trace)
    return Usage();

  RunReport report;
  try {
    report = replay ? perfbench::RunReplay(args) : perfbench::RunFleet(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : report.metrics)
    report.Check(std::isfinite(m.value), m.name + " is not finite");
  PrintResult(report);
  return report.failures.empty() ? 0 : 1;
}
