// The repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--perturb drop|shorten] [--work-dir <dir>] [--trace-out <file>]
//
// Runs one workload through the library's public API, checks its outputs
// against an oracle computed apart from the streaming operators, and
// prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the per-layer metrics of a separate traced run (metrics that do not
// apply to the workload read 0). Lines before it give the per-kind
// operation accounting and notes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"throughput_eps", "elem/s"}, {"slide_p50_ms", "ms"},
    {"slide_p90_ms", "ms"},       {"setup_s", "s"},
    {"peak_rss_mb", "MB"},        {"delivered_tuples", "tuples"},
};

const MetricDef kPerLayer[] = {
    {"model.parse_s", "s"},
    {"model.parse_meps", "Melem/s"},
    {"model.readahead_stall_ms", "ms"},
    {"model.checkpoint_stall_p50_ms", "ms"},
    {"model.checkpoint_mb", "MB"},
    {"model.checkpoint_wait_ms", "ms"},
    {"compile.per_query_ms", "ms"},
    {"core.push_s", "s"},
    {"core.state_mb_peak", "MB"},
    {"core.emitted_per_distinct", "ratio"},
    {"core.solo_s.Q1", "s"},
    {"core.solo_s.Q2", "s"},
    {"core.solo_s.Q3", "s"},
    {"core.solo_s.Q4", "s"},
    {"core.solo_s.Q5", "s"},
    {"core.solo_s.Q6", "s"},
    {"core.solo_s.Q7", "s"},
    {"core.live_ops", "count"},
    {"core.shared_subtrees", "count"},
    {"runtime.ops_per_edge", "ops/edge"},
    {"runtime.skipped_per_edge", "ops/edge"},
    {"runtime.waves_per_edge", "waves/edge"},
    {"sink.drain_s", "s"},
    {"server.subscribe_p50_ms", "ms"},
    {"server.subscribe_p90_ms", "ms"},
    {"server.unsubscribe_p50_ms", "ms"},
    {"server.unsubscribe_p90_ms", "ms"},
    {"server.ingest_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "so-path|so-path-delta|zipf-fanout|snb-serve --seed N "
               "--seconds S --trace 0|1 [--perturb drop|shorten] "
               "[--work-dir DIR] [--trace-out FILE]\n",
               msg);
  return 2;
}

void PrintTally(const char* what, const Tally& t) {
  std::printf("%-12s attempted %llu failed %llu\n", what,
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
}

int Main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--perturb") {
      if (value == "drop") {
        args.perturb = Perturb::kDrop;
      } else if (value == "shorten") {
        args.perturb = Perturb::kShorten;
      } else {
        return Usage("bad --perturb");
      }
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  Report report;
  if (args.workload == "so-path") {
    report = RunSoPath(args, sgq::PathImpl::kSPath);
  } else if (args.workload == "so-path-delta") {
    report = RunSoPath(args, sgq::PathImpl::kDeltaPath);
  } else if (args.workload == "zipf-fanout") {
    report = RunZipfFanout(args);
  } else if (args.workload == "snb-serve") {
    report = RunSnbServe(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  PrintTally("elements", report.elements);
  PrintTally("commands", report.commands);
  PrintTally("checkpoints", report.checkpoints);
  PrintTally("oracle", report.oracle);

  // Every metric prints with the unit declared above; one the workload
  // does not measure (a layer not on its path) reads 0 in the traced run.
  std::map<std::string, double> got;
  for (const auto& [name, value] : report.metrics) got[name] = value.first;
  std::string metrics;
  for (const MetricDef& m : args.trace ? std::vector<MetricDef>(
                                             std::begin(kPerLayer),
                                             std::end(kPerLayer))
                                       : std::vector<MetricDef>(
                                             std::begin(kEndToEnd),
                                             std::end(kEndToEnd))) {
    const auto it = got.find(m.name);
    if (it == got.end() && !args.trace) {
      std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                   m.name);
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name,
                  it == got.end() ? 0.0 : it->second, m.unit);
    metrics += buf;
  }

  const Tally* tallies[] = {&report.elements, &report.commands,
                            &report.checkpoints, &report.oracle};
  unsigned long long attempted = 0, failed = 0;
  for (const Tally* t : tallies) {
    attempted += t->attempted;
    failed += t->failed;
  }
  // `correct` speaks of the outputs that were produced: every checked
  // snapshot matches its oracle and every checkpoint reads back. An
  // element or command that fails is counted in `failed` instead.
  const bool correct = report.oracle.failed == 0 &&
                       report.checkpoints.failed == 0 &&
                       report.oracle.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
