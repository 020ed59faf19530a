// perfbench — the paper-workload benchmark of the verifier.
//
//   perfbench --workload paper_checks|bdd_reach|daemon_push --seed N
//             --seconds S --trace 0|1
//
// Prints progress lines, then, as its last line, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (README.md defines both). Exits 1 on any wrong verdict or
// unconfirmed counterexample, after naming the input.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "batch.h"
#include "common.h"
#include "daemon.h"

namespace {

using perfbench::Metrics;

// One set-up sample may take this long before the run gives up on it.
constexpr double kSetupLimitSeconds = 20;

// Every run reports every metric of its kind; BENCHMARK.json lists the same.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"throughput_per_s", "1/s"}, {"heavy_typical_ms", "ms"}, {"heavy_tail_ms", "ms"},
    {"light_typical_ms", "ms"},  {"light_tail_ms", "ms"},    {"decided_ratio", "ratio"},
    {"ontime_ratio", "ratio"},   {"peak_rss_mb", "MB"},      {"setup_s", "s"},
};

// A layer a workload does not drive reads 0 there.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"scenarios.build_s", "s"},
    {"opt.optimize_s", "s"},
    {"opt.vars_removed", "count"},
    {"abs.abstract_s", "s"},
    {"abs.vars_collapsed", "count"},
    {"abs.cegar_refinements", "count"},
    {"abs.spurious_traces", "count"},
    {"abs.fallback_concrete", "count"},
    {"smt.solver_s", "s"},
    {"smt.checks", "count"},
    {"smt.translate_memo_hit_ratio", "ratio"},
    {"core.engine_rest_s", "s"},
    {"core.confirm_s", "s"},
    {"core.synth_s", "s"},
    {"bdd.encode_s", "s"},
    {"bdd.check_s", "s"},
    {"bdd.reorder.runs", "count"},
    {"bdd.reorder.swaps", "count"},
    {"bdd.reorder.nodes_saved", "count"},
    {"bdd.index.hits", "count"},
    {"bdd.killed", "count"},
    {"bdd.child_peak_rss_mb", "MB"},
    {"bdd.blast_radius_s", "s"},
    {"mdl.parse_s", "s"},
    {"svc.fingerprint_s", "s"},
    {"svc.wait_ms", "ms"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.model_cache_hit_ratio", "ratio"},
    {"svc.batches_per_push", "ratio"},
    {"svc.batch_size_mean", "count"},
    {"inc.reused_per_edit", "ratio"},
    {"inc.invariants_revalidated", "count"},
    {"inc.revalidation_failed", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_s", "s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_checks|bdd_reach|daemon_push --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  const bool batch = args.workload == "paper_checks" || args.workload == "bdd_reach";
  if (argc % 2 != 1 || (!batch && args.workload != "daemon_push")) return usage();

  perfbench::RunResult result;
  try {
    // The set-up sampler forks while this process is still pristine, so no
    // sample is flattered by interning the run's own set-up did.
    if (batch) {
      perfbench::SetupSampler setup(
          [&args] { return perfbench::batch_setup_seconds(args); }, kSetupLimitSeconds);
      const perfbench::BatchPlan plan = perfbench::make_batch_plan(args);
      result = perfbench::run_batch(plan, args, &setup);
    } else {
      perfbench::SetupSampler setup(
          [&args] { return perfbench::daemon_setup_seconds(args); }, kSetupLimitSeconds);
      result = perfbench::run_daemon(args, setup);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }

  // Fill the layers this workload does not drive; insist on the rest.
  Metrics metrics;
  for (const auto& [name, unit] : args.trace ? kPerLayer : kEndToEnd) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end() && !args.trace) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n", args.workload.c_str(), name);
      return 2;
    }
    metrics[name] = it == result.metrics.end() ? perfbench::Metric{0, unit} : it->second;
  }

  for (const std::string& line : result.wrong) std::printf("WRONG: %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += result.wrong.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.wrong.empty() ? 0 : 1;
}
