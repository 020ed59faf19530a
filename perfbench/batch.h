// The batch workloads, paper_checks and bdd_reach: a fixed set of the
// paper's checks, each run in a watched child (watchdog.h), round after round.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "watchdog.h"

namespace perfbench {

/// The hand-written answer of an input. Synthesis and blast radius have a
/// set as their answer; they report "holds" when the set matches and
/// "mismatch" otherwise, and count with the proofs.
enum class Answer { kHolds, kViolated };

struct Input {
  std::string name;
  Answer answer = Answer::kHolds;
  /// Attempts per round, each in its own child; the input's time is their
  /// median. Checks that decide in about a second or less take three, so
  /// that one sample's scheduling noise does not move the run.
  int reps = 1;
  /// Runs in the child: checks with `deadline` seconds and reports exactly
  /// one verdict; with `traced` it also reports per-layer values and spans.
  std::function<void(Reporter&, double deadline, bool traced)> check;
  /// Traced run only, in a child of its own before the check: a layer probe
  /// that may stall (BDD encoding) and so needs the watchdog too.
  std::function<void(Reporter&)> probe;
};

struct BatchPlan {
  std::string workload;
  std::vector<Input> inputs;
  double deadline = 1;  // seconds per check, one value for the workload
  double slack = 0.5;   // one value for every check of every workload
  double build_seconds = 0;  // what building `inputs` took in this process
};

/// Builds the inputs of `args.workload` ("paper_checks" or "bdd_reach").
BatchPlan make_batch_plan(const RunArgs& args);

/// Set-up of a batch workload in this process: builds every input, returns
/// the seconds it took.
double batch_setup_seconds(const RunArgs& args);

/// Runs whole rounds over `plan.inputs` (order shuffled by the seed): one,
/// and more while they fit in `args.seconds`; with `args.trace`, one
/// untraced round and one traced round. Without tracing, `setup` (if given)
/// samples the set-up once before each attempt; setup_s is the median of
/// those samples and `plan.build_seconds`.
RunResult run_batch(const BatchPlan& plan, const RunArgs& args, SetupSampler* setup);

}  // namespace perfbench
