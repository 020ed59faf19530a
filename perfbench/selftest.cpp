// The benchmark's own tests: the watchdog kills a check that sleeps past its
// deadline and counts it, a wrong or unconfirmed verdict fails the run, and
// set-up samples start from a fresh process.
//
//   python3 perfbench/run.py --selftest
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>

#include "batch.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

Input fixed(std::string name, Answer answer, std::string verdict, bool confirmed) {
  Input input;
  input.name = std::move(name);
  input.answer = answer;
  input.check = [verdict, confirmed](Reporter& r, double, bool) {
    r.verdict(verdict, 0.001, confirmed, "planted");
  };
  return input;
}

BatchPlan plan_of(std::vector<Input> inputs) {
  BatchPlan plan;
  plan.workload = "selftest";
  plan.inputs = std::move(inputs);
  plan.deadline = 0.3;
  plan.slack = 0.2;
  return plan;
}

RunArgs one_round() {
  RunArgs args;
  args.workload = "selftest";
  args.seconds = 0;  // a single round
  return args;
}

double metric(const RunResult& r, const char* name) { return r.metrics.at(name).value; }

void sleeper_is_killed_and_counted() {
  Input sleeper;
  sleeper.name = "sleeper";
  sleeper.answer = Answer::kHolds;
  sleeper.check = [](Reporter& r, double, bool) {
    sleep(30);  // ignores its deadline, like an unabortable sift
    r.verdict("holds", 30, false);
  };
  const double start = now_seconds();
  const RunResult r = run_batch(
      plan_of({sleeper, fixed("quick", Answer::kHolds, "holds", false)}), one_round(), nullptr);
  const double wall = now_seconds() - start;
  expect(wall < 2.0, "a sleeping check is killed at deadline + slack (run took " +
                         std::to_string(wall) + "s)");
  expect(r.attempted == 2, "the killed check counts as attempted");
  expect(metric(r, "decided_ratio") == 0.5, "the killed check counts as undecided");
  expect(metric(r, "ontime_ratio") == 0.5, "the killed check counts as late");
  // Geomean of 1ms and the ~500ms kill: 1ms if the killed check were dropped.
  expect(metric(r, "heavy_typical_ms") > 20, "the killed check enters its class at its wall time");
  expect(r.wrong.empty(), "a killed check is not a wrong verdict");
}

void planted_wrong_answer_fails() {
  const RunResult r = run_batch(
      plan_of({fixed("right", Answer::kViolated, "violated", true),
               fixed("planted_wrong", Answer::kHolds, "violated", true),
               fixed("planted_unconfirmed", Answer::kViolated, "violated", false),
               fixed("planted_mismatch", Answer::kHolds, "mismatch", false)}),
      one_round(), nullptr);
  expect(r.wrong.size() == 3, "three planted failures are reported");
  const auto names = [&](const std::string& name) {
    for (const std::string& line : r.wrong)
      if (line.rfind(name + ":", 0) == 0) return true;
    return false;
  };
  expect(names("planted_wrong"), "a wrong verdict names its input");
  expect(names("planted_unconfirmed"), "an unconfirmed counterexample names its input");
  expect(names("planted_mismatch"), "a wrong synthesis or blast-radius set names its input");
  expect(!names("right"), "a right verdict is not reported");
  expect(metric(r, "decided_ratio") == 0.25, "only the right verdict counts as decided");
}

int setups_run = 0;  // in this process: the sampler's children never touch it

void setup_samples_start_fresh() {
  SetupSampler sampler([] { return static_cast<double>(++setups_run); }, 5);
  ++setups_run;  // a run's own set-up, after the sampler started
  const double first = sampler.sample();
  const double second = sampler.sample();
  expect(first == 1 && second == 1,
         "each set-up sample starts from the state the sampler was made in");
  SetupSampler stalled([] { sleep(30); return 0.0; }, 0.3);
  bool threw = false;
  try {
    (void)stalled.sample();
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "a set-up sample that overruns its limit fails the run");
}

}  // namespace

int main() {
  sleeper_is_killed_and_counted();
  planted_wrong_answer_fails();
  setup_samples_start_fresh();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
