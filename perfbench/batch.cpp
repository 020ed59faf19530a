#include "batch.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "abs/quotient.h"
#include "bdd/checker.h"
#include "core/checker.h"
#include "core/synth.h"
#include "mdl/compose.h"
#include "mdl/vml.h"
#include "net/failures.h"
#include "net/reachability.h"
#include "obs/trace.h"
#include "opt/optimize.h"
#include "scenarios/lb_ecmp.h"
#include "scenarios/rollout_partition.h"

namespace perfbench {
namespace {

using namespace verdict;

// --- deadlines -------------------------------------------------------------------
//
// One deadline per workload, at least 3x the slowest check measured at the
// seed state (4-core x86 VM, Release build): paper_checks' slowest is the
// fattree8 violation at 10.5s, bdd_reach's the test-topology violation at
// 1.4s. The fattree4/fattree6 BDD checks ignore any deadline while encoding
// and are killed at deadline + slack.
constexpr double kPaperDeadline = 36.0;
constexpr double kBddDeadline = 4.5;
constexpr double kSlack = 0.5;
constexpr double kRunBudget = 150.0;  // seconds of checks in one run, at most
constexpr int kShortReps = 3;  // Input::reps of the checks that decide in ~1s or less

// Fig. 5's model text, as `verdictc examples/models/rollout.vml` checks it:
// a three-node rollout whose `quorum_kept` fails once quorum = 3 and p >= 1.
constexpr const char* kRolloutVml = R"vml(
param p      : 0..2;
param quorum : 1..3;
module rollout {
  var s0 : 0..2;
  var s1 : 0..2;
  var s2 : 0..2;
  init s0 = 0; init s1 = 0; init s2 = 0;
  invar true;
  rule down0 when s0 = 0 & (ite(s1 = 1, 1, 0) + ite(s2 = 1, 1, 0)) < p { s0' = 1; }
  rule down1 when s1 = 0 & (ite(s0 = 1, 1, 0) + ite(s2 = 1, 1, 0)) < p { s1' = 1; }
  rule down2 when s2 = 0 & (ite(s0 = 1, 1, 0) + ite(s1 = 1, 1, 0)) < p { s2' = 1; }
  rule up0 when s0 = 1 { s0' = 2; }
  rule up1 when s1 = 1 { s1' = 2; }
  rule up2 when s2 = 1 { s2' = 2; }
  stutter always;
}
system {
  schedule interleaving;
  ltl quorum_kept "G (ite(rollout.s0 != 1, 1, 0) + ite(rollout.s1 != 1, 1, 0) + ite(rollout.s2 != 1, 1, 0) >= quorum)";
}
)vml";

struct Topology {
  const char* name;
  int fat_tree_k;  // 0: the paper's 5-node test topology
  std::int64_t cut;  // the front end's minimal cut: Fig. 6's failing k
};
constexpr Topology kTopologies[] = {
    {"test", 0, 2}, {"fattree4", 4, 2}, {"fattree6", 6, 3}, {"fattree8", 8, 4}};

// Variable names are fixed ("pb_" and the input's model), not drawn from the
// seed: the engines' run times depend on names (renaming the fattree8 inputs
// moved a proof between 3.7s and 7.4s), so seeded names would make every seed
// a different benchmark.
scenarios::RolloutPartitionScenario make_topology(const Topology& t) {
  scenarios::RolloutPartitionOptions options;
  options.prefix = std::string("pb_") + t.name;
  options.max_k = 8;
  if (t.fat_tree_k == 0) return scenarios::make_test_scenario(options);
  return scenarios::make_fat_tree_scenario(t.fat_tree_k, options);
}

/// Fig. 6's pinning: p = m = 1 and the given failure budget k.
std::shared_ptr<const ts::TransitionSystem> pinned(
    const scenarios::RolloutPartitionScenario& s, std::int64_t k) {
  auto out = std::make_shared<ts::TransitionSystem>(s.system);
  out->add_param_constraint(expr::mk_eq(s.p, expr::int_const(1)));
  out->add_param_constraint(expr::mk_eq(s.k, expr::int_const(k)));
  out->add_param_constraint(expr::mk_eq(s.m, expr::int_const(1)));
  return out;
}

const char* verdict_class(core::Verdict v) {
  if (v == core::Verdict::kHolds) return "holds";
  if (v == core::Verdict::kViolated) return "violated";
  return "undecided";
}

std::uint64_t counter_of(const std::map<std::string, std::uint64_t>& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// A core::check input, exactly as verdictc runs it (default CheckOptions
/// plus the deadline). Traced: standalone opt::optimize and
/// abs::abstract_system calls first, then the full check.
Input core_input(std::string name, Answer answer,
                 std::shared_ptr<const ts::TransitionSystem> system,
                 ltl::Formula property) {
  Input input;
  input.name = std::move(name);
  input.answer = answer;
  input.check = [system, property](Reporter& r, double deadline, bool traced) {
    double opt_s = 0;
    double abs_s = 0;
    const bool invariant = ltl::is_invariant_property(property);
    if (traced) {
      double t0 = now_seconds();
      opt::OptimizeOptions oo;
      oo.slice = invariant;  // core::check slices safety properties only
      const opt::Optimized optimized = opt::optimize(*system, property, oo);
      double t1 = now_seconds();
      opt_s = t1 - t0;
      r.span("opt.optimize", t0, t1);
      r.value("opt.optimize_s", opt_s);
      r.value("opt.vars_removed", static_cast<double>(optimized.vars_removed));
      if (invariant) {  // core::check abstracts invariant properties only
        abs::AbstractionOptions ao;
        ao.deadline = util::Deadline::after_seconds(deadline);
        t0 = now_seconds();
        const auto abstraction = abs::abstract_system(*system, property, ao);
        t1 = now_seconds();
        abs_s = t1 - t0;
        r.span("abs.abstract", t0, t1);
        r.value("abs.abstract_s", abs_s);
      }
      r.value("trace.probes_s", opt_s + abs_s);
    }
    const auto before = obs::counters_snapshot();
    core::CheckOptions options;
    options.deadline = util::Deadline::after_seconds(deadline);
    const double t0 = now_seconds();
    const core::CheckOutcome outcome = core::check(*system, property, options);
    const double t1 = now_seconds();
    std::string error;
    const bool confirmed =
        outcome.violated() &&
        core::confirm_counterexample(*system, property, outcome, &error);
    const double t2 = now_seconds();
    if (traced) {
      const auto delta = counter_delta(before, obs::counters_snapshot());
      r.span("core.check", t0, t1);
      if (outcome.violated()) r.span("core.confirm", t1, t2);
      r.value("core.confirm_s", outcome.violated() ? t2 - t1 : 0);
      r.value("smt.solver_s", outcome.stats.solver_seconds);
      r.value("smt.checks", static_cast<double>(outcome.stats.solver_checks));
      r.value("core.engine_rest_s",
              std::max(0.0, (t1 - t0) - opt_s - abs_s - outcome.stats.solver_seconds));
      for (const char* name : {"abs.vars_collapsed", "abs.cegar_refinements",
                               "abs.spurious_traces", "abs.fallback_concrete",
                               "smt.translate_memo.hit", "smt.translate_memo.miss"})
        r.value(name, static_cast<double>(counter_of(delta, name)));
    }
    r.verdict(verdict_class(outcome.verdict), t2 - t0, confirmed,
              outcome.violated() && !confirmed ? error : core::describe(outcome));
  };
  return input;
}

/// §4.2: safe rollout caps on the test topology with k = m = 1, p in 1..4.
/// Answer: safe {1, 2, 3}, unsafe {4}.
Input synth_input() {
  scenarios::RolloutPartitionOptions options;
  options.prefix = "pb_synth";
  options.max_p = 4;
  const auto s = scenarios::make_test_scenario(options);
  auto system = std::make_shared<ts::TransitionSystem>(s.system);
  system->add_param_constraint(expr::mk_eq(s.k, expr::int_const(1)));
  system->add_param_constraint(expr::mk_eq(s.m, expr::int_const(1)));
  system->add_param_constraint(expr::mk_le(expr::int_const(1), s.p));
  const expr::Expr invariant = ltl::invariant_atom(s.property);
  const expr::Expr p = s.p;

  Input input;
  input.name = "synth_test_p1..4";
  input.answer = Answer::kHolds;
  input.check = [system, invariant, p](Reporter& r, double deadline, bool traced) {
    core::SynthOptions options;
    options.deadline = util::Deadline::after_seconds(deadline);
    options.per_candidate_seconds = deadline;
    const double t0 = now_seconds();
    const core::SynthResult result = core::synthesize_params(*system, invariant, options);
    const double t1 = now_seconds();
    const auto values = [&](const std::vector<ts::State>& states) {
      std::set<std::int64_t> out;
      for (const ts::State& st : states)
        if (const auto v = st.get(p)) out.insert(std::get<std::int64_t>(*v));
      return out;
    };
    const std::set<std::int64_t> safe = values(result.safe);
    const std::set<std::int64_t> unsafe = values(result.unsafe);
    std::string detail = "safe {";
    for (const std::int64_t v : safe) detail += " " + std::to_string(v);
    detail += " } unsafe {";
    for (const std::int64_t v : unsafe) detail += " " + std::to_string(v);
    detail += " }";
    const char* verdict = !result.complete() ? "undecided"
                          : safe == std::set<std::int64_t>{1, 2, 3} &&
                                  unsafe == std::set<std::int64_t>{4}
                              ? "holds"
                              : "mismatch";
    if (traced) {
      r.span("core.synth", t0, t1);
      r.value("core.synth_s", t1 - t0);
    }
    r.verdict(verdict, t1 - t0, false, detail);
  };
  return input;
}

std::vector<Input> paper_inputs() {
  std::vector<Input> inputs;
  for (const Topology& t : kTopologies) {
    const auto s = make_topology(t);
    // Fig. 6: holds for k below the cut, violated at the cut.
    for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}})
      inputs.push_back(core_input(std::string("fig6_") + t.name + "_k" + std::to_string(k),
                                  Answer::kHolds, pinned(s, k), s.property));
    inputs.push_back(core_input(std::string("fig6_") + t.name + "_cut",
                                Answer::kViolated, pinned(s, t.cut), s.property));
    if (t.fat_tree_k <= 6)  // test to fattree6 decide in about a second or less
      for (std::size_t i = inputs.size() - 3; i < inputs.size(); ++i) inputs[i].reps = kShortReps;
  }
  {
    const mdl::VmlModel model = mdl::parse_vml(kRolloutVml);
    inputs.push_back(core_input("fig5_rollout_quorum", Answer::kViolated,
                                std::make_shared<ts::TransitionSystem>(model.system),
                                model.ltl_properties.at("quorum_kept")));
    inputs.back().reps = kShortReps;
  }
  // Case study 2: every LB liveness query has a lasso counterexample.
  {
    const auto smart = scenarios::make_lb_ecmp_scenario(ctrl::LbPolicy::kSmart, "pb_lb_smart");
    const auto system = std::make_shared<ts::TransitionSystem>(smart.system);
    inputs.push_back(core_input("case2_smart_fg_stable", Answer::kViolated, system,
                                smart.fg_stable));
    inputs.push_back(core_input("case2_smart_burst", Answer::kViolated, system,
                                smart.quiet_until_burst_implies_fg));
    const auto reactive = scenarios::make_lb_ecmp_scenario(ctrl::LbPolicy::kReactive, "pb_lb_reactive");
    inputs.push_back(core_input("case2_reactive_stable_fg", Answer::kViolated,
                                std::make_shared<ts::TransitionSystem>(reactive.system),
                                reactive.stable_implies_fg));
  }
  inputs.push_back(synth_input());
  return inputs;
}

/// A bdd::check_invariant_bdd input with default BddOptions. Traced: a
/// SymbolicSystem built on its own first, in its own watched child.
Input bdd_input(std::string name, Answer answer,
                std::shared_ptr<const ts::TransitionSystem> system, ltl::Formula property) {
  Input input;
  input.name = std::move(name);
  input.answer = answer;
  input.probe = [system](Reporter& r) {
    const double t0 = now_seconds();
    const bdd::SymbolicSystem encoded(*system);
    const double t1 = now_seconds();
    r.span("bdd.encode", t0, t1);
    r.verdict("encoded", t1 - t0, false);
  };
  input.check = [system, property](Reporter& r, double deadline, bool traced) {
    const auto before = obs::counters_snapshot();
    bdd::BddOptions options;
    options.deadline = util::Deadline::after_seconds(deadline);
    const double t0 = now_seconds();
    const core::CheckOutcome outcome =
        bdd::check_invariant_bdd(*system, ltl::invariant_atom(property), options);
    const double t1 = now_seconds();
    std::string error;
    const bool confirmed =
        outcome.violated() &&
        core::confirm_counterexample(*system, property, outcome, &error);
    const double t2 = now_seconds();
    if (traced) {
      const auto delta = counter_delta(before, obs::counters_snapshot());
      r.span("bdd.check", t0, t1);
      r.value("bdd.check_s", t1 - t0);
      if (outcome.violated()) r.span("core.confirm", t1, t2);
      r.value("core.confirm_s", outcome.violated() ? t2 - t1 : 0);
      for (const char* name : {"bdd.reorder.runs", "bdd.reorder.swaps",
                               "bdd.reorder.nodes_saved", "bdd.index.hits"})
        r.value(name, static_cast<double>(counter_of(delta, name)));
    }
    r.verdict(verdict_class(outcome.verdict), t2 - t0, confirmed,
              outcome.violated() && !confirmed ? error : core::describe(outcome));
  };
  return input;
}

/// §5 blast radius of "up to k links fail" on the test topology, k = 1 and
/// 2, as examples/risk_assessment.cpp computes it. Answer, by counting: the
/// 5 links with at most k down give 1 state without failures and 6 (k = 1)
/// or 16 (k = 2) with them; one failure strands no service node, two (the
/// front end's two uplinks) strand all four.
Input blast_input() {
  struct Case {
    std::shared_ptr<ts::TransitionSystem> system;
    expr::Expr event;
    std::vector<bdd::MonitoredPredicate> monitored;
  };
  auto cases = std::make_shared<std::vector<Case>>();
  const net::TestTopology tt = net::make_test_topology();
  for (const std::int64_t budget : {std::int64_t{1}, std::int64_t{2}}) {
    net::LinkFailureModel failures = net::make_link_failure_model(
        tt.topo, "pb_risk" + std::to_string(budget), budget);
    const std::vector<mdl::Module> modules{failures.module};
    auto system = std::make_shared<ts::TransitionSystem>(mdl::compose(modules));
    system->add_param_constraint(expr::mk_eq(failures.budget, expr::int_const(budget)));
    const auto reach = net::symbolic_reachability(tt.topo, tt.front_end, failures.link_up, 4);
    std::vector<expr::Expr> down;
    for (const expr::Expr up : failures.link_up) down.push_back(expr::mk_not(up));
    Case c{system, expr::any_of(down), {}};
    for (std::size_t i = 0; i < tt.service_nodes.size(); ++i)
      c.monitored.push_back({"s" + std::to_string(i + 1),
                             expr::mk_not(reach[tt.service_nodes[i]])});
    cases->push_back(std::move(c));
  }
  Input input;
  input.name = "blast_radius_test_k1_k2";
  input.answer = Answer::kHolds;
  input.reps = kShortReps;
  input.check = [cases](Reporter& r, double deadline, bool traced) {
    const std::vector<std::string> none;
    const std::vector<std::string> all{"s1", "s2", "s3", "s4"};
    const double expected_total[] = {6, 16};
    const double t0 = now_seconds();
    bool match = true;
    std::string detail;
    for (std::size_t i = 0; i < cases->size(); ++i) {
      const Case& c = (*cases)[i];
      bdd::BddOptions options;
      options.deadline = util::Deadline::after_seconds(deadline);
      const bdd::BlastRadius radius = bdd::blast_radius(*c.system, c.event, c.monitored, options);
      std::vector<std::string> newly = radius.newly_reachable;
      std::sort(newly.begin(), newly.end());
      match = match && radius.states_without_event == 1 &&
              radius.states_total == expected_total[i] && newly == (i == 0 ? none : all);
      detail += "k=" + std::to_string(i + 1) + ": " +
                std::to_string(static_cast<long>(radius.states_without_event)) + "->" +
                std::to_string(static_cast<long>(radius.states_total)) + " states, " +
                std::to_string(newly.size()) + " newly reachable; ";
    }
    const double t1 = now_seconds();
    if (traced) {
      r.span("bdd.blast_radius", t0, t1);
      r.value("bdd.blast_radius_s", t1 - t0);
    }
    r.verdict(match ? "holds" : "mismatch", t1 - t0, false, detail);
  };
  return input;
}

std::vector<Input> bdd_inputs() {
  std::vector<Input> inputs;
  for (const Topology& t : kTopologies) {
    if (t.fat_tree_k > 6) break;  // test, fattree4, fattree6
    const auto s = make_topology(t);
    inputs.push_back(bdd_input(std::string("bdd_") + t.name + "_k1", Answer::kHolds,
                               pinned(s, 1), s.property));
    inputs.push_back(bdd_input(std::string("bdd_") + t.name + "_cut", Answer::kViolated,
                               pinned(s, t.cut), s.property));
    if (t.fat_tree_k == 0)  // the two that decide, in about a second
      for (std::size_t i = inputs.size() - 2; i < inputs.size(); ++i) inputs[i].reps = kShortReps;
  }
  inputs.push_back(blast_input());
  return inputs;
}

// --- the timed phase ---------------------------------------------------------------

struct Sample {
  std::size_t input = 0;
  double seconds = 0;  // time to verdict; a killed check enters at its wall time
  bool decided = false;
  bool ontime = false;
  bool crashed = false;
  bool killed = false;
};

struct Round {
  std::vector<Sample> samples;
  double wall = 0;  // of the checks: set-up sampling is not part of it
  std::vector<double> setup_samples;
  double killed_s = 0;
  double child_rss_mb = 0;     // every child, killed ones included
  double returned_rss_mb = 0;  // children that returned a verdict
  std::map<std::string, double> values;  // summed per-layer values
};

/// One pass over every input. Nothing runs past `stop_at`: an attempt that
/// would is cut short, or not started, and counts as killed at its limit.
/// With a `setup` sampler, one set-up sample is taken before each attempt,
/// so the samples spread over the same stretch of time as the checks.
Round run_round(const BatchPlan& plan, const std::vector<std::size_t>& order, bool traced,
                double stop_at, std::vector<std::string>& wrong, SpanLog& log,
                int round_index, SetupSampler* setup) {
  Round round;
  const double start = now_seconds();
  double sampling = 0;
  const double limit = plan.deadline + plan.slack;
  std::vector<std::size_t> attempts;
  for (const std::size_t i : order)
    for (int rep = 0; rep < plan.inputs[i].reps; ++rep) attempts.push_back(i);
  for (const std::size_t i : attempts) {
    const Input& input = plan.inputs[i];
    if (setup != nullptr && stop_at - now_seconds() > 0) {
      const double t0 = now_seconds();
      round.setup_samples.push_back(setup->sample());
      sampling += now_seconds() - t0;
    }
    const std::string id = input.name + "#" + std::to_string(round_index);
    const int check_span = traced ? log.open("check", id) : -1;
    const auto absorb = [&](const WatchedRun& run) {
      round.child_rss_mb = std::max(round.child_rss_mb, run.rss_mb);
      for (const auto& [name, value] : run.report.values) round.values[name] += value;
      for (const auto& s : run.report.spans) log.add({s.name, s.start, s.end, check_span, id});
    };
    if (traced && input.probe) {
      const WatchedRun probe =
          run_watched(input.probe, std::min(limit, stop_at - now_seconds()));
      absorb(probe);
      round.values["bdd.encode_s"] +=
          probe.report.has_verdict ? probe.report.seconds : probe.wall;
    }
    // A traced core::check child first runs its standalone opt/abs probes,
    // which are bounded by the deadline too; its limit allows for both.
    const double check_limit = traced && !input.probe ? limit + plan.deadline : limit;
    WatchedRun run;
    if (stop_at - now_seconds() > 0) {
      run = run_watched([&](Reporter& r) { input.check(r, plan.deadline, traced); },
                        std::min(check_limit, stop_at - now_seconds()));
    } else {
      run.killed = true;  // never started: the run is out of time
    }
    if (run.killed) run.wall = std::max(run.wall, check_limit);
    if (traced) {
      absorb(run);
      log.close(check_span);
    }
    Sample sample;
    sample.input = i;
    sample.killed = run.killed;
    sample.crashed = run.crashed;
    const std::string& verdict = run.report.verdict;
    const bool returned = !run.killed && !run.crashed;
    sample.seconds = returned ? run.report.seconds : run.wall;
    sample.ontime = returned && run.wall <= check_limit;
    const std::string expected = input.answer == Answer::kHolds ? "holds" : "violated";
    if (returned && verdict != "undecided") {
      if (verdict != expected) {
        wrong.push_back(input.name + ": expected " + expected + ", got " + verdict + " (" +
                        run.report.detail + ")");
      } else if (verdict == "violated" && !run.report.confirmed) {
        wrong.push_back(input.name + ": counterexample not confirmed (" +
                        run.report.detail + ")");
      } else {
        sample.decided = true;
      }
    }
    if (run.killed) round.killed_s += run.wall;
    if (returned) round.returned_rss_mb = std::max(round.returned_rss_mb, run.rss_mb);
    std::printf("%-28s %-9s %9.4fs%s\n", input.name.c_str(),
                run.killed ? "killed" : run.crashed ? "crashed" : verdict.c_str(),
                sample.seconds, traced ? " (traced)" : "");
    round.samples.push_back(sample);
  }
  round.wall = now_seconds() - start - sampling;
  return round;
}

/// Over the inputs of one answer class, each taken at its median time to
/// verdict: the geometric mean of all of them, and the geometric mean of the
/// slowest third (at least two). The tail averages a few inputs because the
/// single slowest one, a single sample per run, moved by 17-22% (quartile
/// spread) across runs on a shared 4-core VM, the slowest third by 5-11%.
std::pair<double, double> class_times(const BatchPlan& plan,
                                      const std::vector<Sample>& samples, Answer answer) {
  std::map<std::size_t, std::vector<double>> by_input;
  for (const Sample& s : samples)
    if (plan.inputs[s.input].answer == answer) by_input[s.input].push_back(s.seconds);
  std::vector<double> medians;
  for (auto& [input, seconds] : by_input) medians.push_back(median(seconds));
  if (medians.empty()) return {0, 0};
  std::sort(medians.begin(), medians.end());
  const auto slowest = static_cast<std::ptrdiff_t>(
      std::min(medians.size(), std::max<std::size_t>(2, (medians.size() + 2) / 3)));
  return {geomean(medians), geomean({medians.end() - slowest, medians.end()})};
}

}  // namespace

BatchPlan make_batch_plan(const RunArgs& args) {
  BatchPlan plan;
  plan.workload = args.workload;
  plan.slack = kSlack;
  const double t0 = now_seconds();
  if (args.workload == "paper_checks") {
    plan.inputs = paper_inputs();
    plan.deadline = kPaperDeadline;
  } else {
    plan.inputs = bdd_inputs();
    plan.deadline = kBddDeadline;
  }
  plan.build_seconds = now_seconds() - t0;
  return plan;
}

double batch_setup_seconds(const RunArgs& args) { return make_batch_plan(args).build_seconds; }

RunResult run_batch(const BatchPlan& plan, const RunArgs& args, SetupSampler* setup) {
  RunResult result;
  SpanLog log;
  std::mt19937_64 rng(args.seed);
  std::vector<std::size_t> order(plan.inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<Sample> samples;
  std::vector<double> setup_samples{plan.build_seconds};
  double returned_rss_mb = 0;
  const double start = now_seconds();
  // However slow the program under test gets, a run ends in time to report.
  const double stop_at = start + kRunBudget;
  double untraced_wall = 0;
  double checks_wall = 0;
  double elapsed_round = 0;
  Round traced;
  int round_index = 0;
  // Whole rounds only, so every run weighs every input alike: at least one,
  // and another only if it should end within --seconds.
  do {
    std::shuffle(order.begin(), order.end(), rng);
    const double round_start = now_seconds();
    Round round = run_round(plan, order, false, stop_at, result.wrong, log, round_index++,
                            args.trace ? nullptr : setup);
    checks_wall += round.wall;
    elapsed_round = now_seconds() - round_start;
    untraced_wall = round.wall;
    setup_samples.insert(setup_samples.end(), round.setup_samples.begin(),
                         round.setup_samples.end());
    returned_rss_mb = std::max(returned_rss_mb, round.returned_rss_mb);
    samples.insert(samples.end(), round.samples.begin(), round.samples.end());
  } while (!args.trace && now_seconds() - start + elapsed_round <= args.seconds);
  if (args.trace)
    traced = run_round(plan, order, true, stop_at, result.wrong, log, round_index, nullptr);

  std::size_t decided = 0;
  std::size_t ontime = 0;
  for (const Sample& s : samples) {
    decided += s.decided;
    ontime += s.ontime;
    result.failed += s.crashed;
  }
  result.attempted = samples.size();

  if (!args.trace) {
    const auto [prove_geo, prove_tail] = class_times(plan, samples, Answer::kHolds);
    const auto [refute_geo, refute_tail] = class_times(plan, samples, Answer::kViolated);
    const double n = static_cast<double>(samples.size());
    result.metrics = {
        {"throughput_per_s", {n / checks_wall, "1/s"}},
        {"heavy_typical_ms", {prove_geo * 1e3, "ms"}},
        {"heavy_tail_ms", {prove_tail * 1e3, "ms"}},
        {"light_typical_ms", {refute_geo * 1e3, "ms"}},
        {"light_tail_ms", {refute_tail * 1e3, "ms"}},
        {"decided_ratio", {static_cast<double>(decided) / n, "ratio"}},
        {"ontime_ratio", {static_cast<double>(ontime) / n, "ratio"}},
        // A killed child's RSS is wherever its encoding stood at the kill
        // (209 to 331MB across runs for the same check), so it is reported
        // per layer, as bdd.child_peak_rss_mb, and not here.
        {"peak_rss_mb", {std::max(self_rss_mb(), returned_rss_mb), "MB"}},
        {"setup_s", {median(setup_samples), "s"}},
    };
    return result;
  }

  // Traced run: per-layer values of the traced round.
  std::map<std::string, double>& v = traced.values;
  const double hits = v["smt.translate_memo.hit"];
  const double misses = v["smt.translate_memo.miss"];
  Metrics& m = result.metrics;
  const auto s = [&](const char* name) { m[name] = {v[name], "s"}; };
  const auto c = [&](const char* name) { m[name] = {v[name], "count"}; };
  if (plan.workload == "paper_checks") {
    m["scenarios.build_s"] = {plan.build_seconds, "s"};
    for (const char* name : {"opt.optimize_s", "abs.abstract_s", "smt.solver_s",
                             "core.engine_rest_s", "core.confirm_s", "core.synth_s"})
      s(name);
    for (const char* name : {"opt.vars_removed", "abs.vars_collapsed", "abs.cegar_refinements",
                             "abs.spurious_traces", "abs.fallback_concrete", "smt.checks"})
      c(name);
    m["smt.translate_memo_hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0,
                                         "ratio"};
  } else {
    for (const char* name : {"bdd.encode_s", "bdd.check_s", "bdd.blast_radius_s"}) s(name);
    for (const char* name : {"bdd.reorder.runs", "bdd.reorder.swaps",
                             "bdd.reorder.nodes_saved", "bdd.index.hits"})
      c(name);
    std::size_t killed = 0;
    for (const Sample& sample : traced.samples) killed += sample.killed;
    m["bdd.killed"] = {static_cast<double>(killed), "count"};
    m["bdd.child_peak_rss_mb"] = {traced.child_rss_mb, "MB"};
  }
  std::vector<std::pair<std::string, double>> layers;
  for (const char* name : {"opt.optimize_s", "abs.abstract_s", "bdd.encode_s",
                           "bdd.check_s", "bdd.blast_radius_s", "smt.solver_s",
                           "core.engine_rest_s", "core.confirm_s", "core.synth_s"})
    if (v.count(name) != 0) layers.emplace_back(name, v[name]);
  // Only the traced run makes the standalone opt/abs probe calls; a killed
  // check leaves no layer values, so its time is listed on its own.
  layers.emplace_back("(trace probes)", v["trace.probes_s"]);
  layers.emplace_back("(killed checks)", traced.killed_s);
  double attributed = 0;
  for (const auto& [name, seconds] : layers) attributed += seconds;
  print_layer_table(plan.workload, traced.wall, layers);
  m["trace.unattributed_s"] = {traced.wall - attributed, "s"};
  m["trace.overhead_ratio"] = {traced.wall / untraced_wall - 1, "ratio"};
  std::printf("tracing overhead: traced round %.3fs vs untraced round %.3fs (%+.1f%%)\n",
              traced.wall, untraced_wall, 100.0 * (traced.wall / untraced_wall - 1));
  log.write(span_path(args));
  return result;
}

}  // namespace perfbench
