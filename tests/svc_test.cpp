// The verification-as-a-service subsystem end to end: canonical
// fingerprints, the verdict cache (LRU + cacheability rule + single-flight +
// persistence), the Service scheduler, the Session cache hook, and a real
// in-process Daemon serving concurrent socket clients. The daemon test is
// the suite's TSan workout — it exercises connection threads, the worker
// pool, and the sharded cache simultaneously.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "core/session.h"
#include "expr/expr.h"
#include "ltl/ltl.h"
#include "mdl/vml.h"
#include "obs/trace.h"
#include "scenarios/rollout_partition.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/fingerprint.h"
#include "svc/frame.h"
#include "svc/segment.h"
#include "svc/service.h"
#include "svc/stored_trace.h"
#include "svc/verdict_cache.h"

namespace verdict {
namespace {

using svc::Fingerprint;

// --- Fingerprints ------------------------------------------------------------

ts::TransitionSystem counter_system(const std::string& prefix,
                                    std::int64_t init_value = 0,
                                    std::int64_t limit = 3,
                                    bool swap_order = false) {
  ts::TransitionSystem sys;
  const expr::Expr x = expr::int_var(prefix + ".x", 0, 7);
  const expr::Expr y = expr::int_var(prefix + ".y", 0, 7);
  sys.add_var(x);
  sys.add_var(y);
  const expr::Expr step =
      (x < limit) && (expr::next(x) == x + 1) && (expr::next(y) == y);
  const expr::Expr stay = (expr::next(x) == x) && (expr::next(y) == y);
  if (swap_order) {
    sys.add_init(y == 0);
    sys.add_init(x == init_value);
  } else {
    sys.add_init(x == init_value);
    sys.add_init(y == 0);
  }
  sys.add_trans(step || stay);
  sys.add_invar(x >= 0);
  return sys;
}

TEST(Fingerprint, SameSystemSameKey) {
  const ts::TransitionSystem a = counter_system("fp1");
  const ts::TransitionSystem b = counter_system("fp1");
  EXPECT_EQ(svc::fingerprint(a), svc::fingerprint(b));
}

TEST(Fingerprint, ConstraintOrderDoesNotMatter) {
  const ts::TransitionSystem a = counter_system("fp2");
  const ts::TransitionSystem b = counter_system("fp2", 0, 3, /*swap_order=*/true);
  EXPECT_EQ(svc::fingerprint(a), svc::fingerprint(b));
}

TEST(Fingerprint, CommutativeOperandOrderDoesNotMatter) {
  const expr::Expr x = expr::int_var("fp3.x", 0, 7);
  const expr::Expr y = expr::int_var("fp3.y", 0, 7);
  EXPECT_EQ(svc::fingerprint((x == 1) && (y == 2)),
            svc::fingerprint((y == 2) && (x == 1)));
  EXPECT_EQ(svc::fingerprint(x + y), svc::fingerprint(y + x));
  // Order-sensitive operators must keep position.
  EXPECT_NE(svc::fingerprint(x < y), svc::fingerprint(y < x));
  EXPECT_NE(svc::fingerprint(x / y), svc::fingerprint(y / x));
}

TEST(Fingerprint, EveryModelMutationChangesTheKey) {
  const Fingerprint base = svc::fingerprint(counter_system("fp4"));
  // Different init value.
  EXPECT_NE(base, svc::fingerprint(counter_system("fp4", 1)));
  // Different transition guard.
  EXPECT_NE(base, svc::fingerprint(counter_system("fp4", 0, 5)));
  // Extra invariant.
  ts::TransitionSystem stronger = counter_system("fp4");
  stronger.add_invar(expr::var_by_name("fp4.y") <= 6);
  EXPECT_NE(base, svc::fingerprint(stronger));
  // A parameter (same constraints otherwise).
  ts::TransitionSystem with_param = counter_system("fp4");
  with_param.add_param(expr::int_var("fp4.p", 0, 3));
  EXPECT_NE(base, svc::fingerprint(with_param));
  // Different variable names = different model.
  EXPECT_NE(base, svc::fingerprint(counter_system("fp4b")));
}

TEST(Fingerprint, RequestKeyCoversPropertyEngineAndDepth) {
  const ts::TransitionSystem sys = counter_system("fp5");
  const ltl::Formula safe = ltl::G(ltl::atom(expr::var_by_name("fp5.x") <= 7));
  const ltl::Formula tight = ltl::G(ltl::atom(expr::var_by_name("fp5.x") <= 2));
  const Fingerprint base =
      svc::fingerprint_request(sys, safe, core::Engine::kBmc, 20);
  EXPECT_EQ(base, svc::fingerprint_request(sys, safe, core::Engine::kBmc, 20));
  EXPECT_NE(base, svc::fingerprint_request(sys, tight, core::Engine::kBmc, 20));
  EXPECT_NE(base, svc::fingerprint_request(sys, safe, core::Engine::kPdr, 20));
  EXPECT_NE(base, svc::fingerprint_request(sys, safe, core::Engine::kBmc, 21));
}

TEST(Fingerprint, LtlConjunctionIsUnorderedUntilIsNot) {
  const expr::Expr x = expr::int_var("fp6.x", 0, 7);
  const ltl::Formula a = ltl::atom(x == 1);
  const ltl::Formula b = ltl::atom(x == 2);
  EXPECT_EQ(svc::fingerprint(ltl::conj(a, b)), svc::fingerprint(ltl::conj(b, a)));
  EXPECT_NE(svc::fingerprint(ltl::U(a, b)), svc::fingerprint(ltl::U(b, a)));
}

TEST(Fingerprint, HexRoundTrip) {
  const Fingerprint f = svc::fingerprint(counter_system("fp7"));
  const std::string hex = f.str();
  EXPECT_EQ(hex.size(), 32u);
  const auto parsed = Fingerprint::parse(hex);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
  EXPECT_FALSE(Fingerprint::parse("not-a-key").has_value());
  EXPECT_FALSE(Fingerprint::parse(hex.substr(1)).has_value());
}

// --- Verdict cache -----------------------------------------------------------

svc::CachedVerdict holds_verdict(double seconds = 0.1) {
  svc::CachedVerdict v;
  v.verdict = core::Verdict::kHolds;
  v.engine = "pdr";
  v.seconds = seconds;
  return v;
}

Fingerprint key_of(std::uint64_t n) {
  return Fingerprint{0x1234u + n, n};
}

TEST(VerdictCache, OnlyDefinitiveVerdictsAreStored) {
  svc::VerdictCache cache;
  svc::CachedVerdict v = holds_verdict();
  for (const core::Verdict bad : {core::Verdict::kBoundReached,
                                  core::Verdict::kTimeout, core::Verdict::kUnknown}) {
    v.verdict = bad;
    cache.insert(key_of(1), v);
    EXPECT_FALSE(cache.lookup(key_of(1)).has_value())
        << "verdict " << core::verdict_name(bad) << " must not be cached";
  }
  // kViolated without a stored trace is NOT definitive-with-evidence.
  v.verdict = core::Verdict::kViolated;
  v.counterexample_json.clear();
  cache.insert(key_of(1), v);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());

  v.verdict = core::Verdict::kHolds;
  cache.insert(key_of(1), v);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
}

TEST(VerdictCache, LruEvictsOldestWithinCapacity) {
  svc::VerdictCache cache({.capacity = 4, .shards = 1});
  for (std::uint64_t i = 0; i < 8; ++i) cache.insert(key_of(i), holds_verdict());
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GE(cache.evictions(), 4u);
  EXPECT_TRUE(cache.lookup(key_of(7)).has_value());   // newest survives
  EXPECT_FALSE(cache.lookup(key_of(0)).has_value());  // oldest evicted
}

TEST(VerdictCache, LookupRefreshesLruPosition) {
  svc::VerdictCache cache({.capacity = 2, .shards = 1});
  cache.insert(key_of(0), holds_verdict());
  cache.insert(key_of(1), holds_verdict());
  ASSERT_TRUE(cache.lookup(key_of(0)).has_value());  // 0 is now most recent
  cache.insert(key_of(2), holds_verdict());          // evicts 1, not 0
  EXPECT_TRUE(cache.lookup(key_of(0)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
}

TEST(VerdictCache, SingleFlightComputesOnce) {
  svc::VerdictCache cache;
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<svc::CachedVerdict> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.get_or_compute(key_of(42), [&] {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return holds_verdict(7.0);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  for (const svc::CachedVerdict& r : results) {
    EXPECT_EQ(r.verdict, core::Verdict::kHolds);
    EXPECT_DOUBLE_EQ(r.seconds, 7.0);
  }
  EXPECT_GE(cache.single_flight_shared(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(VerdictCache, SingleFlightSharesButNeverStoresNonDefinitive) {
  svc::VerdictCache cache;
  svc::CachedVerdict timeout;
  timeout.verdict = core::Verdict::kTimeout;
  const svc::CachedVerdict got =
      cache.get_or_compute(key_of(9), [&] { return timeout; });
  EXPECT_EQ(got.verdict, core::Verdict::kTimeout);
  EXPECT_FALSE(cache.lookup(key_of(9)).has_value());
}

TEST(VerdictCache, LeaderExceptionLetsWaitersRecover) {
  svc::VerdictCache cache;
  std::atomic<int> attempts{0};
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        const svc::CachedVerdict v = cache.get_or_compute(key_of(13), [&] {
          if (attempts.fetch_add(1) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw std::runtime_error("solver exploded");
          }
          return holds_verdict();
        });
        EXPECT_EQ(v.verdict, core::Verdict::kHolds);
        successes.fetch_add(1);
      } catch (const std::runtime_error&) {
        // Only the failing leader may see the exception.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(attempts.load(), 2);
  EXPECT_GE(successes.load(), 3);
}

// --- Persistence across "restarts" -------------------------------------------

// A fresh directory for one segment file; removed (with the file) on scope exit.
struct SegmentDir {
  std::string dir;
  std::string path;
  SegmentDir() {
    char templ[] = "/tmp/svc_test.XXXXXX";
    if (::mkdtemp(templ) != nullptr) dir = templ;
    path = dir + "/verdicts.seg";
  }
  ~SegmentDir() {
    ::unlink(path.c_str());
    ::rmdir(dir.c_str());
  }
};

TEST(VerdictCache, PersistedCounterexampleRoundTrips) {
  // Real violated outcome with a trace, appended to a segment, replayed by a
  // fresh SegmentStore + VerdictCache (a modelled restart), then rehydrated
  // and re-confirmed against the system. The same flow runs across a genuine
  // process restart in tests/verdictd_cli_test.sh.
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  const core::CheckOutcome outcome =
      core::check(scenario.system, scenario.property,
                  {.engine = core::Engine::kBmc, .max_depth = 6});
  ASSERT_TRUE(outcome.violated());
  ASSERT_TRUE(outcome.counterexample.has_value());

  const Fingerprint key = svc::fingerprint_request(
      scenario.system, scenario.property, core::Engine::kBmc, 6);
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  {
    svc::SegmentStore segment(dir.path);
    ASSERT_TRUE(segment.append(key, svc::cached_from_outcome(outcome)));
  }

  svc::SegmentStore segment(dir.path);
  svc::VerdictCache restarted({}, &segment);
  EXPECT_EQ(restarted.size(), 1u);  // the replay warmed the LRU
  const auto cached = restarted.lookup(key);
  ASSERT_TRUE(cached.has_value());
  const auto rehydrated = svc::outcome_from_cached(*cached);
  ASSERT_TRUE(rehydrated.has_value());
  EXPECT_EQ(rehydrated->verdict, core::Verdict::kViolated);
  ASSERT_TRUE(rehydrated->counterexample.has_value());
  std::string why;
  EXPECT_TRUE(core::confirm_counterexample(scenario.system, scenario.property,
                                           *rehydrated, &why))
      << why;
}

TEST(VerdictCache, LoadSkipsMalformedAndNonDefinitiveLines) {
  // Every segment read parses its payload with cached_from_json, so this is
  // the load filter: only a well-formed v2 line with a definitive verdict
  // comes back.
  const std::string good = svc::cached_to_json(key_of(1), holds_verdict());
  const auto parsed = svc::cached_from_json(good);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, key_of(1));
  EXPECT_EQ(parsed->second.verdict, core::Verdict::kHolds);

  std::string retired_schema = good;  // the same line under the pre-v2 tag
  retired_schema.replace(retired_schema.find("-v2"), 3, "-v1");
  const std::string bad_lines[] = {
      "this is not json",
      retired_schema,
      R"({"schema":"verdict-cache-v2","key":"00000000000000000000000000000001",)"
      R"("verdict":"timeout","engine":"bmc"})",
      R"({"schema":"verdict-cache-v2","key":"00000000000000000000000000000001",)"
      R"("verdict":"violated","engine":"bmc"})",  // no counterexample
      R"({"schema":"some-other-schema","key":"00000000000000000000000000000002",)"
      R"("verdict":"holds","engine":"bmc"})",
  };
  for (const std::string& line : bad_lines)
    EXPECT_FALSE(svc::cached_from_json(line).has_value()) << line;
}

TEST(VerdictCache, SegmentBacksTheLruAndTakesEveryInsert) {
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  svc::SegmentStore segment(dir.path);
  svc::VerdictCache cache({.capacity = 1, .shards = 1}, &segment);
  cache.insert(key_of(1), holds_verdict(1.0));
  cache.insert(key_of(2), holds_verdict(2.0));  // evicts key 1 from the LRU
  svc::CachedVerdict timeout = holds_verdict();
  timeout.verdict = core::Verdict::kTimeout;
  cache.insert(key_of(3), timeout);  // dropped by both tiers
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(segment.size(), 2u);  // every definitive insert was written through

  // An LRU miss falls through to the segment, and the hit is re-inserted into
  // the LRU: the next lookup of the same key is an LRU hit.
  const std::uint64_t lru_hits = cache.hits();
  const auto held = cache.lookup(key_of(1));
  ASSERT_TRUE(held.has_value());
  EXPECT_DOUBLE_EQ(held->seconds, 1.0);
  EXPECT_EQ(cache.hits(), lru_hits);
  ASSERT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_EQ(cache.hits(), lru_hits + 1);

  // get_or_compute serves a segment hit without computing or re-appending.
  const auto appends = [] {
    const std::map<std::string, std::uint64_t> counters = obs::counters_snapshot();
    const auto it = counters.find("svc.segment.append");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t appended = appends();
  bool computed = false;
  const svc::CachedVerdict got = cache.get_or_compute(key_of(2), [&] {
    computed = true;
    return holds_verdict(9.0);
  });
  EXPECT_FALSE(computed);
  EXPECT_DOUBLE_EQ(got.seconds, 2.0);
  EXPECT_EQ(appends(), appended);
  EXPECT_FALSE(cache.lookup(key_of(3)).has_value());
}

// --- Service -----------------------------------------------------------------

TEST(Service, WarmRequestsHitTheCacheAndAgreeWithColdOnes) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 2});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.property;
  request.engine = core::Engine::kBmc;
  request.max_depth = 6;

  const svc::CheckResponse cold = service.check(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.outcome.verdict, core::Verdict::kViolated);

  const svc::CheckResponse warm = service.check(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.outcome.verdict, core::Verdict::kViolated);
  ASSERT_TRUE(warm.outcome.counterexample.has_value());
  std::string why;
  EXPECT_TRUE(core::confirm_counterexample(scenario.system, scenario.property,
                                           warm.outcome, &why))
      << why;
  EXPECT_EQ(service.cache().hits(), 1u);
}

TEST(Service, SegmentServesTheFirstRequestAfterARestart) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.property;
  request.engine = core::Engine::kBmc;
  request.max_depth = 6;
  svc::ServiceOptions options;
  options.jobs = 1;
  options.segment_file = dir.path;
  {
    svc::Service service(options);
    EXPECT_FALSE(service.check(request).cache_hit);
  }  // destructor drains and flushes the segment
  svc::Service restarted(options);
  const svc::CheckResponse warm = restarted.check(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.outcome.verdict, core::Verdict::kViolated);
  ASSERT_TRUE(warm.outcome.counterexample.has_value());
}

TEST(Service, NoOptRequestsBypassTheCacheAndRefreshIt) {
  // optimize=false is the escape hatch around optimizer bugs: even with a
  // warm cache entry for the identical request, it must recompute rather
  // than serve a verdict that may have been produced through the pipeline.
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 2});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.property;
  request.engine = core::Engine::kBmc;
  request.max_depth = 6;

  const svc::CheckResponse warm = service.check(request);
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(warm.outcome.verdict, core::Verdict::kViolated);

  request.optimize = false;
  const svc::CheckResponse noopt = service.check(request);
  EXPECT_FALSE(noopt.cache_hit) << "--no-opt must never serve a cached verdict";
  EXPECT_EQ(noopt.outcome.verdict, core::Verdict::kViolated);

  // The unoptimized recompute refreshes the shared entry, which optimized
  // requests keep hitting (the flag is not part of the fingerprint).
  request.optimize = true;
  const svc::CheckResponse hit = service.check(request);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.outcome.verdict, core::Verdict::kViolated);
}

TEST(Service, ZeroQueueLimitRejectsEveryRequest) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 1, .queue_limit = 0});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.property;
  const svc::CheckResponse response = service.check(request);
  EXPECT_TRUE(response.rejected);
  EXPECT_EQ(response.outcome.verdict, core::Verdict::kUnknown);
  EXPECT_EQ(service.rejected(), 1u);
}

TEST(Service, ConcurrentIdenticalSubmissionsShareOneSolverRun) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 4});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.properties.at(1).second;  // a holding invariant
  request.engine = core::Engine::kKInduction;
  request.max_depth = 10;

  std::vector<svc::PendingCheck> pending;
  for (int i = 0; i < 6; ++i) pending.push_back(service.submit(request));
  std::vector<svc::CheckResponse> responses;
  for (svc::PendingCheck& p : pending) responses.push_back(p.wait());

  std::size_t computed = 0;
  for (const svc::CheckResponse& r : responses) {
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
    if (!r.cache_hit) ++computed;
  }
  // Single-flight: at most one response per wave actually ran the engines
  // (>=1 because the first request must compute).
  EXPECT_GE(computed, 1u);
  EXPECT_EQ(service.cache().size(), 1u);
}

// --- Session cache hook ------------------------------------------------------

TEST(SessionCache, SecondSessionRunBuildsNoSolvers) {
  // k-induction decides every property definitively (holds / violated), so
  // the whole result set is cacheable and the warm run never reaches an
  // engine: zero solvers built.
  const ts::TransitionSystem sys = counter_system("schook");
  const expr::Expr x = expr::var_by_name("schook.x");
  svc::VerdictCache cache;
  svc::SessionCache hook(cache);

  core::Session session(sys);
  session.add_property("in_range", ltl::G(ltl::atom(x <= 7)));
  session.add_property("below_two", ltl::G(ltl::atom(x < 2)));  // violated

  core::SessionOptions options;
  options.engine = core::Engine::kKInduction;
  options.max_depth = 10;
  options.cache = &hook;

  const core::SessionResult cold = session.check_all(options);
  ASSERT_EQ(cold.properties.size(), 2u);
  ASSERT_EQ(cold.properties[0].outcome.verdict, core::Verdict::kHolds);
  ASSERT_EQ(cold.properties[1].outcome.verdict, core::Verdict::kViolated);
  ASSERT_GT(cold.total.solvers_created, 0u);

  const core::SessionResult warm = session.check_all(options);
  ASSERT_EQ(warm.properties.size(), 2u);
  for (std::size_t i = 0; i < cold.properties.size(); ++i)
    EXPECT_EQ(cold.properties[i].outcome.verdict, warm.properties[i].outcome.verdict)
        << cold.properties[i].name;
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(warm.total.solvers_created, 0u);
  ASSERT_TRUE(warm.properties[1].outcome.counterexample.has_value());
  EXPECT_TRUE(sys.trace_conforms(*warm.properties[1].outcome.counterexample));
}

// --- Daemon + concurrent socket clients --------------------------------------

constexpr const char* kDaemonModel = R"vml(
module svcd {
  var x : 0..3;
  init x = 0;
  rule up when x < 3 { x' = x + 1; }
  stutter always;
}

system {
  schedule interleaving;
  ltl bound_ok  "G (svcd.x <= 3)";
  ltl never_two "G (svcd.x < 2)";
}
)vml";

TEST(Daemon, ServesConcurrentClientsWithInProcessVerdicts) {
  // Expected verdicts computed in-process, same engine/depth.
  const mdl::VmlModel model = mdl::parse_vml(kDaemonModel);
  const core::CheckOutcome expect_bound =
      core::check(model.system, model.ltl_properties.at("bound_ok"),
                  {.engine = core::Engine::kKInduction, .max_depth = 10});
  const core::CheckOutcome expect_two =
      core::check(model.system, model.ltl_properties.at("never_two"),
                  {.engine = core::Engine::kKInduction, .max_depth = 10});
  ASSERT_EQ(expect_bound.verdict, core::Verdict::kHolds);
  ASSERT_EQ(expect_two.verdict, core::Verdict::kViolated);

  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 4;
  svc::Daemon daemon(options);
  std::thread server([&] { daemon.serve(); });

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::atomic<int> cache_hits{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        svc::Client client(sock);
        // Two rounds per client: the second round is warm for *someone*.
        for (int round = 0; round < 2; ++round) {
          const std::vector<svc::ClientVerdict> verdicts = client.check(
              kDaemonModel, {"bound_ok", "never_two"},
              core::Engine::kKInduction, 10, /*timeout_seconds=*/0.0);
          if (verdicts.size() != 2) throw std::runtime_error("wrong count");
          for (const svc::ClientVerdict& v : verdicts) {
            const core::CheckOutcome& expected =
                v.prop == "bound_ok" ? expect_bound : expect_two;
            if (v.outcome.verdict != expected.verdict)
              throw std::runtime_error("verdict mismatch for " + v.prop);
            if (v.outcome.violated()) {
              if (!v.outcome.counterexample.has_value())
                throw std::runtime_error("violated without trace: " + v.prop);
              std::string why;
              if (!core::confirm_counterexample(model.system,
                                                model.ltl_properties.at(v.prop),
                                                v.outcome, &why))
                throw std::runtime_error("unconfirmed trace: " + why);
            }
            if (v.cache_hit) cache_hits.fetch_add(1);
          }
        }
      } catch (const std::exception& error) {
        ADD_FAILURE() << "client: " << error.what();
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  daemon.request_stop();
  server.join();

  EXPECT_EQ(failures.load(), 0);
  // 8 clients x 2 rounds x 2 props = 32 requests for 2 distinct keys: almost
  // everything is a hit or a shared flight. Conservatively, every client's
  // second round must hit.
  EXPECT_GE(cache_hits.load(), kClients);
  EXPECT_EQ(daemon.connections_served(), static_cast<std::uint64_t>(kClients));
  EXPECT_GE(daemon.service().requests(), 32u);

  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

TEST(Daemon, RejectsBadRequestsWithoutDying) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 1;
  svc::Daemon daemon(options);
  std::thread server([&] { daemon.serve(); });

  {
    svc::Client client(sock);
    EXPECT_THROW(
        (void)client.check("not a model {", {}, core::Engine::kAuto, 10, 0.0),
        std::runtime_error);
  }
  {
    // The daemon survives the bad request and serves the next client.
    svc::Client client(sock);
    const auto verdicts =
        client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);
  }
  {
    svc::Client client(sock);
    EXPECT_THROW((void)client.check(kDaemonModel, {"no_such_prop"},
                                    core::Engine::kAuto, 10, 0.0),
                 std::runtime_error);
  }

  daemon.request_stop();
  server.join();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

// --- Binary framing ----------------------------------------------------------

TEST(Frame, RoundTripsEveryType) {
  for (const svc::FrameType type :
       {svc::FrameType::kRequest, svc::FrameType::kVerdict, svc::FrameType::kDone,
        svc::FrameType::kError}) {
    const std::string payload = R"({"id":"1","k":"v"})";
    const std::string wire = svc::encode_frame(type, payload);
    EXPECT_EQ(wire.size(), svc::kFrameHeaderBytes + payload.size());
    svc::FrameDecoder decoder;
    decoder.feed(wire);
    const svc::FrameDecoder::Result result = decoder.next();
    ASSERT_EQ(result.status, svc::FrameDecoder::Status::kFrame);
    EXPECT_EQ(result.frame.type, type);
    EXPECT_EQ(result.frame.payload, payload);
    EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kNeedMore);
  }
}

TEST(Frame, EmptyPayloadRoundTrips) {
  svc::FrameDecoder decoder;
  decoder.feed(svc::encode_frame(svc::FrameType::kDone, ""));
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kFrame);
  EXPECT_EQ(result.frame.type, svc::FrameType::kDone);
  EXPECT_TRUE(result.frame.payload.empty());
}

TEST(Frame, PipelinedFramesSplitAcrossArbitraryReads) {
  // Three frames delivered one byte at a time: every frame must come out
  // intact, in order, regardless of how the stream was chunked.
  const std::string wire = svc::encode_frame(svc::FrameType::kRequest, "first") +
                           svc::encode_frame(svc::FrameType::kVerdict, "second") +
                           svc::encode_frame(svc::FrameType::kDone, "");
  svc::FrameDecoder decoder;
  std::vector<std::string> payloads;
  for (const char byte : wire) {
    decoder.feed(&byte, 1);
    for (;;) {
      const svc::FrameDecoder::Result result = decoder.next();
      ASSERT_NE(result.status, svc::FrameDecoder::Status::kError) << result.error;
      if (result.status != svc::FrameDecoder::Status::kFrame) break;
      payloads.push_back(result.frame.payload);
    }
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "first");
  EXPECT_EQ(payloads[1], "second");
  EXPECT_EQ(payloads[2], "");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, TruncatedHeaderJustWaits) {
  svc::FrameDecoder decoder;
  decoder.feed(svc::encode_frame(svc::FrameType::kRequest, "payload").substr(0, 6));
  EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 6u);
}

TEST(Frame, RejectsBadMagicOnTheFirstByte) {
  // A non-frame peer (say, an NDJSON client on the wrong code path) is
  // rejected immediately — not buffered until a bogus length arrives.
  svc::FrameDecoder decoder;
  decoder.feed("{", 1);
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kError);
  EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(Frame, RejectsVersionSkew) {
  std::string wire = svc::encode_frame(svc::FrameType::kRequest, "x");
  wire[2] = 9;  // a future version
  svc::FrameDecoder decoder;
  decoder.feed(wire.data(), 3);  // partial header is enough to notice
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kError);
  EXPECT_NE(result.error.find("version"), std::string::npos);
}

TEST(Frame, RejectsUnknownFrameType) {
  // 5 and 6 carried the retired shard-to-shard exchange; they are unknown now.
  for (const char type : {'\x05', '\x06', '\x7f'}) {
    std::string wire = svc::encode_frame(svc::FrameType::kRequest, "x");
    wire[3] = type;
    svc::FrameDecoder decoder;
    decoder.feed(wire);
    EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kError)
        << "type " << static_cast<int>(type);
  }
}

TEST(Frame, RejectsDeclaredLengthOverflow) {
  std::string header = svc::encode_frame(svc::FrameType::kRequest, "");
  header[4] = header[5] = header[6] = header[7] = static_cast<char>(0xff);
  svc::FrameDecoder decoder(/*max_payload=*/1024);
  decoder.feed(header);
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kError);
  EXPECT_NE(result.error.find("limit"), std::string::npos);
}

TEST(Frame, StaysPoisonedAfterAnError) {
  svc::FrameDecoder decoder;
  decoder.feed("XYZ");
  ASSERT_EQ(decoder.next().status, svc::FrameDecoder::Status::kError);
  // A valid frame after the bad bytes does NOT resynchronize the stream.
  decoder.feed(svc::encode_frame(svc::FrameType::kRequest, "valid"));
  EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kError);
}

// --- Batched session dispatch ------------------------------------------------

TEST(ServiceBatch, BatchedVerdictsMatchOneAtATimeSubmission) {
  const ts::TransitionSystem sys = counter_system("batch1");
  const expr::Expr x = expr::var_by_name("batch1.x");
  const expr::Expr y = expr::var_by_name("batch1.y");
  const std::vector<ltl::Formula> props = {
      ltl::G(ltl::atom(x <= 7)),  // holds
      ltl::G(ltl::atom(x < 2)),   // violated
      ltl::G(ltl::atom(y == 0)),  // holds (y never moves)
  };

  // Reference: batching disabled — every request its own computation.
  std::vector<core::Verdict> reference;
  {
    svc::Service service({.jobs = 2});
    for (const ltl::Formula& prop : props) {
      svc::CheckRequest request;
      request.system = &sys;
      request.property = prop;
      request.engine = core::Engine::kKInduction;
      request.max_depth = 10;
      reference.push_back(service.check(request).outcome.verdict);
    }
    EXPECT_EQ(service.batches_formed(), 0u);
  }

  // Batched: many client threads submitting concurrently inside a generous
  // coalescing window; verdicts must be identical to the sequential run.
  svc::ServiceOptions options;
  options.jobs = 2;
  options.batch_window_seconds = 0.02;
  options.batch_max = 64;
  svc::Service service(options);
  constexpr int kThreads = 4;
  std::vector<std::vector<core::Verdict>> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<svc::PendingCheck> pending;
      for (const ltl::Formula& prop : props) {
        svc::CheckRequest request;
        request.system = &sys;
        request.property = prop;
        request.engine = core::Engine::kKInduction;
        request.max_depth = 10;
        pending.push_back(service.submit(request));
      }
      for (svc::PendingCheck& p : pending)
        verdicts[t].push_back(p.wait().outcome.verdict);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(verdicts[t], reference) << "thread " << t;
  EXPECT_GE(service.batches_formed(), 1u);
  EXPECT_EQ(service.batched_requests(),
            static_cast<std::uint64_t>(kThreads * props.size()));
  // The violated property's counterexample went through the cache: it must
  // still rehydrate and replay against the system.
  svc::CheckRequest again;
  again.system = &sys;
  again.property = props[1];
  again.engine = core::Engine::kKInduction;
  again.max_depth = 10;
  const svc::CheckResponse cached = service.check(again);
  EXPECT_TRUE(cached.cache_hit);
  ASSERT_TRUE(cached.outcome.counterexample.has_value());
  EXPECT_TRUE(sys.trace_conforms(*cached.outcome.counterexample));
}

TEST(ServiceBatch, OnCompleteFiresExactlyOnceIncludingRejects) {
  const ts::TransitionSystem sys = counter_system("batch2");
  const expr::Expr x = expr::var_by_name("batch2.x");
  svc::ServiceOptions options;
  options.jobs = 1;
  options.queue_limit = 1;  // force rejects under a burst
  options.batch_window_seconds = 0.005;
  svc::Service service(options);

  std::atomic<int> fired{0};
  std::vector<svc::PendingCheck> pending;
  for (int i = 0; i < 8; ++i) {
    svc::CheckRequest request;
    request.system = &sys;
    request.property = ltl::G(ltl::atom(x <= 7));
    request.engine = core::Engine::kKInduction;
    request.max_depth = 10;
    request.on_complete = [&fired] { fired.fetch_add(1); };
    pending.push_back(service.submit(request));
  }
  int rejected = 0;
  for (svc::PendingCheck& p : pending)
    if (p.wait().rejected) ++rejected;
  service.drain();
  EXPECT_EQ(fired.load(), 8);
  EXPECT_GE(rejected, 1);  // queue_limit 1 under an 8-deep burst must bounce
}

TEST(ServiceBatch, BatchSystemNotReadAfterAnyMemberCompletes) {
  // Two fingerprint-equal but DISTINCT system objects (the daemon produces
  // these when model-LRU eviction re-parses the same text) coalesce into one
  // batch that verifies against the FIRST member's system. The CheckRequest
  // borrow only lasts until that member's own completion, so a contract-
  // following caller may free its system from on_complete — the fan-out must
  // fill every member's slot before signalling any of them (ASan catches the
  // regression as a use-after-free on *batch->system).
  auto sys_a = std::make_unique<ts::TransitionSystem>(counter_system("batch3"));
  auto sys_b = std::make_unique<ts::TransitionSystem>(counter_system("batch3"));
  const expr::Expr x = expr::var_by_name("batch3.x");

  svc::ServiceOptions options;
  options.jobs = 1;
  options.batch_window_seconds = 0.05;  // generous: both submits join one batch
  svc::Service service(options);

  svc::CheckRequest first;
  first.system = sys_a.get();
  first.property = ltl::G(ltl::atom(x <= 7));
  first.engine = core::Engine::kKInduction;
  first.max_depth = 10;
  first.on_complete = [&sys_a] { sys_a.reset(); };
  svc::PendingCheck p1 = service.submit(first);

  svc::CheckRequest second;
  second.system = sys_b.get();
  second.property = ltl::G(ltl::atom(x >= 0));
  second.engine = core::Engine::kKInduction;
  second.max_depth = 10;
  svc::PendingCheck p2 = service.submit(second);

  EXPECT_EQ(p1.wait().outcome.verdict, core::Verdict::kHolds);
  EXPECT_EQ(p2.wait().outcome.verdict, core::Verdict::kHolds);
  service.drain();
  EXPECT_EQ(service.batches_formed(), 1u);  // they really shared one session
}

TEST(ServiceBatch, DuplicatePropertiesInOneBatchReportIndividualCacheHits) {
  // Two members of one batch carrying the identical property share a request
  // fingerprint; their cache_hit flags must still be recorded per member
  // (by session property index), not keyed by fingerprint.
  const ts::TransitionSystem sys = counter_system("batch4");
  const expr::Expr x = expr::var_by_name("batch4.x");
  const ltl::Formula prop = ltl::G(ltl::atom(x <= 7));

  svc::ServiceOptions options;
  options.jobs = 1;
  options.batch_window_seconds = 0.05;
  svc::Service service(options);

  const auto submit_pair = [&] {
    svc::CheckRequest request;
    request.system = &sys;
    request.property = prop;
    request.engine = core::Engine::kKInduction;
    request.max_depth = 10;
    std::vector<svc::PendingCheck> pending;
    pending.push_back(service.submit(request));
    pending.push_back(service.submit(request));
    std::vector<svc::CheckResponse> responses;
    for (svc::PendingCheck& p : pending) responses.push_back(p.wait());
    return responses;
  };

  // Cold cache: the shared session computes the pair — neither member may
  // claim a hit just because its twin shares the fingerprint.
  for (const svc::CheckResponse& r : submit_pair()) {
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
    EXPECT_FALSE(r.cache_hit);
  }
  // Warm cache: a fresh pair is answered from the verdict cache entirely.
  for (const svc::CheckResponse& r : submit_pair()) {
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
    EXPECT_TRUE(r.cache_hit);
  }
  EXPECT_EQ(service.batches_formed(), 2u);
}

// --- Daemon wire modes and message bounds ------------------------------------

TEST(Daemon, ServesBinaryAndNdjsonClientsOnOneSocket) {
  const mdl::VmlModel model = mdl::parse_vml(kDaemonModel);
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 2;
  options.service.batch_window_seconds = 0.002;  // production config
  svc::Daemon daemon(options);
  std::thread server([&] { daemon.serve(); });

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        svc::ClientOptions client_options;
        client_options.binary = (c % 2 == 0);  // both wires, same daemon
        svc::Client client(sock, client_options);
        for (int round = 0; round < 2; ++round) {
          const std::vector<svc::ClientVerdict> verdicts = client.check(
              kDaemonModel, {"bound_ok", "never_two"}, core::Engine::kKInduction,
              10, /*timeout_seconds=*/0.0);
          if (verdicts.size() != 2) throw std::runtime_error("wrong count");
          if (verdicts[0].outcome.verdict != core::Verdict::kHolds)
            throw std::runtime_error("bound_ok should hold");
          if (verdicts[1].outcome.verdict != core::Verdict::kViolated)
            throw std::runtime_error("never_two should be violated");
          std::string why;
          if (!core::confirm_counterexample(model.system,
                                            model.ltl_properties.at("never_two"),
                                            verdicts[1].outcome, &why))
            throw std::runtime_error("unconfirmed trace: " + why);
        }
      } catch (const std::exception& error) {
        ADD_FAILURE() << "client " << c << ": " << error.what();
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  daemon.request_stop();
  server.join();
  EXPECT_EQ(failures.load(), 0);

  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

TEST(Daemon, RejectsOversizedMessagesInBothWireModes) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 1;
  options.max_message_bytes = 1024;
  svc::Daemon daemon(options);
  std::thread server([&] { daemon.serve(); });

  // A "model" comfortably over the limit but small enough to fit in the
  // socket buffers, so the client reliably reads the error response.
  const std::string big_model(4096, 'x');
  for (const bool binary : {false, true}) {
    svc::ClientOptions client_options;
    client_options.binary = binary;
    svc::Client client(sock, client_options);
    try {
      (void)client.check(big_model, {}, core::Engine::kAuto, 10, 0.0);
      ADD_FAILURE() << "oversized request was not rejected (binary=" << binary << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("limit"), std::string::npos)
          << error.what();
    }
  }

  // The daemon is still healthy and serves a well-formed request.
  {
    svc::Client client(sock);
    const auto verdicts =
        client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);
  }

  daemon.request_stop();
  server.join();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

TEST(Client, RetriesConnectWhileTheDaemonIsStarting) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  // The daemon appears only after the client has started retrying (ENOENT
  // until then). Without connect_wait_seconds this throws immediately.
  EXPECT_THROW(svc::Client no_retry(sock), std::runtime_error);

  std::unique_ptr<svc::Daemon> daemon;
  std::thread server([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    svc::DaemonOptions options;
    options.socket_path = sock;
    options.service.jobs = 1;
    daemon = std::make_unique<svc::Daemon>(options);
    daemon->serve();
  });

  svc::ClientOptions client_options;
  client_options.connect_wait_seconds = 10.0;
  client_options.io_timeout_seconds = 30.0;
  svc::Client client(sock, client_options);
  const auto verdicts =
      client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);

  daemon->request_stop();
  server.join();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

// --- Stored traces -----------------------------------------------------------

TEST(StoredTrace, RoundTripsThroughJson) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  const core::CheckOutcome outcome =
      core::check(scenario.system, scenario.property,
                  {.engine = core::Engine::kBmc, .max_depth = 6});
  ASSERT_TRUE(outcome.counterexample.has_value());
  const std::string json = svc::trace_to_json(*outcome.counterexample);
  const auto back = svc::trace_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->states.size(), outcome.counterexample->states.size());
  EXPECT_EQ(back->lasso_start, outcome.counterexample->lasso_start);
  EXPECT_TRUE(scenario.system.trace_conforms(*back));
}

TEST(StoredTrace, UnknownVariablesFailSoft) {
  EXPECT_FALSE(svc::trace_from_json(
                   R"({"length":1,"lasso_start":null,"params":{},)"
                   R"("states":[{"no.such.var.anywhere":1}]})")
                   .has_value());
  EXPECT_FALSE(svc::trace_from_json("not json at all").has_value());
}

// --- Persistent segment ------------------------------------------------------

TEST(Segment, RoundTripsAcrossReopen) {
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  const std::string& path = dir.path;
  {
    svc::SegmentStore segment(path);
    for (std::uint64_t i = 0; i < 3; ++i)
      EXPECT_TRUE(segment.append(key_of(i), holds_verdict(1.0 + static_cast<double>(i))));
    EXPECT_EQ(segment.size(), 3u);
    EXPECT_TRUE(segment.flush());
  }
  {
    // A fresh process (modelled by a fresh SegmentStore) replays the log.
    svc::SegmentStore segment(path);
    EXPECT_EQ(segment.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto held = segment.lookup(key_of(i));
      ASSERT_TRUE(held.has_value());
      EXPECT_EQ(held->verdict, core::Verdict::kHolds);
      EXPECT_DOUBLE_EQ(held->seconds, 1.0 + static_cast<double>(i));
    }
    EXPECT_FALSE(segment.lookup(key_of(99)).has_value());
  }
}

TEST(Segment, LaterAppendSupersedes) {
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  const std::string& path = dir.path;
  {
    svc::SegmentStore segment(path);
    EXPECT_TRUE(segment.append(key_of(5), holds_verdict(1.0)));
    EXPECT_TRUE(segment.append(key_of(5), holds_verdict(2.0)));
    EXPECT_EQ(segment.size(), 1u);  // one key, latest record wins
  }
  svc::SegmentStore segment(path);
  const auto held = segment.lookup(key_of(5));
  ASSERT_TRUE(held.has_value());
  EXPECT_DOUBLE_EQ(held->seconds, 2.0);
}

TEST(Segment, TornTailIsDiscardedCleanly) {
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  const std::string& path = dir.path;
  {
    svc::SegmentStore segment(path);
    EXPECT_TRUE(segment.append(key_of(1), holds_verdict(1.0)));
    svc::CachedVerdict marked = holds_verdict(2.0);
    marked.message = "TEAR-THIS-RECORD-APART";
    EXPECT_TRUE(segment.append(key_of(2), marked));
  }
  // Corrupt one payload byte of the SECOND record — the checksum now fails,
  // modelling a crash mid-append (the marker is written last, but a torn
  // payload under a valid marker must also be caught).
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    const std::size_t at = bytes.find("TEAR-THIS");
    ASSERT_NE(at, std::string::npos);
    file.seekp(static_cast<std::streamoff>(at));
    file.put('X');
  }
  svc::SegmentStore segment(path);
  EXPECT_EQ(segment.size(), 1u);  // the tail is gone, the prefix intact
  EXPECT_TRUE(segment.lookup(key_of(1)).has_value());
  EXPECT_FALSE(segment.lookup(key_of(2)).has_value());
  // And the reopened segment still accepts appends after the truncation.
  EXPECT_TRUE(segment.append(key_of(3), holds_verdict(3.0)));
  EXPECT_TRUE(segment.lookup(key_of(3)).has_value());
}

TEST(Segment, RefusesNonDefinitiveValues) {
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  const std::string& path = dir.path;
  svc::SegmentStore segment(path);
  svc::CachedVerdict timeout = holds_verdict();
  timeout.verdict = core::Verdict::kTimeout;
  EXPECT_FALSE(segment.append(key_of(1), timeout));
  svc::CachedVerdict traceless = holds_verdict();
  traceless.verdict = core::Verdict::kViolated;  // violated without evidence
  EXPECT_FALSE(segment.append(key_of(2), traceless));
  EXPECT_EQ(segment.size(), 0u);
}

TEST(Segment, RejectsForeignFile) {
  const SegmentDir dir;
  ASSERT_FALSE(dir.dir.empty());
  const std::string& path = dir.path;
  {
    std::ofstream out(path);
    out << "this file belongs to some other subsystem entirely\n";
  }
  EXPECT_THROW(svc::SegmentStore segment(path), std::runtime_error);
}

}  // namespace
}  // namespace verdict
