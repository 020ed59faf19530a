#include "daemon.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "inc/reuse_engine.h"
#include "mdl/vml.h"
#include "obs/trace.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/fingerprint.h"

namespace perfbench {
namespace {

using namespace verdict;

constexpr int kClients = 2;
constexpr int kServices = 8;
constexpr int kWarmPerEdit = 4;
constexpr std::size_t kHistory = 32;
// Per-push deadline, passed to the daemon as the request timeout: more than
// 3x the slowest edit push measured at the seed state.
constexpr double kPushDeadline = 5.0;
constexpr double kSlack = 0.5;
// The loop runs in this many stretches, with a set-up sample after each.
constexpr int kSegments = 3;

/// One rollout service: n nodes updated at most c at a time, and the quorum
/// q its property asks for. G(serving >= q) holds iff n - c >= q.
struct ServiceConfig {
  int n = 3;
  int c = 1;
  int q = 1;
  friend bool operator==(const ServiceConfig&, const ServiceConfig&) = default;
};
using Config = std::array<ServiceConfig, kServices>;

// Each client's first, cold, full-config push: these eight services in a
// seeded order, so set-up verifies the same models on every seed (drawn
// services made it cost 1.15-1.3s on most seeds and 1.5s on one).
constexpr Config kFirstConfig = {{{3, 1, 2}, {3, 2, 1}, {4, 1, 3}, {4, 2, 2},
                                  {5, 1, 4}, {5, 2, 3}, {4, 1, 2}, {4, 2, 1}}};

ServiceConfig draw_service(std::mt19937_64& rng) {
  ServiceConfig s;
  s.n = std::uniform_int_distribution<int>(3, 5)(rng);
  s.c = std::uniform_int_distribution<int>(1, 2)(rng);
  s.q = std::uniform_int_distribution<int>(1, s.n - s.c)(rng);  // holds by construction
  return s;
}

/// The vml text of one client's configuration: a module per service and one
/// LTL property per service, as a deployment pipeline would push it.
std::string model_text(int client, const Config& config) {
  std::string text;
  std::string props;
  for (int i = 0; i < kServices; ++i) {
    const ServiceConfig& s = config[static_cast<std::size_t>(i)];
    const std::string module =
        std::string("c") + std::to_string(client) + "_svc" + std::to_string(i);
    text += "module " + module + " {\n";
    for (int j = 0; j < s.n; ++j) text += std::string("  var s") + std::to_string(j) + " : 0..2;\n";
    for (int j = 0; j < s.n; ++j) text += std::string("  init s") + std::to_string(j) + " = 0;\n";
    for (int j = 0; j < s.n; ++j) {
      std::string others;
      for (int l = 0; l < s.n; ++l) {
        if (l == j) continue;
        if (!others.empty()) others += " + ";
        others += std::string("ite(s") + std::to_string(l) + " = 1, 1, 0)";
      }
      const std::string sj = std::string("s") + std::to_string(j);
      text += std::string("  rule down") + std::to_string(j) + " when " + sj + " = 0 & (" + others +
              ") < " + std::to_string(s.c) + " { " + sj + "' = 1; }\n";
      text += std::string("  rule up") + std::to_string(j) + " when " + sj + " = 1 { " + sj +
              "' = 2; }\n";
    }
    text += "  stutter always;\n}\n";
    std::string serving;
    for (int j = 0; j < s.n; ++j) {
      if (!serving.empty()) serving += " + ";
      serving += "ite(" + module + ".s" + std::to_string(j) + " != 1, 1, 0)";
    }
    props += "  ltl " + module + "_quorum \"G (" + serving + " >= " + std::to_string(s.q) +
             ")\";\n";
  }
  return text + "system {\n  schedule interleaving;\n" + props + "}\n";
}

struct Push {
  bool edit = false;
  bool traced = false;
  double rtt = 0;         // parse + daemon round trip, seconds
  double wait = 0;        // round trip minus the slowest server engine run
  double parse = 0;       // client-side mdl::parse_vml
  double fingerprint = 0; // client-side svc::fingerprint_request (traced only)
  double engine = 0;      // slowest server-reported engine seconds
  double solver = 0;      // server-reported solver seconds, summed
  int decided = 0;        // correct definitive verdicts of the push
  bool failed = false;    // rejected, or the round trip threw
  std::string id;         // client and step, e.g. "c1#42"
  double start = 0;       // steady-clock times of the push's spans
  double parsed = 0;
  double sent = 0;
  double end = 0;
};

/// One closed-loop client: its connection, its configuration history and
/// its seeded generator.
class PushClient {
 public:
  PushClient(int id, const std::string& socket, std::uint64_t seed)
      : id_(id), rng_(seed * 7919 + static_cast<std::uint64_t>(id)) {
    svc::ClientOptions options;
    options.binary = true;
    options.connect_wait_seconds = 5;
    options.io_timeout_seconds = 2 * kPushDeadline;  // a stuck daemon fails the push
    client_ = std::make_unique<svc::Client>(socket, options);
    current_ = kFirstConfig;
    std::shuffle(current_.begin(), current_.end(), rng_);
    history_.push_back(current_);
  }

  /// The first, cold, full-config push.
  Push first_push(std::vector<std::string>& wrong) { return push(current_, false, false, wrong); }

  /// The next push of the loop: one edit, then four warm repeats. In a
  /// traced run every other such cycle is traced, so traced and untraced
  /// pushes interleave over the same stretch of the run.
  Push next_push(bool trace_run, std::vector<std::string>& wrong) {
    const std::uint64_t cycle = step_ / (kWarmPerEdit + 1);
    const bool traced = trace_run && cycle % 2 == 1;
    const bool edit = step_++ % (kWarmPerEdit + 1) == 0;
    if (edit) {
      const std::size_t i = std::uniform_int_distribution<std::size_t>(0, kServices - 1)(rng_);
      ServiceConfig fresh = current_[i];
      while (fresh == current_[i]) fresh = draw_service(rng_);
      current_[i] = fresh;
      history_.push_back(current_);
      if (history_.size() > kHistory) history_.pop_front();
      return push(current_, true, traced, wrong);
    }
    const std::size_t pick =
        std::uniform_int_distribution<std::size_t>(0, history_.size() - 1)(rng_);
    return push(history_[pick], false, traced, wrong);
  }

 private:
  Push push(const Config& config, bool edit, bool traced, std::vector<std::string>& wrong) {
    Push p;
    p.edit = edit;
    p.traced = traced;
    p.id = std::string("c") + std::to_string(id_) + "#" + std::to_string(step_);
    const std::string text = model_text(id_, config);
    try {
      const double t0 = now_seconds();
      // verdictc --connect parses locally too: served counterexamples are
      // rehydrated against the local variables and confirmed.
      const mdl::VmlModel model = mdl::parse_vml(text);
      const double t1 = now_seconds();
      p.parse = t1 - t0;
      if (traced) {
        for (const auto& [name, property] : model.ltl_properties)
          (void)svc::fingerprint_request(model.system, property, core::Engine::kAuto, 50);
        p.fingerprint = now_seconds() - t1;
      }
      const double t2 = now_seconds();
      const std::vector<svc::ClientVerdict> verdicts =
          client_->check(text, {}, core::Engine::kAuto, 50, kPushDeadline);
      const double t3 = now_seconds();
      p.rtt = (t1 - t0) + (t3 - t2);
      p.start = t0;
      p.parsed = t1;
      p.sent = t2;
      p.end = t3;
      for (const svc::ClientVerdict& v : verdicts) {
        if (v.rejected) p.failed = true;
        if (!v.cache_hit) {
          p.engine = std::max(p.engine, v.outcome.stats.seconds);
          p.solver += v.outcome.stats.solver_seconds;
        }
        if (v.outcome.holds()) {
          ++p.decided;
        } else if (v.outcome.violated()) {
          std::string error;
          const bool confirmed = core::confirm_counterexample(
              model.system, model.ltl_properties.at(v.prop), v.outcome, &error);
          wrong.push_back(std::string("client ") + std::to_string(id_) + " " + v.prop +
                          ": expected holds (n - c >= q), got violated" +
                          (confirmed ? "" : " with an unconfirmed counterexample: " + error));
        }
      }
      if (verdicts.size() != kServices) p.failed = true;
      p.wait = std::max(0.0, (t3 - t2) - p.engine);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: push failed: %s\n", error.what());
      p.failed = true;
      p.decided = 0;
    }
    return p;
  }

  int id_;
  std::mt19937_64 rng_;
  std::unique_ptr<svc::Client> client_;
  Config current_{};
  std::deque<Config> history_;
  std::uint64_t step_ = 0;
};

/// verdictd as tools/verdictd.cpp configures it by default: every hardware
/// thread, a 2ms batch window, incremental reuse, no cache or segment file.
class InProcessDaemon {
 public:
  explicit InProcessDaemon(const std::string& socket) {
    svc::DaemonOptions options;
    options.socket_path = socket;
    options.service.jobs = 0;
    options.service.batch_window_seconds = 0.002;
    daemon_ = std::make_unique<svc::Daemon>(options);
    reuse_ = std::make_unique<inc::ReuseEngine>(daemon_->service().cache());
    (void)reuse_->rebuild_from_cache();
    daemon_->service().set_reuse(reuse_.get());
    thread_ = std::thread([this] { daemon_->serve(); });
  }
  ~InProcessDaemon() {
    daemon_->request_stop();
    thread_.join();
    unlink(daemon_->socket_path().c_str());
  }
  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;

 private:
  std::unique_ptr<svc::Daemon> daemon_;
  std::unique_ptr<inc::ReuseEngine> reuse_;
  std::thread thread_;
};

std::string socket_path() {
  // Relative to the working directory: the checkout may sit at a path too
  // long for sun_path.
  const char* env = std::getenv("CARGO_TARGET_DIR");
  const std::string dir = env != nullptr && *env != 0 ? env : ".bench_build";
  mkdir(dir.c_str(), 0755);
  return dir + "/pb-" + std::to_string(getpid()) + ".sock";
}

struct Phase {
  std::vector<Push> pushes;
  double wall = 0;
  std::map<std::string, std::uint64_t> counters;

  [[nodiscard]] double counter(const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : static_cast<double>(it->second);
  }
};

/// Both clients push in a closed loop for `seconds`, in kSegments equal
/// stretches. After each stretch, with the clients paused and the daemon
/// idle, `setup` (if given) takes one set-up sample, so the samples spread
/// over the same stretch of time as the pushes. The pauses are not part of
/// the phase's wall time.
Phase run_phase(std::vector<std::unique_ptr<PushClient>>& clients, double seconds,
                bool trace_run, std::vector<std::string>& wrong, SetupSampler* setup,
                std::vector<double>& setup_samples) {
  Phase phase;
  std::mutex mu;
  const auto before = obs::counters_snapshot();
  for (int segment = 0; segment < kSegments; ++segment) {
    const double start = now_seconds();
    std::vector<std::thread> threads;
    for (auto& client : clients) {
      threads.emplace_back([&, c = client.get()] {
        std::vector<Push> mine;
        std::vector<std::string> my_wrong;
        while (now_seconds() - start < seconds / kSegments)
          mine.push_back(c->next_push(trace_run, my_wrong));
        const std::lock_guard<std::mutex> lock(mu);
        phase.pushes.insert(phase.pushes.end(), mine.begin(), mine.end());
        wrong.insert(wrong.end(), my_wrong.begin(), my_wrong.end());
      });
    }
    for (std::thread& t : threads) t.join();
    phase.wall += now_seconds() - start;
    if (setup != nullptr) setup_samples.push_back(setup->sample());
  }
  phase.counters = counter_delta(before, obs::counters_snapshot());
  return phase;
}

/// Starts the daemon and makes each client's first, cold, full-config push.
struct Deployment {
  std::unique_ptr<InProcessDaemon> daemon;
  std::vector<std::unique_ptr<PushClient>> clients;
  double setup_seconds = 0;
};

Deployment deploy(const RunArgs& args, std::vector<std::string>& wrong) {
  Deployment d;
  const std::string socket = socket_path();
  const double t0 = now_seconds();
  d.daemon = std::make_unique<InProcessDaemon>(socket);
  for (int i = 0; i < kClients; ++i) {
    d.clients.push_back(std::make_unique<PushClient>(i, socket, args.seed));
    const Push first = d.clients.back()->first_push(wrong);
    if (first.failed) throw std::runtime_error("first push failed");
  }
  d.setup_seconds = now_seconds() - t0;
  return d;
}

/// Per-layer values of the traced pushes, the layer table and the spans.
void report_layers(const Phase& phase, const RunArgs& args, Metrics& m) {
  double parse = 0;
  double fingerprint = 0;
  double engine = 0;
  double solver = 0;
  double rtt = 0;
  std::vector<double> waits;
  std::vector<double> traced_warm;
  std::vector<double> untraced_warm;
  SpanLog log;
  for (const Push& p : phase.pushes) {
    if (!p.edit) (p.traced ? traced_warm : untraced_warm).push_back(p.end - p.start);
    if (!p.traced) continue;
    parse += p.parse;
    fingerprint += p.fingerprint;
    engine += p.engine;
    solver += p.solver;
    rtt += p.rtt;
    waits.push_back(p.wait * 1e3);
    const int push = static_cast<int>(log.spans().size());
    log.add({"push", p.start, p.end, -1, p.id});
    log.add({"mdl.parse", p.start, p.parsed, push, p.id});
    log.add({"svc.fingerprint", p.parsed, p.sent, push, p.id});
    log.add({"svc.check", p.sent, p.end, push, p.id});
  }
  log.write(span_path(args));
  const double n = std::max<double>(1, static_cast<double>(waits.size()));
  const auto ratio = [&](const char* hit, const char* miss) {
    const double h = phase.counter(hit);
    const double total = h + phase.counter(miss);
    return total > 0 ? h / total : 0;
  };
  double edits = 0;
  for (const Push& p : phase.pushes) edits += p.edit;
  edits = std::max(1.0, edits);
  const double batches = phase.counter("svc.batches_formed");
  const double pushes = static_cast<double>(phase.pushes.size());
  m["mdl.parse_s"] = {parse / n, "s"};
  m["svc.fingerprint_s"] = {fingerprint / n, "s"};
  m["svc.wait_ms"] = {median(waits), "ms"};
  m["svc.cache_hit_ratio"] = {ratio("svc.cache.hit", "svc.cache.miss"), "ratio"};
  m["svc.model_cache_hit_ratio"] = {ratio("svc.model_cache.hit", "svc.model_cache.miss"),
                                    "ratio"};
  m["svc.batches_per_push"] = {batches / pushes, "ratio"};
  m["svc.batch_size_mean"] = {batches > 0 ? phase.counter("svc.batch_size") / batches : 0,
                              "count"};
  m["inc.reused_per_edit"] = {
      phase.counter("inc.properties_reused") / (edits * (kServices - 1)), "ratio"};
  m["inc.invariants_revalidated"] = {phase.counter("inc.invariants_revalidated") / edits,
                                     "count"};
  m["inc.revalidation_failed"] = {phase.counter("inc.revalidation_failed") / edits, "count"};
  m["smt.solver_s"] = {solver / n, "s"};

  // Tracing overhead: traced against untraced warm pushes of the same run,
  // each timed whole (the traced one including its fingerprint probe).
  const double overhead = median(traced_warm) / median(untraced_warm) - 1;
  m["trace.overhead_ratio"] = {overhead, "ratio"};
  // Per traced push, server engines and service-plane wait split the
  // daemon round trip; the remainder is client-side time outside the calls.
  const double push_wall = n > 0 ? rtt / n + fingerprint / n : 0;
  print_layer_table("daemon_push, per traced push", push_wall,
                    {{"mdl.parse_s (client)", parse / n},
                     {"svc.fingerprint_s (probe)", fingerprint / n},
                     {"server engines (slowest)", engine / n},
                     {"svc.wait (service plane)", rtt / n - parse / n - engine / n}});
  double in_pushes = 0;
  for (const Push& p : phase.pushes) in_pushes += p.end - p.start;
  const double outside = (phase.wall * kClients - in_pushes) / pushes;
  m["trace.unattributed_s"] = {outside, "s"};
  std::printf("client loop time per push outside the push: %.6fs\n", outside);
  std::printf("tracing overhead: traced warm push p50 %+.1f%% against untraced\n",
              100 * overhead);
}

}  // namespace

double daemon_setup_seconds(const RunArgs& args) {
  std::vector<std::string> wrong;
  const Deployment d = deploy(args, wrong);
  if (!wrong.empty()) throw std::runtime_error(wrong.front());
  return d.setup_seconds;
}

RunResult run_daemon(const RunArgs& args, SetupSampler& setup) {
  RunResult result;
  Deployment d = deploy(args, result.wrong);
  std::vector<double> setup_samples{d.setup_seconds};
  const Phase phase = run_phase(d.clients, args.seconds, args.trace, result.wrong,
                                args.trace ? nullptr : &setup, setup_samples);
  d.clients.clear();
  d.daemon.reset();

  std::vector<double> warm;
  std::vector<double> edit;
  std::size_t decided = 0;
  std::size_t ontime = 0;
  for (const Push& p : phase.pushes) {
    (p.edit ? edit : warm).push_back(p.rtt * 1e3);
    decided += static_cast<std::size_t>(p.decided);
    ontime += !p.failed && p.rtt <= kPushDeadline + kSlack;
    result.failed += p.failed;
  }
  result.attempted = phase.pushes.size();
  const double pushes = static_cast<double>(phase.pushes.size());
  std::printf("daemon_push: %zu pushes (%zu edit, %zu warm) in %.2fs\n", phase.pushes.size(),
              edit.size(), warm.size(), phase.wall);
  std::printf("warm ms: p50 %.3f p90 %.3f p95 %.3f p98 %.3f p99 %.3f\n", percentile(warm, 50),
              percentile(warm, 90), percentile(warm, 95), percentile(warm, 98),
              percentile(warm, 99));
  std::printf("edit ms: p50 %.3f p90 %.3f p95 %.3f\n", percentile(edit, 50),
              percentile(edit, 90), percentile(edit, 95));
  if (args.trace) {
    report_layers(phase, args, result.metrics);
    return result;
  }
  result.metrics = {
      {"throughput_per_s", {pushes / phase.wall, "1/s"}},
      {"heavy_typical_ms", {percentile(edit, 50), "ms"}},
      {"heavy_tail_ms", {percentile(edit, 90), "ms"}},
      {"light_typical_ms", {percentile(warm, 50), "ms"}},
      // p90: warm p98 and p99 moved by 28% and 42% (quartile spread) across
      // runs on a shared 4-core VM; p90 by 15%.
      {"light_tail_ms", {percentile(warm, 90), "ms"}},
      {"decided_ratio", {static_cast<double>(decided) / (pushes * kServices), "ratio"}},
      {"ontime_ratio", {static_cast<double>(ontime) / pushes, "ratio"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
      {"setup_s", {median(setup_samples), "s"}},
  };
  return result;
}

}  // namespace perfbench
