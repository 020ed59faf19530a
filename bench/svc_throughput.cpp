// Service-plane throughput — closed-loop load against a live verdictd.
//
// The paper's end state is verification inside the management plane,
// invoked on every config push; what matters there is not one check's
// latency but how many verification requests per second the service plane
// sustains. This bench stands up three servers on Unix sockets and drives
// each with closed-loop clients (every client: send request, wait for done,
// repeat):
//
//   baseline   thread-per-connection NDJSON server replicating the
//              pre-refactor daemon: one thread per accepted connection,
//              model text re-parsed on EVERY request, one pool submission
//              per property (no coalescing)
//   ndjson     the real epoll svc::Daemon, NDJSON debug wire
//   binary     the real epoll svc::Daemon, binary framing + batched
//              session dispatch (the production configuration)
//
// For each server the client count is swept and the best sustained QPS is
// its saturation throughput; per-request p50/p99 latency is reported at
// every point. The workload is warm-cache (the same model pushed
// repeatedly, every verdict served from the fingerprint cache) — the
// deployment-loop steady state.
//
// Acceptance gate (exit code): binary+batched saturation QPS >= 4x the
// thread-per-connection baseline, with verdicts identical everywhere.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/checker.h"
#include "mdl/vml.h"
#include "obs/json.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace {

using namespace verdict;

// The pushed "config": a model big enough that parsing it is real work —
// which is exactly what the pre-refactor daemon did per request and the
// epoll daemon's model cache amortizes. ~kModules independent bounded
// counters plus two LTL bound properties that k-induction proves quickly.
constexpr int kModules = 48;

std::string bench_model() {
  std::string vml;
  for (int i = 0; i < kModules; ++i) {
    const std::string m = "m" + std::to_string(i);
    vml += "module " + m + " {\n";
    vml += "  var c : 0..7;\n";
    vml += "  init c = 0;\n";
    vml += "  rule up when c < 7 { c' = c + 1; }\n";
    vml += "  rule reset when c = 7 { c' = 0; }\n";
    vml += "  stutter always;\n";
    vml += "}\n\n";
  }
  vml += "system {\n";
  vml += "  schedule interleaving;\n";
  vml += "  ltl head_bounded \"G (m0.c <= 7)\";\n";
  vml += "  ltl tail_bounded \"G (m" + std::to_string(kModules - 1) +
         ".c <= 7)\";\n";
  vml += "}\n";
  return vml;
}

const std::vector<std::string> kProps = {"head_bounded", "tail_bounded"};
constexpr int kDepth = 5;

// ---------------------------------------------------------------------------
// Baseline: the pre-refactor daemon shape. One blocking accept loop, one
// thread per connection, NDJSON lines, model parsed per request, one
// Service submission per property (batching off — it did not exist).
// ---------------------------------------------------------------------------
class BaselineServer {
 public:
  explicit BaselineServer(std::string socket_path)
      : socket_path_(std::move(socket_path)) {
    svc::ServiceOptions service_options;
    service_options.jobs = 0;
    service_options.batch_window_seconds = 0.0;  // pre-refactor: no batching
    service_ = std::make_unique<svc::Service>(service_options);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ::unlink(socket_path_.c_str());
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0)
      throw std::runtime_error("baseline server: cannot listen on " + socket_path_);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~BaselineServer() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : handlers_) t.join();
    service_->drain();
    ::unlink(socket_path_.c_str());
  }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR && !stopping_.load()) continue;
        return;  // listen socket shut down
      }
      std::lock_guard<std::mutex> lock(mu_);
      conn_fds_.push_back(fd);
      handlers_.emplace_back([this, fd] { handle_connection(fd); });
    }
  }

  static bool send_all(int fd, std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  void handle_connection(int fd) {
    std::string buffer;
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        if (!line.empty() && !handle_request(fd, line)) break;
      }
    }
    ::close(fd);
  }

  bool handle_request(int fd, const std::string& line) {
    const obs::JsonValue req = obs::parse_json(line);
    const std::string id = req["id"].is_string() ? req["id"].string : "";
    // Faithful to the old daemon: the model is parsed from scratch on every
    // request — there was no model cache.
    const mdl::VmlModel model = mdl::parse_vml(req["model"].string);
    const int depth =
        req["depth"].is_number() ? static_cast<int>(req["depth"].number) : 50;
    core::Engine engine = core::Engine::kAuto;
    if (req.has("engine"))
      engine = svc::engine_from_name(req["engine"].string).value_or(engine);

    std::vector<std::string> names;
    if (req["props"].is_array())
      for (const obs::JsonValue& p : req["props"].array) names.push_back(p.string);
    else
      for (const auto& [name, property] : model.ltl_properties) names.push_back(name);

    std::vector<svc::PendingCheck> pending;
    pending.reserve(names.size());
    for (const std::string& name : names) {
      svc::CheckRequest request;
      request.system = &model.system;
      request.property = model.ltl_properties.at(name);
      request.engine = engine;
      request.max_depth = depth;
      pending.push_back(service_->submit(request));
    }
    std::size_t cache_hits = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const svc::CheckResponse response = pending[i].wait();
      if (response.cache_hit) ++cache_hits;
      svc::WireVerdict v;
      v.prop = names[i];
      v.verdict = response.outcome.verdict;
      v.engine = response.outcome.stats.engine;
      v.message = response.outcome.message;
      v.cache_hit = response.cache_hit;
      if (!send_all(fd, svc::wire_verdict_line(id, v) + "\n")) return false;
    }
    obs::JsonWriter w;
    w.begin_object();
    w.kv("type", "done");
    w.kv("id", id);
    w.kv("served", pending.size());
    w.kv("cache_hits", cache_hits);
    w.end_object();
    return send_all(fd, w.str() + "\n");
  }

  std::string socket_path_;
  std::unique_ptr<svc::Service> service_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> handlers_;
};

// ---------------------------------------------------------------------------
// Closed-loop load generation.
// ---------------------------------------------------------------------------
struct LoadPoint {
  std::size_t clients = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t requests = 0;
  bool verdicts_ok = true;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

LoadPoint run_point(const std::string& socket_path, bool binary,
                    const std::string& model, std::size_t clients,
                    double seconds,
                    const std::vector<core::Verdict>& expected) {
  using Clock = std::chrono::steady_clock;
  LoadPoint point;
  point.clients = clients;
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<bool> ok{true};
  const Clock::time_point stop_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

  std::vector<std::thread> threads;
  threads.reserve(clients);
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        svc::ClientOptions options;
        options.binary = binary;
        options.connect_wait_seconds = 5.0;
        svc::Client client(socket_path, options);
        while (Clock::now() < stop_at) {
          const Clock::time_point t0 = Clock::now();
          const std::vector<svc::ClientVerdict> verdicts =
              client.check(model, kProps, core::Engine::kKInduction, kDepth, 0.0);
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
          latencies[c].push_back(ms);
          if (verdicts.size() != expected.size()) ok.store(false);
          for (std::size_t i = 0; i < verdicts.size() && i < expected.size(); ++i)
            if (verdicts[i].outcome.verdict != expected[i]) ok.store(false);
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "client: %s\n", error.what());
        ok.store(false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies)
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  std::sort(merged.begin(), merged.end());
  point.requests = merged.size();
  point.qps = elapsed > 0 ? static_cast<double>(merged.size()) / elapsed : 0.0;
  point.p50_ms = percentile(merged, 0.50);
  point.p99_ms = percentile(merged, 0.99);
  point.verdicts_ok = ok.load();
  return point;
}

struct ServerResult {
  std::string name;
  double saturation_qps = 0.0;
  bool ok = true;
  std::vector<LoadPoint> points;
};

ServerResult sweep(const std::string& name, const std::string& socket_path,
                   bool binary, const std::string& model,
                   const std::vector<std::size_t>& client_counts,
                   double seconds, const std::vector<core::Verdict>& expected,
                   bench::JsonRows& rows) {
  ServerResult result;
  result.name = name;
  // Warm-up: fill the verdict cache (and the daemon's model cache) and
  // confirm the verdicts once before measuring.
  {
    svc::ClientOptions options;
    options.binary = binary;
    options.connect_wait_seconds = 5.0;
    svc::Client client(socket_path, options);
    const std::vector<svc::ClientVerdict> verdicts =
        client.check(model, kProps, core::Engine::kKInduction, kDepth, 0.0);
    if (verdicts.size() != expected.size()) result.ok = false;
    for (std::size_t i = 0; i < verdicts.size() && i < expected.size(); ++i)
      if (verdicts[i].outcome.verdict != expected[i]) result.ok = false;
  }
  for (const std::size_t clients : client_counts) {
    const LoadPoint point =
        run_point(socket_path, binary, model, clients, seconds, expected);
    result.ok = result.ok && point.verdicts_ok;
    result.saturation_qps = std::max(result.saturation_qps, point.qps);
    result.points.push_back(point);
    std::printf("%-8s | %3zu clients | %8.0f QPS | p50 %7.3fms | p99 %7.3fms | %6zu reqs%s\n",
                name.c_str(), point.clients, point.qps, point.p50_ms, point.p99_ms,
                point.requests, point.verdicts_ok ? "" : "  VERDICT MISMATCH");
    rows.row([&](obs::JsonWriter& w) {
      w.kv("server", name);
      w.kv("clients", point.clients);
      w.kv("qps", point.qps);
      w.kv("p50_ms", point.p50_ms);
      w.kv("p99_ms", point.p99_ms);
      w.kv("requests", point.requests);
      w.kv("verdicts_ok", point.verdicts_ok);
    });
  }
  return result;
}

}  // namespace

int main() {
  bench::header("Service-plane throughput — closed-loop load, saturation QPS");

  const std::string model = bench_model();
  std::printf("model: %d modules, %zu bytes of vml; %zu props/request, "
              "k-induction depth %d, warm verdict cache\n",
              kModules, model.size(), kProps.size(), kDepth);

  // Expected verdicts, computed in-process once.
  const mdl::VmlModel parsed = mdl::parse_vml(model);
  std::vector<core::Verdict> expected;
  for (const std::string& prop : kProps)
    expected.push_back(core::check(parsed.system, parsed.ltl_properties.at(prop),
                                   {.engine = core::Engine::kKInduction,
                                    .max_depth = kDepth})
                           .verdict);

  std::vector<std::size_t> client_counts = {4, 16, 32};
  double seconds = 1.5;
  if (bench::smoke()) {
    client_counts = {8};  // CI canary: one concurrency level, short window
    seconds = 0.4;
  } else if (bench::full_sweep()) {
    client_counts = {1, 4, 16, 32, 64};
    seconds = 3.0;
  }

  char sock_dir[] = "/tmp/svc_throughput.XXXXXX";
  if (::mkdtemp(sock_dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dir(sock_dir);
  bench::JsonRows rows("svc_throughput");
  std::printf("\n%-8s | %11s | %12s | %11s | %11s | %s\n", "server", "load",
              "throughput", "p50", "p99", "volume");

  // Baseline: thread-per-connection, NDJSON, no batching, per-request parse.
  ServerResult baseline;
  {
    BaselineServer server(dir + "/baseline.sock");
    baseline = sweep("baseline", dir + "/baseline.sock", /*binary=*/false, model,
                     client_counts, seconds, expected, rows);
  }

  // The epoll daemon, NDJSON debug wire and binary+batched production wire.
  svc::DaemonOptions options;
  options.socket_path = dir + "/verdictd.sock";
  options.service.jobs = 0;
  options.service.batch_window_seconds = 0.002;
  options.service.batch_max = 32;
  svc::Daemon daemon(options);
  std::thread server_thread([&] { daemon.serve(); });
  const ServerResult ndjson = sweep("ndjson", options.socket_path, /*binary=*/false,
                                    model, client_counts, seconds, expected, rows);
  const ServerResult binary = sweep("binary", options.socket_path, /*binary=*/true,
                                    model, client_counts, seconds, expected, rows);
  const std::uint64_t batches = daemon.service().batches_formed();
  const std::uint64_t batched = daemon.service().batched_requests();
  daemon.request_stop();
  server_thread.join();
  ::rmdir(sock_dir);

  const double speedup =
      baseline.saturation_qps > 0 ? binary.saturation_qps / baseline.saturation_qps : 0.0;
  const bool verdicts_ok = baseline.ok && ndjson.ok && binary.ok;
  const bool fast_enough = speedup >= 4.0;
  std::printf("\nsaturation: baseline %.0f QPS, epoll+ndjson %.0f QPS, "
              "epoll+binary+batched %.0f QPS (%.1fx baseline, target >= 4x)\n",
              baseline.saturation_qps, ndjson.saturation_qps, binary.saturation_qps,
              speedup);
  std::printf("batches formed: %llu (%.1f requests/batch)\n",
              static_cast<unsigned long long>(batches),
              batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                          : 0.0);
  rows.row([&](obs::JsonWriter& w) {
    w.kv("summary", true);
    w.kv("baseline_qps", baseline.saturation_qps);
    w.kv("ndjson_qps", ndjson.saturation_qps);
    w.kv("binary_qps", binary.saturation_qps);
    w.kv("speedup", speedup);
    w.kv("batches_formed", batches);
    w.kv("verdicts_ok", verdicts_ok);
  });
  if (!verdicts_ok) std::printf("FAILED: verdict mismatch against in-process check\n");
  if (!fast_enough)
    std::printf("FAILED: binary+batched saturation below 4x the thread-per-connection "
                "baseline\n");
  return verdicts_ok && fast_enough ? 0 : 1;
}
