// The verification service: cache-aware request scheduling on a shared
// worker pool, with batched session dispatch.
//
// svc::Service is the in-process core of verdictd (the daemon is a socket
// front-end over it, tools/verdictd.cpp) and is equally usable embedded —
// bench/svc_throughput drives it directly. One Service owns:
//
//   * a portfolio::ThreadPool — every admitted request becomes one pool job,
//     so K clients with N properties each saturate the hardware instead of
//     each spawning private solvers threads,
//   * a VerdictCache — requests are fingerprinted (svc/fingerprint.h) and
//     served from cache when a definitive verdict is known; identical
//     in-flight requests collapse to one solver run (single-flight). With a
//     segment file configured, the mmap'd segment (svc/segment.h) backs the
//     LRU and is the service's only persistence path,
//   * a bounded admission queue — at most `queue_limit` admitted-but-
//     unfinished requests; beyond that submit() rejects immediately with a
//     kUnknown outcome instead of letting latency grow without bound,
//   * per-request deadlines — the request's Deadline is combined with the
//     job's CancelToken, so both timeouts and server-side cancellation
//     (client hung up, drain) stop the engines at their existing poll sites,
//   * a batch coalescer — requests arriving within `batch_window_seconds`
//     that share a group fingerprint (system, engine, depth, deadline class)
//     are verified as ONE core::Session::check_all over a shared solver
//     unrolling instead of N independent core::check runs, then fanned back
//     out to their individual responses. Verdicts are identical to
//     one-at-a-time submission (the session crosscheck suite asserts parity);
//     only the cost profile changes. The per-property cache/ReuseHook
//     semantics are preserved: the batch runs with a SessionCache hook, so
//     each member still consults the verdict cache (and the incremental
//     reuse layer) before any engine runs and offers its fresh outcome back.
//
// drain() (also run by the destructor) stops admission, flushes any batch
// still coalescing, waits for every in-flight request, and flushes the
// segment to disk when one is configured — the graceful-SIGTERM path of
// verdictd.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/checker.h"
#include "core/session.h"
#include "portfolio/pool.h"
#include "svc/reuse.h"
#include "svc/segment.h"
#include "svc/verdict_cache.h"
#include "util/stopwatch.h"

namespace verdict::svc {

struct ServiceOptions {
  /// Pool workers (0 = portfolio::default_jobs()).
  std::size_t jobs = 0;
  /// Maximum admitted-but-unfinished requests; submit() rejects beyond it.
  std::size_t queue_limit = 64;
  /// Batch coalescing window in seconds. Requests submitted within this
  /// window that share a group fingerprint (same system, engine, depth, and
  /// deadline class) are dispatched as one core::Session::check_all over a
  /// shared unrolling. 0 disables batching (every request is its own
  /// single-flight cache computation — the PR-4 behavior).
  double batch_window_seconds = 0.0;
  /// Maximum members per batch; a full batch dispatches immediately instead
  /// of waiting out the window.
  std::size_t batch_max = 16;
  CacheOptions cache;
  /// When non-empty: the mmap'd persistent segment (svc/segment.h). Opened
  /// at construction (its entries warm the LRU), appended on every fresh
  /// definitive verdict so verdicts survive a crash, and flushed on drain().
  std::string segment_file;
};

/// One verification request: a property against a system. The system is
/// borrowed — it must stay alive until the request completes (wait()
/// returned, or `on_complete` fired for callers that never wait).
struct CheckRequest {
  const ts::TransitionSystem* system = nullptr;
  ltl::Formula property;
  core::Engine engine = core::Engine::kAuto;
  int max_depth = 50;
  util::Deadline deadline = util::Deadline::never();
  /// Run the opt/ pipeline before checking (core::CheckOptions::optimize).
  /// Not part of the request fingerprint (the optimizer is semantics-
  /// preserving, so both settings answer the same question), but
  /// optimize=false requests always recompute — bypassing the cache lookup
  /// and overwriting the shared entry — so --no-opt is a genuine escape
  /// hatch around optimizer bugs, cached or not. optimize=false requests are
  /// never batched either: the batch path is cache-mediated.
  bool optimize = true;
  /// Run the abs/ symmetry-reduction pass before checking
  /// (core::CheckOptions::abstract). Same cache contract as optimize:
  /// excluded from the request fingerprint (the abstraction is
  /// semantics-preserving), but abstract=false requests always recompute —
  /// bypassing the cache lookup and overwriting the shared entry — so
  /// --no-abs is a genuine escape hatch around abstraction bugs, cached or
  /// not. abstract=false requests are never batched either.
  bool abstract = true;
  /// Invoked exactly once when the response slot is filled: on the worker
  /// thread for computed/batched requests, on the submitting thread for
  /// admission rejects. Lets a caller that must not block — the epoll
  /// daemon — collect responses without parking a thread in wait(). Must not
  /// throw and must not call back into the Service.
  std::function<void()> on_complete;
};

struct CheckResponse {
  core::CheckOutcome outcome;
  bool cache_hit = false;
  /// Request bounced off the full admission queue; outcome is kUnknown.
  bool rejected = false;
  /// Admission-to-worker-pickup latency (0 for hits served at admission).
  double queue_seconds = 0.0;
};

class Service;
struct Batch;
struct BatchMember;

/// Ticket for one submitted request. cancel() stops the engines
/// cooperatively (for a batched request: cancels the shared session run only
/// once every member cancelled); wait() blocks for the response (immediately
/// available for rejected requests).
class PendingCheck {
 public:
  void cancel();
  [[nodiscard]] bool done() const;
  [[nodiscard]] CheckResponse wait();

 private:
  friend class Service;
  portfolio::JobHandle handle_;
  std::shared_ptr<CheckResponse> slot_;
  std::shared_ptr<BatchMember> member_;  // set iff the request was batched
};

class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  ~Service();  // drains

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admission-controlled asynchronous check.
  [[nodiscard]] PendingCheck submit(const CheckRequest& request);

  /// Blocking convenience: submit + wait.
  [[nodiscard]] CheckResponse check(const CheckRequest& request);

  /// Stops admitting, flushes coalescing batches, waits for every in-flight
  /// request, flushes the segment (ServiceOptions::segment_file) to disk.
  /// Idempotent.
  void drain();

  [[nodiscard]] VerdictCache& cache() { return *cache_; }

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::uint64_t requests() const;
  [[nodiscard]] std::uint64_t rejected() const;
  /// Batches dispatched (each one core::Session::check_all over >=1 members)
  /// and total members across them; `svc.batches_formed` / `svc.batch_size`
  /// publish the same numbers as counters.
  [[nodiscard]] std::uint64_t batches_formed() const;
  [[nodiscard]] std::uint64_t batched_requests() const;

  /// Installs the incremental re-verification hook (svc/reuse.h): cache
  /// misses first try a cross-version reuse, and fresh outcomes are enriched
  /// through it before storage. The hook is borrowed and must outlive every
  /// submitted request; install it before serving (not thread-safe against
  /// in-flight submits). nullptr uninstalls.
  void set_reuse(ReuseHook* reuse) { reuse_ = reuse; }

 private:
  struct Inflight;
  struct Batcher;

  [[nodiscard]] PendingCheck submit_batched(const CheckRequest& request,
                                            std::shared_ptr<CheckResponse> slot);
  void batcher_loop();
  void dispatch_batch(std::shared_ptr<Batch> batch);

  ServiceOptions options_;
  std::unique_ptr<SegmentStore> segment_;  // null without segment_file
  std::unique_ptr<VerdictCache> cache_;    // borrows segment_
  std::unique_ptr<portfolio::ThreadPool> pool_;
  std::unique_ptr<Inflight> inflight_;
  std::unique_ptr<Batcher> batcher_;  // null when batching is disabled
  ReuseHook* reuse_ = nullptr;
};

/// core::PropertyCacheHook adapter: lets a plain core::Session (verdictc in
/// local mode, embedded users) share the daemon's memoization layer. Not
/// single-flight — sessions are synchronous; it only consults/feeds the
/// VerdictCache (and through it the segment, when the cache has one).
class SessionCache final : public core::PropertyCacheHook {
 public:
  /// `reuse` (optional, borrowed) adds cross-version reuse on exact-match
  /// misses: a verdict carried over from a previous model version is served
  /// as a hit and re-inserted under the new request fingerprint.
  explicit SessionCache(VerdictCache& cache, ReuseHook* reuse = nullptr)
      : cache_(cache), reuse_(reuse) {}

  std::optional<core::CheckOutcome> lookup(const ts::TransitionSystem& system,
                                           const ltl::Formula& property,
                                           core::Engine engine, int max_depth) override;
  void store(const ts::TransitionSystem& system, const ltl::Formula& property,
             core::Engine engine, int max_depth,
             const core::CheckOutcome& outcome) override;

 private:
  VerdictCache& cache_;
  ReuseHook* reuse_ = nullptr;
};

}  // namespace verdict::svc
