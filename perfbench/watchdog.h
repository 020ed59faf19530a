// Out-of-process watchdog: every check of the batch workloads runs in a child
// forked from the single-threaded benchmark process. The parent kills a child
// that is still running at its limit, so a check that ignores its deadline
// (an unabortable BDD sift, say) is counted as killed instead of hanging the
// run, and each check starts from the same parent state.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

/// The child's side of the pipe: one text line per record, written at once,
/// so whatever the child reported before a kill still reaches the parent.
class Reporter {
 public:
  explicit Reporter(int fd) : fd_(fd) {}
  void verdict(const std::string& verdict, double seconds, bool confirmed,
               const std::string& detail = "");
  /// A per-layer value, summed by name across checks in the parent.
  void value(const std::string& name, double value);
  /// A finished span (steady-clock seconds, shared with the parent); its
  /// parent is the check's own span.
  void span(const std::string& name, double start, double end);

 private:
  void line(const std::string& text);
  int fd_;
};

struct ChildReport {
  bool has_verdict = false;
  std::string verdict;  // "holds", "violated" or "undecided"
  double seconds = 0;   // time to verdict as the child measured it
  bool confirmed = false;
  std::string detail;
  std::vector<std::pair<std::string, double>> values;
  struct ChildSpan {
    std::string name;
    double start = 0;
    double end = 0;
  };
  std::vector<ChildSpan> spans;
};

struct WatchedRun {
  bool killed = false;  // still running at the limit
  bool crashed = false; // exited without a verdict, or abnormally
  double wall = 0;      // fork to exit, as the parent saw it
  double rss_mb = 0;    // the child's ru_maxrss
  ChildReport report;
};

/// Forks, runs `body` in the child and waits at most `limit_seconds` for it.
WatchedRun run_watched(const std::function<void(Reporter&)>& body, double limit_seconds);

/// Samples a workload's set-up in fresh processes at any point of a run. The
/// constructor forks a server process while the benchmark is still pristine
/// (single-threaded, no input built yet); each sample() has that server run
/// `setup` (which returns its seconds) in a watched child of its own. So every
/// sample starts from the same cold state, however far the run has got, and
/// the benchmark process may be multi-threaded by then.
class SetupSampler {
 public:
  SetupSampler(std::function<double()> setup, double limit_seconds);
  ~SetupSampler();  // stops the server and waits for it
  SetupSampler(const SetupSampler&) = delete;
  SetupSampler& operator=(const SetupSampler&) = delete;

  /// One set-up sample, in seconds. Throws if the set-up failed or overran.
  double sample();

 private:
  int request_fd_ = -1;
  int reply_fd_ = -1;
  int pid_ = -1;
};

}  // namespace perfbench
