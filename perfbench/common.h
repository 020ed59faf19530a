// Shared pieces of the paper-workload benchmark: run arguments, summary
// statistics, the result line, and the in-memory span log of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
};

/// One named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What a workload hands back to main(): counts for the result line, the
/// metrics of the requested kind, and the failures that make it incorrect.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> wrong;  // one line per wrong or unconfirmed verdict
  Metrics metrics;
};

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 100].
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);

// --- process-level measurements ------------------------------------------------

double now_seconds();  // steady clock
/// Peak resident set of this process and of every waited-for child, MB.
double peak_rss_mb();
/// Peak resident set of this process alone, MB.
double self_rss_mb();

/// Counter deltas between two obs::counters_snapshot() calls.
std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after);

// --- traced run ---------------------------------------------------------------

/// One span: a layer call made by the benchmark, timed around the public
/// function. `parent` indexes the enclosing span in the same log (-1: none);
/// `id` names the check or push the span belongs to.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::string id;
};

/// Spans kept in memory for the whole run and written out once at the end.
class SpanLog {
 public:
  int open(const std::string& name, const std::string& id, int parent = -1);
  void close(int span);
  void add(Span span) { spans_.push_back(std::move(span)); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one JSON array to `path` (creating its directory).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Where the traced run writes its spans: a file under the benchmark's build
/// directory ($CARGO_TARGET_DIR, else .bench_build) in the working directory.
std::string span_path(const RunArgs& args);

/// Prints the per-layer table: each layer's summed seconds and its share of
/// the workload's wall time, then the unattributed remainder.
void print_layer_table(const std::string& workload, double wall_seconds,
                       const std::vector<std::pair<std::string, double>>& layers);

}  // namespace perfbench
