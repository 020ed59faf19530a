#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * values.size()));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double self_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value > base) delta[name] = value - base;
  }
  return delta;
}

int SpanLog::open(const std::string& name, const std::string& id, int parent) {
  spans_.push_back({name, now_seconds(), 0, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int span) { spans_[static_cast<std::size_t>(span)].end = now_seconds(); }

void SpanLog::write(const std::string& path) const {
  const std::size_t slash = path.rfind('/');
  if (slash != std::string::npos) {
    // mkdir -p of the parent directory.
    for (std::size_t i = 1; i <= slash; ++i)
      if (path[i] == '/' || i == slash) mkdir(path.substr(0, i).c_str(), 0755);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"start\": %.6f, \"end\": %.6f, \"parent\": %d, "
                 "\"id\": \"%s\"}%s\n",
                 s.name.c_str(), s.start - origin, s.end - origin, s.parent, s.id.c_str(),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

std::string span_path(const RunArgs& args) {
  const char* dir = std::getenv("CARGO_TARGET_DIR");
  return std::string(dir != nullptr && *dir != 0 ? dir : ".bench_build") +
         "/perfbench/spans-" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
}

void print_layer_table(const std::string& workload, double wall_seconds,
                       const std::vector<std::pair<std::string, double>>& layers) {
  std::printf("layer report: %s (traced wall %.3fs)\n", workload.c_str(), wall_seconds);
  std::printf("  %-28s %10s %8s\n", "layer", "seconds", "share");
  double attributed = 0;
  for (const auto& [name, seconds] : layers) {
    std::printf("  %-28s %10.4f %7.1f%%\n", name.c_str(), seconds,
                100.0 * seconds / wall_seconds);
    attributed += seconds;
  }
  std::printf("  %-28s %10.4f %7.1f%%\n", "(unattributed)", wall_seconds - attributed,
              100.0 * (wall_seconds - attributed) / wall_seconds);
}

}  // namespace perfbench
