#include "watchdog.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Reporter::line(const std::string& text) {
  std::string out = text;
  std::replace(out.begin(), out.end(), '\n', ' ');
  out.push_back('\n');
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = write(fd_, out.data() + done, out.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

void Reporter::verdict(const std::string& verdict, double seconds, bool confirmed,
                       const std::string& detail) {
  char head[128];
  std::snprintf(head, sizeof head, "verdict %s %.9f %d ", verdict.c_str(), seconds,
                confirmed ? 1 : 0);
  line(head + detail);
}

void Reporter::value(const std::string& name, double value) {
  char text[160];
  std::snprintf(text, sizeof text, "value %s %.9g", name.c_str(), value);
  line(text);
}

void Reporter::span(const std::string& name, double start, double end) {
  char text[256];
  std::snprintf(text, sizeof text, "span %s %.9f %.9f", name.c_str(), start, end);
  line(text);
}

namespace {

ChildReport parse_report(const std::string& text) {
  ChildReport report;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "verdict") {
      int confirmed = 0;
      in >> report.verdict >> report.seconds >> confirmed;
      report.confirmed = confirmed != 0;
      std::getline(in, report.detail);
      if (!report.detail.empty() && report.detail.front() == ' ') report.detail.erase(0, 1);
      report.has_verdict = !report.verdict.empty();
    } else if (kind == "value") {
      std::string name;
      double value = 0;
      if (in >> name >> value) report.values.emplace_back(name, value);
    } else if (kind == "span") {
      ChildReport::ChildSpan span;
      if (in >> span.name >> span.start >> span.end) report.spans.push_back(span);
    }
  }
  return report;
}

}  // namespace

WatchedRun run_watched(const std::function<void(Reporter&)>& body, double limit_seconds) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const double start = now_seconds();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    close(fds[0]);
    Reporter reporter(fds[1]);
    int code = 0;
    try {
      body(reporter);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: check threw: %s\n", error.what());
      code = 3;
    } catch (...) {
      code = 3;
    }
    close(fds[1]);
    _exit(code);  // no static destructors, no stdio flush of the parent's buffers
  }
  close(fds[1]);

  WatchedRun run;
  std::string text;
  char buffer[4096];
  for (;;) {
    const double left = limit_seconds - (now_seconds() - start);
    if (left <= 0) {
      kill(pid, SIGKILL);
      run.killed = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;  // timed out: the loop head kills
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child closed its end
    text.append(buffer, static_cast<std::size_t>(n));
  }
  if (run.killed) {
    // Drain what the child wrote before it died; EOF follows its death.
    for (;;) {
      const ssize_t n = read(fds[0], buffer, sizeof buffer);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      text.append(buffer, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall = now_seconds() - start;
  run.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.report = parse_report(text);
  if (!run.killed &&
      (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !run.report.has_verdict))
    run.crashed = true;
  return run;
}

SetupSampler::SetupSampler(std::function<double()> setup, double limit_seconds) {
  int requests[2];
  int replies[2];
  if (pipe(requests) != 0 || pipe(replies) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(requests[1]);
    close(replies[0]);
    char request = 0;
    // One sample per request byte, until the benchmark closes its end.
    while (read(requests[0], &request, 1) == 1) {
      const WatchedRun run = run_watched(
          [&](Reporter& r) { r.verdict("setup", setup(), false); }, limit_seconds);
      const double seconds =
          run.killed || run.crashed || !run.report.has_verdict ? -1 : run.report.seconds;
      if (write(replies[1], &seconds, sizeof seconds) != sizeof seconds) break;
    }
    _exit(0);
  }
  close(requests[0]);
  close(replies[1]);
  request_fd_ = requests[1];
  reply_fd_ = replies[0];
  pid_ = pid;
}

SetupSampler::~SetupSampler() {
  close(request_fd_);
  close(reply_fd_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double SetupSampler::sample() {
  const char request = 1;
  double seconds = -1;
  if (write(request_fd_, &request, 1) != 1 ||
      read(reply_fd_, &seconds, sizeof seconds) != sizeof seconds || seconds < 0)
    throw std::runtime_error("set-up sample failed");
  return seconds;
}

}  // namespace perfbench
