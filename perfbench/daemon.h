// The daemon_push workload: two closed-loop binary-wire clients pushing
// seeded configurations of 8 rollout services to an in-process svc::Daemon.
#pragma once

#include "common.h"
#include "watchdog.h"

namespace perfbench {

/// Set-up in this process: binds and starts the daemon and makes each
/// client's first, cold, full-config push. Returns the seconds it took.
double daemon_setup_seconds(const RunArgs& args);

/// Sets up in this process, then pushes for `args.seconds`; with
/// `args.trace`, every other edit-and-warm cycle is traced. Without tracing,
/// `setup` takes a set-up sample at each of the loop's pauses; setup_s is the
/// median of those samples and this process's own set-up.
RunResult run_daemon(const RunArgs& args, SetupSampler& setup);

}  // namespace perfbench
