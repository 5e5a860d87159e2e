// The three benchmark workloads (see perfbench/README.md for why each
// exists and which settings each pins).
#pragma once

#include "report.hpp"

namespace perfbench {

/// Serving at 2 ms links: open-loop Poisson arrivals, then a burst.
Result run_serve_lan(const Args& args);

/// Multi-owner training service over loopback TCP.
Result run_train_tcp(const Args& args);

/// Engine training with computing party 1 running Case 3 corruption.
Result run_byzantine_lan(const Args& args);

}  // namespace perfbench
