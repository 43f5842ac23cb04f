// Workload composition: concatenate phases.  Used to build regime-switching
// scenarios from generated or loaded traces while keeping IDs unique and
// order invariants intact.
#pragma once

#include "workload/job.hpp"

namespace es::workload {

/// Appends `tail` after `base` in time: every tail timestamp is shifted so
/// its first arrival lands `gap` seconds after base's last nominal
/// completion, and tail job IDs are renumbered to continue base's.
/// Machine geometry is taken from `base` (they must agree if both set).
Workload concatenate(const Workload& base, const Workload& tail,
                     double gap = 0.0);

}  // namespace es::workload
