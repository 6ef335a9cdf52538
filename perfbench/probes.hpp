// Per-layer host timings measured from outside the program: each probe
// calls one layer's public functions directly on the workload's own
// inputs and times them with the host steady clock. A probe returns 0 for
// a workload that bypasses its layer.
#pragma once

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct PartitionProbe {
  double seconds_per_call = 0;
  int groups = 0;  // groups the planner chose on the workload's table
};

/// core::partition_file_areas on the workload's first-call RankAccess
/// table (ParColl workloads only).
[[nodiscard]] PartitionProbe probe_partition(const Workload& workload,
                                             SpanRecorder* spans);

/// Build and flatten every rank's filetype once; seconds per pass.
[[nodiscard]] double probe_filetypes(const Workload& workload,
                                     SpanRecorder* spans);

/// node::make_node_comm over the workload's communicator, called by every
/// rank of a world the probe builds itself; seconds per call (workloads
/// with intra-node aggregation on only).
[[nodiscard]] double probe_make_node_comm(const Workload& workload,
                                          SpanRecorder* spans);

/// IntegrityManager::register_write + mark_landed replayed over the
/// workload's write extents; seconds per replay (integrity workloads only).
[[nodiscard]] double probe_integrity_register(const Workload& workload,
                                              SpanRecorder* spans);

}  // namespace perfbench
