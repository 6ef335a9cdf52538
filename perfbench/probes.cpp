#include "probes.hpp"

#include <chrono>
#include <span>
#include <vector>

#include "core/file_area.hpp"
#include "dtype/flatten.hpp"
#include "fault/fault.hpp"
#include "fs/integrity.hpp"
#include "mpi/runtime.hpp"
#include "node/nodecomm.hpp"

namespace perfbench {

namespace {

using namespace parcoll;
using Clock = std::chrono::steady_clock;

/// Repeat a probe until it has run this long (and at least kMinCalls
/// times), so sub-millisecond calls are timed over many repetitions.
constexpr double kMinProbeSeconds = 0.05;
constexpr int kMinCalls = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Mean seconds per call of `call`, repeated under one span.
template <typename Call>
double time_per_call(SpanRecorder* spans, const char* name, Call&& call) {
  auto scope = span(spans, name);
  const Clock::time_point start = Clock::now();
  int calls = 0;
  double elapsed = 0;
  while (calls < kMinCalls || elapsed < kMinProbeSeconds) {
    call();
    ++calls;
    elapsed = seconds_since(start);
  }
  return elapsed / calls;
}

/// The byte range and size each rank accesses in the workload's first
/// collective call.
std::vector<core::RankAccess> first_call_table(const Workload& workload) {
  std::vector<core::RankAccess> table(
      static_cast<std::size_t>(workload.nranks));
  for (int rank = 0; rank < workload.nranks; ++rank) {
    core::RankAccess& access = table[static_cast<std::size_t>(rank)];
    if (workload.btio) {
      const dtype::FlatType flat =
          dtype::FlatType::from(workload.bt.filetype(rank, workload.nranks));
      if (!flat.segs.empty()) {
        access.st = static_cast<std::uint64_t>(flat.segs.front().disp);
        access.end = static_cast<std::uint64_t>(flat.segs.back().end());
      }
      access.bytes = flat.size;
    } else {
      const std::uint64_t first = workload.ior.transfer_order(rank).front();
      access.st = static_cast<std::uint64_t>(rank) * workload.ior.block_size +
                  first * workload.ior.xfer_size;
      access.end = access.st + workload.ior.xfer_size;
      access.bytes = workload.ior.xfer_size;
    }
  }
  return table;
}

}  // namespace

PartitionProbe probe_partition(const Workload& workload, SpanRecorder* spans) {
  PartitionProbe probe;
  if (workload.spec.impl != wl::Impl::ParColl) return probe;
  const std::vector<core::RankAccess> table = first_call_table(workload);
  probe.seconds_per_call =
      time_per_call(spans, "core.partition_file_areas", [&] {
        probe.groups = core::partition_file_areas(
                           table, workload.spec.parcoll_groups,
                           workload.spec.min_group_size,
                           workload.spec.view_switch)
                           .num_groups;
      });
  return probe;
}

double probe_filetypes(const Workload& workload, SpanRecorder* spans) {
  std::uint64_t sink = 0;
  const double seconds = time_per_call(spans, "dtype.filetypes", [&] {
    for (int rank = 0; rank < workload.nranks; ++rank) {
      const dtype::Datatype type =
          workload.btio ? workload.bt.filetype(rank, workload.nranks)
                        : dtype::Datatype::bytes(workload.ior.block_size);
      sink += dtype::FlatType::from(type).segs.size();
    }
  });
  return sink > 0 ? seconds : 0.0;
}

double probe_make_node_comm(const Workload& workload, SpanRecorder* spans) {
  if (!workload.uses(Layer::Intranode)) return 0.0;
  constexpr int kCallsPerRank = 4;
  mpi::World world(workload.spec.model(workload.nranks), false);
  double busy = 0;
  int nodes = 0;
  {
    auto scope = span(spans, "node.make_node_comm");
    world.run([&](mpi::Rank& self) {
      // make_node_comm is local and never yields, so the clock around it
      // sees only this rank's call.
      const Clock::time_point start = Clock::now();
      for (int call = 0; call < kCallsPerRank; ++call) {
        nodes += node::make_node_comm(self, self.comm_world(),
                                      world.model().topology,
                                      workload.spec.intranode_leader)
                     .num_nodes();
      }
      busy += seconds_since(start);
    });
  }
  return nodes > 0 ? busy / (workload.nranks * kCallsPerRank) : 0.0;
}

double probe_integrity_register(const Workload& workload,
                                SpanRecorder* spans) {
  if (!workload.spec.integrity.enabled() || workload.btio) return 0.0;
  auto scope = span(spans, "fs.integrity.register_write+mark_landed");
  fault::FaultState faults;
  fs::IntegrityManager manager(workload.spec.integrity, &faults);
  std::vector<std::vector<std::uint64_t>> orders;
  for (int rank = 0; rank < workload.nranks; ++rank) {
    orders.push_back(workload.ior.transfer_order(rank));
  }
  const Clock::time_point start = Clock::now();
  for (std::uint64_t t = 0; t < workload.ior.transfers(); ++t) {
    for (int rank = 0; rank < workload.nranks; ++rank) {
      const fs::Extent extent{
          static_cast<std::uint64_t>(rank) * workload.ior.block_size +
              orders[static_cast<std::size_t>(rank)][t] *
                  workload.ior.xfer_size,
          workload.ior.xfer_size};
      (void)manager.register_write(rank, 0, std::span(&extent, 1), nullptr);
      manager.mark_landed(0, extent.offset, extent.length);
    }
  }
  return seconds_since(start);
}

}  // namespace perfbench
