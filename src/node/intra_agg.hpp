// Intra-node request aggregation: the first level of two-level collective
// I/O.
//
// Non-leader processes ship their flattened request extents (and, for
// writes, the packed data stream) to their node leader over the cheap
// intra-node path; the leader merges all of its node's requests into one
// coalesced node-level request and joins the inter-node ext2ph exchange
// over the leader communicator. For reads the leader scatters each
// member's slice of the result back. Non-leaders never touch the network
// or the file system.
//
// All intra-node shipping and staging time is charged to TimeCat::Intra,
// so the cost of the extra level is visible next to the Sync time it
// removes.
#pragma once

#include <cstdint>

#include "mpiio/ext2ph.hpp"
#include "node/nodecomm.hpp"

namespace parcoll::node {

struct TwoLevelOutcome {
  std::uint64_t cycles = 0;       // ext2ph cycles (leaders; 0 on non-leaders)
  std::uint64_t rmw_reads = 0;    // aggregator RMW fills (leaders)
  std::uint64_t intra_bytes = 0;  // payload this rank moved intra-node
};

/// Two-level collective write over `nodes.parent()`. Every member must call
/// with the same `leader_options`, whose aggregator list is expressed in
/// leader_comm-local ranks (see NodeLayout::to_leader_locals).
TwoLevelOutcome two_level_write(mpi::Rank& self, const NodeComm& nodes,
                                mpiio::IoTarget& target,
                                const mpiio::CollRequest& request,
                                const mpiio::Ext2phOptions& leader_options);

/// Two-level collective read over `nodes.parent()`.
TwoLevelOutcome two_level_read(mpi::Rank& self, const NodeComm& nodes,
                               mpiio::IoTarget& target,
                               const mpiio::CollRequest& request,
                               const mpiio::Ext2phOptions& leader_options);

}  // namespace parcoll::node
