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

/// Two-level collective write (`is_write`) or read over `nodes.parent()`.
/// Every member must call with the same `leader_options`, whose aggregator
/// list is expressed in leader_comm-local ranks (see
/// NodeLayout::to_leader_locals), and the same direction. Leaders report
/// their ext2ph (or sole-leader) cycles and RMW fills; non-leaders report
/// only `intra_bytes`, the payload they moved intra-node.
mpiio::Ext2phOutcome two_level(mpi::Rank& self, const NodeComm& nodes,
                               mpiio::IoTarget& target,
                               const mpiio::CollRequest& request,
                               const mpiio::Ext2phOptions& leader_options,
                               bool is_write);

}  // namespace parcoll::node
