#include "node/intra_agg.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "mpi/p2p.hpp"
#include "mpi/trace.hpp"

namespace parcoll::node {

namespace {

// Tags for the intra-node shipping protocol. They live on the node_comm
// context, so they can never collide with ext2ph's tags (which flow over
// the parent or leader communicator contexts).
constexpr int kTagHeader = 9001;
constexpr int kTagExtents = 9002;
constexpr int kTagData = 9003;
constexpr int kTagReply = 9004;

struct WireHeader {
  std::uint64_t n_extents = 0;
  std::uint64_t total_bytes = 0;
};

/// One node member's request as the leader sees it.
struct MemberReq {
  std::vector<fs::Extent> extents;
  std::uint64_t total_bytes = 0;         // announced payload size
  std::vector<std::byte> recv_data;      // shipped payload (writes, byte-true)
  const std::byte* data = nullptr;       // payload to merge from (may be null)
};

/// The node-level union request: sorted, coalesced extents plus prefix
/// sums locating each extent in the packed node stream.
struct Merged {
  std::vector<fs::Extent> extents;
  std::vector<std::uint64_t> prefix;
  std::uint64_t total = 0;

  /// Packed-stream position of file offset `off` (must lie inside an
  /// extent; every member piece does, by construction of the union).
  [[nodiscard]] std::uint64_t stream_pos(std::uint64_t off) const {
    auto it = std::upper_bound(
        extents.begin(), extents.end(), off,
        [](std::uint64_t v, const fs::Extent& e) { return v < e.offset; });
    const auto k = static_cast<std::size_t>(it - extents.begin()) - 1;
    return prefix[k] + (off - extents[k].offset);
  }
};

Merged merge_extents(const std::vector<MemberReq>& members) {
  Merged merged;
  std::size_t count = 0;
  for (const MemberReq& m : members) count += m.extents.size();
  std::vector<fs::Extent> all;
  all.reserve(count);
  for (const MemberReq& m : members) {
    all.insert(all.end(), m.extents.begin(), m.extents.end());
  }
  std::sort(all.begin(), all.end(),
            [](const fs::Extent& a, const fs::Extent& b) {
              return a.offset != b.offset ? a.offset < b.offset
                                          : a.length < b.length;
            });
  for (const fs::Extent& e : all) {
    if (e.length == 0) continue;
    if (!merged.extents.empty() && e.offset <= merged.extents.back().end()) {
      fs::Extent& last = merged.extents.back();
      last.length = std::max(last.end(), e.end()) - last.offset;
    } else {
      merged.extents.push_back(e);
    }
  }
  merged.prefix.reserve(merged.extents.size());
  for (const fs::Extent& e : merged.extents) {
    merged.prefix.push_back(merged.total);
    merged.total += e.length;
  }
  return merged;
}

/// Copy every member's packed stream into the union stream (later members
/// deterministically overwrite on overlap). Returns only the *leader's own*
/// staged bytes for the Intra time charge: shipped members already paid
/// their copy in the kTagData transfer — this models the shared-memory
/// window of the two-level design, where each member places its data
/// directly at its merged position, so shipping and staging are one copy,
/// not two. The leader stages its own request itself.
std::uint64_t stage_into(const std::vector<MemberReq>& members,
                         const Merged& merged, int leader_node_local,
                         std::byte* out) {
  std::uint64_t own_staged = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const MemberReq& m = members[i];
    std::uint64_t pos = 0;
    for (const fs::Extent& e : m.extents) {
      if (static_cast<int>(i) == leader_node_local) {
        own_staged += e.length;
      }
      if (out != nullptr && m.data != nullptr && e.length > 0) {
        std::memcpy(out + merged.stream_pos(e.offset), m.data + pos, e.length);
      }
      pos += e.length;
    }
  }
  return own_staged;
}

/// Copy one member's slices back out of the union stream (reads). Returns
/// bytes sliced; copies only when buffers are real.
std::uint64_t slice_from(const MemberReq& m, const Merged& merged,
                         const std::byte* in, std::byte* out) {
  std::uint64_t pos = 0;
  for (const fs::Extent& e : m.extents) {
    if (in != nullptr && out != nullptr && e.length > 0) {
      std::memcpy(out + pos, in + merged.stream_pos(e.offset), e.length);
    }
    pos += e.length;
  }
  return pos;
}

double memcpy_seconds(mpi::Rank& self, std::uint64_t bytes) {
  return static_cast<double>(bytes) /
         self.world().model().mem.memcpy_bandwidth;
}

/// Sole-leader fast path: when the whole communicator lives on one node,
/// the staged union request IS the group's file view — there is nobody to
/// exchange with, so the leader writes (or reads) it directly in
/// collective-buffer-sized batches instead of running a degenerate
/// self-exchange. This is the full payoff of intra-node aggregation for
/// single-node subgroups: collective I/O collapses into local I/O.
std::uint64_t run_sole_leader(mpi::Rank& self, mpiio::IoTarget& target,
                              const Merged& merged, std::byte* stream,
                              std::uint64_t cb_buffer_size, bool is_write) {
  std::uint64_t cycles = 0;
  std::size_t i = 0;
  std::uint64_t stream_off = 0;
  while (i < merged.extents.size()) {
    mpi::SpanGuard cycle_span(self, obs::SpanKind::Stage, "local-cycle",
                              /*group=*/-1,
                              static_cast<std::int64_t>(cycles));
    std::uint64_t batch = 0;
    std::size_t j = i;
    while (j < merged.extents.size() &&
           (batch == 0 ||
            batch + merged.extents[j].length <= cb_buffer_size)) {
      batch += merged.extents[j].length;
      ++j;
    }
    self.touch_bytes(static_cast<double>(batch));  // assembly cost
    const std::span<const fs::Extent> span(&merged.extents[i], j - i);
    std::byte* at = stream == nullptr ? nullptr : stream + stream_off;
    target.transfer(self, span, at, is_write);
    stream_off += batch;
    i = j;
    ++cycles;
  }
  return cycles;
}

/// Leader side: collect every node member's request. Slot order is
/// node_comm local rank order (the leader's own request included), so the
/// merge is deterministic.
std::vector<MemberReq> gather_member_requests(
    mpi::Rank& self, const NodeComm& nodes,
    const mpiio::CollRequest& own_request, bool expect_data) {
  mpi::P2PEngine& p2p = self.world().p2p();
  const bool byte_true = self.world().byte_true();
  const auto n = static_cast<std::size_t>(nodes.node_comm().size());
  std::vector<MemberReq> members(n);
  for (std::size_t m = 0; m < n; ++m) {
    if (static_cast<int>(m) == nodes.leader_node_local) {
      members[m].extents.assign(own_request.extents.begin(),
                                own_request.extents.end());
      members[m].data = own_request.data;
      continue;
    }
    WireHeader hdr;
    p2p.recv(self, nodes.node_comm(), static_cast<int>(m), kTagHeader, &hdr,
             sizeof hdr, mpi::TimeCat::Intra);
    members[m].extents.resize(hdr.n_extents);
    p2p.recv(self, nodes.node_comm(), static_cast<int>(m), kTagExtents,
             members[m].extents.data(), hdr.n_extents * sizeof(fs::Extent),
             mpi::TimeCat::Intra);
    members[m].total_bytes = hdr.total_bytes;
  }
  if (expect_data) {
    // The payloads arrive overlapped: each member copies into the node's
    // shared staging window from its own core, concurrently — the wall time
    // is the slowest member's copy, not the sum.
    std::vector<mpi::Request> pending;
    for (std::size_t m = 0; m < n; ++m) {
      if (static_cast<int>(m) == nodes.leader_node_local ||
          members[m].total_bytes == 0) {
        continue;
      }
      if (byte_true) {
        members[m].recv_data.resize(members[m].total_bytes);
      }
      pending.push_back(p2p.irecv(
          self, nodes.node_comm(), static_cast<int>(m), kTagData,
          byte_true ? members[m].recv_data.data() : nullptr,
          members[m].total_bytes, mpi::TimeCat::Intra));
      members[m].data = members[m].recv_data.data();
    }
    p2p.waitall(self, pending, mpi::TimeCat::Intra);
  }
  return members;
}

/// Non-leader side: ship the request description (and payload when
/// `with_data`) to the node leader. Returns the bytes shipped.
std::uint64_t ship_to_leader(mpi::Rank& self, const NodeComm& nodes,
                             const mpiio::CollRequest& request,
                             bool with_data) {
  mpi::P2PEngine& p2p = self.world().p2p();
  const WireHeader hdr{request.extents.size(), request.total_bytes()};
  const std::uint64_t extent_bytes = hdr.n_extents * sizeof(fs::Extent);
  p2p.send(self, nodes.node_comm(), nodes.leader_node_local, kTagHeader, &hdr,
           sizeof hdr, mpi::TimeCat::Intra);
  p2p.send(self, nodes.node_comm(), nodes.leader_node_local, kTagExtents,
           request.extents.data(), extent_bytes, mpi::TimeCat::Intra);
  std::uint64_t shipped = extent_bytes;
  if (with_data && hdr.total_bytes > 0) {
    p2p.send(self, nodes.node_comm(), nodes.leader_node_local, kTagData,
             request.data, hdr.total_bytes, mpi::TimeCat::Intra);
    shipped += hdr.total_bytes;
  }
  return shipped;
}

/// Leader side of a read: scatter each member's slice of the node stream
/// back, overlapped. Like the inbound staging, each member pulls its slice
/// out of the shared window from its own core, so the reply transfers carry
/// the copy cost and run concurrently. The leader only pays for its own
/// local slice.
void scatter_to_members(mpi::Rank& self, const NodeComm& nodes,
                        const std::vector<MemberReq>& members,
                        const Merged& merged, const std::byte* stream,
                        std::byte* own_out) {
  mpi::SpanGuard scatter_span(self, obs::SpanKind::Stage, "intra-scatter");
  mpi::P2PEngine& p2p = self.world().p2p();
  const bool byte_true = self.world().byte_true();
  std::uint64_t own_sliced = 0;
  std::vector<std::vector<std::byte>> replies(members.size());
  std::vector<mpi::Request> pending;
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (static_cast<int>(m) == nodes.leader_node_local) {
      own_sliced += slice_from(members[m], merged, stream, own_out);
      continue;
    }
    std::uint64_t member_bytes = 0;
    for (const fs::Extent& e : members[m].extents) member_bytes += e.length;
    if (member_bytes == 0) continue;
    auto& reply = replies[m];
    if (byte_true) {
      reply.resize(member_bytes);
      slice_from(members[m], merged, stream, reply.data());
    }
    pending.push_back(p2p.isend(self, nodes.node_comm(), static_cast<int>(m),
                                kTagReply,
                                reply.empty() ? nullptr : reply.data(),
                                member_bytes, mpi::TimeCat::Intra));
  }
  p2p.waitall(self, pending, mpi::TimeCat::Intra);
  self.busy(mpi::TimeCat::Intra, memcpy_seconds(self, own_sliced));
}

}  // namespace

mpiio::Ext2phOutcome two_level(mpi::Rank& self, const NodeComm& nodes,
                               mpiio::IoTarget& target,
                               const mpiio::CollRequest& request,
                               const mpiio::Ext2phOptions& leader_options,
                               bool is_write) {
  if (!nodes.i_lead()) {
    mpi::SpanGuard ship_span(self, obs::SpanKind::Stage, "intra-ship");
    mpiio::Ext2phOutcome outcome;
    outcome.intra_bytes = ship_to_leader(self, nodes, request, is_write);
    const std::uint64_t total = request.total_bytes();
    if (!is_write && total > 0) {
      self.world().p2p().recv(self, nodes.node_comm(), nodes.leader_node_local,
                              kTagReply, request.data, total,
                              mpi::TimeCat::Intra);
      outcome.intra_bytes += total;
    }
    return outcome;
  }
  if (nodes.node_comm().size() == 1) {
    // Lone member: nothing to merge, join the inter-node exchange as-is.
    return mpiio::ext2ph(self, nodes.leader_comm(), target, request,
                         leader_options, is_write);
  }
  std::vector<MemberReq> members;
  Merged merged;
  std::vector<std::byte> stream;
  std::byte* node_stream = nullptr;
  {
    mpi::SpanGuard gather_span(self, obs::SpanKind::Stage, "intra-gather");
    members = gather_member_requests(self, nodes, request, is_write);
    merged = merge_extents(members);
    if (self.world().byte_true() && merged.total > 0) {
      stream.assign(merged.total, std::byte{0});
      node_stream = stream.data();
    }
    if (is_write) {
      const std::uint64_t own_staged =
          stage_into(members, merged, nodes.leader_node_local, node_stream);
      self.busy(mpi::TimeCat::Intra, memcpy_seconds(self, own_staged));
    }
  }

  mpiio::Ext2phOutcome outcome;
  if (nodes.leader_comm().size() == 1) {
    outcome.cycles = run_sole_leader(self, target, merged, node_stream,
                                     leader_options.cb_buffer_size, is_write);
  } else {
    outcome = mpiio::ext2ph(self, nodes.leader_comm(), target,
                            mpiio::CollRequest{merged.extents, node_stream},
                            leader_options, is_write);
  }
  if (!is_write) {
    scatter_to_members(self, nodes, members, merged, node_stream,
                       request.data);
  }
  return outcome;
}

}  // namespace parcoll::node
