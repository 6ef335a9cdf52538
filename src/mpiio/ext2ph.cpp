#include "mpiio/ext2ph.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "mpi/collectives.hpp"
#include "mpi/p2p.hpp"
#include "mpi/trace.hpp"
#include "obs/metrics.hpp"
#include "sim/small_vector.hpp"

namespace parcoll::mpiio {

namespace {

constexpr int kTagReq = 1000;   // request-dissemination offset lists
constexpr int kTagData = 2000;  // + cycle index: exchange-phase payloads

/// Inline capacity of the per-call peer lists: the aggregators a rank
/// touches, the sources an aggregator hears from, their pieces. Longer
/// lists spill to the heap for that call only.
constexpr std::size_t kFew = 8;

/// A sub-extent of one rank's request, remembering where its bytes sit in
/// that rank's packed data stream.
struct Piece {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t stream_pos = 0;
};

/// Call `fn(begin, end, index)` for each nonempty piece of monotone
/// `extents` clipped to [lo, hi), where `index` is the piece's extent.
template <typename Fn>
void for_each_clipped(std::span<const fs::Extent> extents, std::uint64_t lo,
                      std::uint64_t hi, Fn&& fn) {
  // First extent whose end is beyond lo.
  const auto first = std::partition_point(
      extents.begin(), extents.end(),
      [lo](const fs::Extent& e) { return e.end() <= lo; });
  for (auto i = static_cast<std::size_t>(first - extents.begin());
       i < extents.size() && extents[i].offset < hi; ++i) {
    const std::uint64_t begin = std::max(extents[i].offset, lo);
    const std::uint64_t end = std::min(extents[i].end(), hi);
    if (begin < end) fn(begin, end, i);
  }
}

/// Call `fn(piece)` for each piece of my request inside [lo, hi), in
/// stream order; `prefix[i]` is the stream offset of extents[i].
template <typename Fn>
void for_each_piece(std::span<const fs::Extent> extents,
                    std::span<const std::uint64_t> prefix, std::uint64_t lo,
                    std::uint64_t hi, Fn&& fn) {
  for_each_clipped(extents, lo, hi,
                   [&](std::uint64_t begin, std::uint64_t end, std::size_t i) {
                     fn(Piece{begin, end - begin,
                              prefix[i] + (begin - extents[i].offset)});
                   });
}

/// Trivially copyable covered-range record for the st_loc/end_loc Allgather.
struct CoveredLoc {
  std::uint64_t st = 0;
  std::uint64_t end = 0;
};

/// Covered range [st_loc, end_loc) of each aggregator's file domain — the
/// first/last byte actually requested there (ROMIO's st_loc/end_loc) — and
/// the interleaving depth they imply (max cycles over aggregators).
struct CoveredRanges {
  std::vector<CoveredLoc> locs;  // by aggregator index
  std::uint64_t ntimes = 0;
};

/// One source's request pieces inside my file domain (aggregator side):
/// `count` extents from `first` on in Plan::received.
struct SourceExtents {
  int source = 0;  // local rank
  std::size_t first = 0;
  std::size_t count = 0;
};

/// A cycle's sizes as the sparse Alltoall carries them: (aggregator, bytes)
/// on the way out, (source, bytes) on the way in.
using SizeOut = sim::SmallVector<mpi::PeerValue<std::uint32_t>, kFew>;
using SizeIn = mpi::SharedSpan<mpi::PeerValue<std::uint32_t>>;

/// Everything both directions of the protocol share: the result of phases
/// 1-3 (range gathering, file-domain partitioning, request dissemination).
struct Plan {
  bool active = false;
  int me = -1;
  std::uint64_t min_st = 0;
  std::uint64_t max_end = 0;
  std::uint64_t fd_len = 0;
  std::uint64_t ntimes = 0;
  std::uint64_t cb_buffer_size = 0;  // window size
  int my_agg_index = -1;  // index into options.aggregators, or -1
  /// Windows walk each domain's covered range, not the whole domain, so
  /// sparse requests do not spin through empty cycles. Identical on every
  /// rank, so all of them share one copy (a private naggs-sized vector per
  /// rank is quadratic when every process aggregates on a wide comm).
  std::shared_ptr<const CoveredRanges> covered;
  sim::SmallVector<std::uint64_t, kFew> prefix;  // stream prefix of my extents
  /// Aggregator side: every source with pieces in my domain, ascending,
  /// and those pieces back to back.
  sim::SmallVector<SourceExtents, kFew> others;
  sim::SmallVector<fs::Extent, kFew> received;

  [[nodiscard]] std::span<const fs::Extent> extents_of(
      const SourceExtents& from) const {
    return {received.data() + from.first, from.count};
  }
  /// Cycle `t`'s collective-buffer window of aggregator `a`: the next
  /// cb_buffer_size bytes of its covered range (empty once exhausted).
  [[nodiscard]] CoveredLoc window(int a, std::uint64_t t) const {
    const CoveredLoc& loc = covered->locs[static_cast<std::size_t>(a)];
    if (loc.st >= loc.end) return {};
    const std::uint64_t lo = loc.st + t * cb_buffer_size;
    return {lo, std::min(loc.end, lo + cb_buffer_size)};
  }
  [[nodiscard]] std::uint64_t fd_start(int a) const {
    return std::min(max_end, min_st + static_cast<std::uint64_t>(a) * fd_len);
  }
  [[nodiscard]] std::uint64_t fd_end(int a) const {
    return std::min(max_end,
                    min_st + static_cast<std::uint64_t>(a + 1) * fd_len);
  }
  /// Aggregator domain index containing `offset`.
  [[nodiscard]] int agg_of(std::uint64_t offset, int naggs) const {
    if (offset <= min_st) return 0;
    const auto a = static_cast<int>((offset - min_st) / fd_len);
    return std::min(a, naggs - 1);
  }
};

struct RankRange {
  std::uint64_t st;
  std::uint64_t end;
};

Plan make_plan(mpi::Rank& self, const mpi::Comm& comm,
               const CollRequest& request, const Ext2phOptions& options) {
  if (!options.aggregators || options.aggregators->empty()) {
    throw std::invalid_argument("ext2ph: aggregator list must not be empty");
  }
  const std::vector<int>& aggregators = *options.aggregators;
  Plan plan;
  plan.me = comm.local_rank(self.rank());
  plan.cb_buffer_size = options.cb_buffer_size;
  const int naggs = static_cast<int>(aggregators.size());

  // Phase 1: file-range gathering.
  RankRange mine{std::numeric_limits<std::uint64_t>::max(), 0};
  if (!request.extents.empty()) {
    mine.st = request.extents.front().offset;
    mine.end = request.extents.back().end();
  }
  // Exchange bytes identical to a plain allgather; the last arriver folds
  // the P ranges once and every rank reads the two shared scalars.
  const auto bounds = mpi::coll_build<RankRange>(
      self, comm, mpi::CollKind::Allgather, mpi::detail::bytes_of(mine),
      [&](mpi::CollContribs all) {
        // Every member passes the same roster, so the build checks it once.
        if (!std::is_sorted(aggregators.begin(), aggregators.end())) {
          throw std::invalid_argument("ext2ph: aggregator list must be sorted");
        }
        RankRange folded{std::numeric_limits<std::uint64_t>::max(), 0};
        for (const auto& contribution : all) {
          const auto range = mpi::detail::scalar_from<RankRange>(contribution);
          if (range.end > range.st) {  // rank actually has data
            folded.st = std::min(folded.st, range.st);
            folded.end = std::max(folded.end, range.end);
          }
        }
        return folded;
      });
  plan.min_st = bounds->st;
  plan.max_end = bounds->end;
  if (plan.max_end <= plan.min_st) {
    return plan;  // nothing to do anywhere; every rank agrees
  }
  plan.active = true;

  // Phase 2: file-domain partitioning (even division among aggregators,
  // optionally rounded up to stripe boundaries for lock affinity).
  plan.fd_len =
      (plan.max_end - plan.min_st + static_cast<std::uint64_t>(naggs) - 1) /
      static_cast<std::uint64_t>(naggs);
  if (options.fd_alignment > 0) {
    const std::uint64_t align = options.fd_alignment;
    plan.fd_len = (plan.fd_len + align - 1) / align * align;
  }
  const auto agg_it =
      std::lower_bound(aggregators.begin(), aggregators.end(), plan.me);
  if (agg_it != aggregators.end() && *agg_it == plan.me) {
    plan.my_agg_index = static_cast<int>(agg_it - aggregators.begin());
  }

  // Stream prefix of my extents.
  plan.prefix.reserve(request.extents.size());
  std::uint64_t pos = 0;
  for (const fs::Extent& extent : request.extents) {
    plan.prefix.push_back(pos);
    pos += extent.length;
  }

  // Phase 3: request dissemination. Tell each aggregator which pieces of
  // my request fall inside its file domain (Alltoall of counts, then
  // point-to-point offset lists). Only the aggregators I touch get a
  // count, and only the sources that touch me send one. The lists go out
  // back to back from one buffer, in the order of `counts`.
  SizeOut counts;
  sim::SmallVector<fs::Extent, kFew> lists;
  if (!request.extents.empty()) {
    const int a_lo = plan.agg_of(mine.st, naggs);
    const int a_hi = plan.agg_of(mine.end - 1, naggs);
    for (int a = a_lo; a <= a_hi; ++a) {
      std::uint32_t n = 0;
      for_each_clipped(request.extents, plan.fd_start(a), plan.fd_end(a),
                       [&](std::uint64_t begin, std::uint64_t end,
                           std::size_t) {
                         lists.push_back(fs::Extent{begin, end - begin});
                         ++n;
                       });
      if (n > 0) {
        counts.push_back({aggregators[static_cast<std::size_t>(a)], n});
      }
    }
  }
  const auto incoming_counts = mpi::sparse_alltoall<std::uint32_t>(
      self, comm, std::span<const mpi::PeerValue<std::uint32_t>>(counts));

  sim::SmallVector<mpi::Request, 2 * kFew> requests;
  auto& p2p = self.world().p2p();
  if (plan.my_agg_index >= 0) {
    std::size_t total = 0;
    for (const auto& [source, n] : incoming_counts) {
      plan.others.push_back({source, total, n});
      total += n;
    }
    plan.received.resize(total);
    requests.reserve(plan.others.size() + counts.size());
    for (const SourceExtents& from : plan.others) {
      requests.push_back(p2p.irecv(self, comm, from.source, kTagReq,
                                   plan.received.data() + from.first,
                                   from.count * sizeof(fs::Extent)));
    }
  }
  const fs::Extent* list = lists.data();
  for (const auto& [agg_rank, n] : counts) {
    requests.push_back(p2p.isend(self, comm, agg_rank, kTagReq, list,
                                 n * sizeof(fs::Extent)));
    list += n;
  }
  p2p.waitall(self, requests);

  // Covered range of my domain (st_loc/end_loc), from the received request
  // lists; Allgather so every rank can compute every aggregator's windows.
  CoveredLoc my_loc{std::numeric_limits<std::uint64_t>::max(), 0};
  for (const SourceExtents& from : plan.others) {
    const auto extents = plan.extents_of(from);
    my_loc.st = std::min(my_loc.st, extents.front().offset);
    my_loc.end = std::max(my_loc.end, extents.back().end());
  }
  plan.covered = mpi::coll_build<CoveredRanges>(
      self, comm, mpi::CollKind::Allgather, mpi::detail::bytes_of(my_loc),
      [&](mpi::CollContribs all) {
        CoveredRanges covered;
        covered.locs.reserve(aggregators.size());
        for (int agg_rank : aggregators) {
          const auto loc = mpi::detail::scalar_from<CoveredLoc>(
              all[static_cast<std::size_t>(agg_rank)]);
          if (loc.end > loc.st) {
            covered.ntimes =
                std::max(covered.ntimes, (loc.end - loc.st +
                                          options.cb_buffer_size - 1) /
                                             options.cb_buffer_size);
          }
          covered.locs.push_back(loc);
        }
        return covered;
      });
  plan.ntimes = plan.covered->ntimes;
  return plan;
}

/// Merge the per-source window pieces an aggregator will handle this cycle.
struct WindowWork {
  struct Entry {
    std::uint64_t offset;
    std::uint64_t length;
    std::size_t slot;         // the source's index in Cycle::sources
    std::uint64_t msg_pos;    // byte position within that source's message
  };
  sim::SmallVector<Entry, kFew> entries;  // sorted by offset
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t total = 0;

  [[nodiscard]] bool empty() const { return entries.empty(); }
  [[nodiscard]] bool has_holes() const { return total != hi - lo; }
};

WindowWork gather_window_work(const Plan& plan, const SizeIn& sources,
                              std::uint64_t win_lo, std::uint64_t win_hi) {
  WindowWork work;
  // Both lists ascend by source, so each lookup resumes where the last
  // one stopped.
  const SourceExtents* from = plan.others.begin();
  for (std::size_t slot = 0; slot < sources.size(); ++slot) {
    const auto [source, bytes] = sources[slot];
    from = std::lower_bound(from, plan.others.end(), source,
                            [](const SourceExtents& list, int r) {
                              return list.source < r;
                            });
    std::uint64_t msg_pos = 0;
    if (from != plan.others.end() && from->source == source) {
      for_each_clipped(
          plan.extents_of(*from), win_lo, win_hi,
          [&](std::uint64_t begin, std::uint64_t end, std::size_t) {
            work.entries.push_back(
                WindowWork::Entry{begin, end - begin, slot, msg_pos});
            msg_pos += end - begin;
          });
    }
    if (msg_pos != bytes) {
      throw std::logic_error(
          "ext2ph: cycle size mismatch between alltoall and request lists");
    }
  }
  if (work.entries.empty()) return work;
  std::sort(work.entries.begin(), work.entries.end(),
            [](const WindowWork::Entry& a, const WindowWork::Entry& b) {
              return a.offset < b.offset;
            });
  work.lo = work.entries.front().offset;
  work.hi = 0;
  for (const auto& entry : work.entries) {
    work.hi = std::max(work.hi, entry.offset + entry.length);
    work.total += entry.length;
  }
  return work;
}

/// This rank's share of one aggregator's window in one cycle: the window,
/// whose pieces of this rank's request are clipped again where they are
/// packed or unpacked, and their total.
struct Share {
  int agg_rank = 0;
  std::uint64_t bytes = 0;
  CoveredLoc window;
};

/// One cycle after the Alltoall of sizes, as both directions see it.
struct Cycle {
  int tag = kTagData;
  sim::SmallVector<Share, kFew> shares;  // one per window I touch
  /// Aggregator side: every source with bytes in my window, ascending (a
  /// source's index here is its dense slot; empty on other ranks), and the
  /// window's merged entries.
  SizeIn sources;
  WindowWork work;
};

/// A write cycle's exchange and file I/O: the aggregator posts its
/// receives, every rank packs and sends its shares, and once all have
/// landed the aggregator fills its window's holes from the file
/// (read-modify-write), assembles the window and writes it.
void write_cycle(mpi::Rank& self, const mpi::Comm& comm, IoTarget& target,
                 const CollRequest& request, const Plan& plan,
                 const Cycle& cycle, std::vector<std::byte>& window_buffer,
                 Ext2phOutcome& outcome) {
  auto& p2p = self.world().p2p();
  // Whether to materialize exchange/window buffers (world property) and
  // whether this rank's outgoing payload is real.
  const bool byte_true = self.world().byte_true();
  const bool have_data = request.data != nullptr;
  sim::SmallVector<mpi::Request, 2 * kFew> requests;
  requests.reserve(cycle.sources.size() + cycle.shares.size());
  std::vector<std::vector<std::byte>> recv_buffers(
      byte_true ? cycle.sources.size() : 0);
  for (std::size_t slot = 0; slot < cycle.sources.size(); ++slot) {
    const auto [source, n] = cycle.sources[slot];
    std::byte* into = nullptr;
    if (byte_true) {
      recv_buffers[slot].resize(n);
      into = recv_buffers[slot].data();
    }
    requests.push_back(p2p.irecv(self, comm, source, cycle.tag, into, n));
  }
  std::vector<std::vector<std::byte>> send_buffers(
      have_data ? cycle.shares.size() : 0);
  for (std::size_t i = 0; i < cycle.shares.size(); ++i) {
    const Share& share = cycle.shares[i];
    if (have_data) {
      auto& buffer = send_buffers[i];
      buffer.resize(share.bytes);
      std::uint64_t pos = 0;
      for_each_piece(request.extents, plan.prefix, share.window.st,
                     share.window.end, [&](const Piece& piece) {
                       std::memcpy(buffer.data() + pos,
                                   request.data + piece.stream_pos,
                                   piece.length);
                       pos += piece.length;
                     });
    }
    self.touch_bytes(static_cast<double>(share.bytes));  // gather cost
    requests.push_back(p2p.isend(self, comm, share.agg_rank, cycle.tag,
                                 have_data ? send_buffers[i].data() : nullptr,
                                 share.bytes));
  }
  p2p.waitall(self, requests);

  const WindowWork& work = cycle.work;
  if (work.empty()) return;
  const fs::Extent span{work.lo, work.hi - work.lo};
  std::byte* window = nullptr;
  if (byte_true) {
    window_buffer.assign(span.length, std::byte{0});
    window = window_buffer.data();
  }
  if (work.has_holes()) {
    target.read(self, std::span(&span, 1), window);
    ++outcome.rmw_reads;
  }
  if (byte_true) {
    for (const auto& entry : work.entries) {
      std::memcpy(window + (entry.offset - work.lo),
                  recv_buffers[entry.slot].data() + entry.msg_pos,
                  entry.length);
    }
  }
  self.touch_bytes(static_cast<double>(work.total));
  target.write(self, std::span(&span, 1), window);
}

/// A read cycle's exchange and file I/O: every rank posts receives for its
/// shares, the aggregator reads its window's covered span and sends each
/// requester its slices, and once all have landed every rank unpacks its
/// shares into its stream.
void read_cycle(mpi::Rank& self, const mpi::Comm& comm, IoTarget& target,
                const CollRequest& request, const Plan& plan,
                const Cycle& cycle, std::vector<std::byte>& window_buffer) {
  auto& p2p = self.world().p2p();
  const bool byte_true = self.world().byte_true();
  const bool want_data = request.data != nullptr;
  sim::SmallVector<mpi::Request, 2 * kFew> requests;
  requests.reserve(cycle.shares.size() + cycle.sources.size());
  std::vector<std::vector<std::byte>> recv_buffers(
      want_data ? cycle.shares.size() : 0);
  for (std::size_t i = 0; i < cycle.shares.size(); ++i) {
    const Share& share = cycle.shares[i];
    std::byte* into = nullptr;
    if (want_data) {
      recv_buffers[i].resize(share.bytes);
      into = recv_buffers[i].data();
    }
    requests.push_back(
        p2p.irecv(self, comm, share.agg_rank, cycle.tag, into, share.bytes));
  }

  // One reply per requester, pieces in offset order: a requester's reply
  // holds exactly the bytes it announced in the sizes Alltoall.
  std::vector<std::vector<std::byte>> reply_buffers;
  const WindowWork& work = cycle.work;
  if (!work.empty()) {
    const fs::Extent span{work.lo, work.hi - work.lo};
    window_buffer.assign(byte_true ? span.length : 0, std::byte{0});
    target.read(self, std::span(&span, 1),
                byte_true ? window_buffer.data() : nullptr);
    if (byte_true) {
      reply_buffers.resize(cycle.sources.size());
      for (const auto& entry : work.entries) {
        auto& reply = reply_buffers[entry.slot];
        if (reply.capacity() == 0) {
          reply.reserve(cycle.sources[entry.slot].value);
        }
        const auto* begin = window_buffer.data() + (entry.offset - work.lo);
        reply.insert(reply.end(), begin, begin + entry.length);
      }
    }
    self.touch_bytes(static_cast<double>(work.total));
    for (std::size_t slot = 0; slot < cycle.sources.size(); ++slot) {
      const auto [source, bytes] = cycle.sources[slot];
      if (bytes == 0) continue;
      requests.push_back(p2p.isend(
          self, comm, source, cycle.tag,
          byte_true ? reply_buffers[slot].data() : nullptr, bytes));
    }
  }
  p2p.waitall(self, requests);

  if (!want_data) return;
  for (std::size_t i = 0; i < cycle.shares.size(); ++i) {
    const Share& share = cycle.shares[i];
    std::uint64_t pos = 0;
    for_each_piece(request.extents, plan.prefix, share.window.st,
                   share.window.end, [&](const Piece& piece) {
                     std::memcpy(request.data + piece.stream_pos,
                                 recv_buffers[i].data() + pos, piece.length);
                     pos += piece.length;
                   });
    self.touch_bytes(static_cast<double>(pos));
  }
}

}  // namespace

void DirectTarget::write(mpi::Rank& self, std::span<const fs::Extent> extents,
                         const std::byte* data) {
  const double start = self.now();
  const fs::IoResult r = fs_.write(self.rank(), file_id_, extents, data);
  self.times().add(mpi::TimeCat::IO, self.now() - start - r.faulted_seconds);
  if (r.faulted_seconds > 0) {
    self.times().add(mpi::TimeCat::Faulted, r.faulted_seconds);
  }
}

void DirectTarget::read(mpi::Rank& self, std::span<const fs::Extent> extents,
                        std::byte* out) {
  const double start = self.now();
  const fs::IoResult r = fs_.read(self.rank(), file_id_, extents, out);
  self.times().add(mpi::TimeCat::IO, self.now() - start - r.faulted_seconds);
  if (r.faulted_seconds > 0) {
    self.times().add(mpi::TimeCat::Faulted, r.faulted_seconds);
  }
}

Ext2phOutcome ext2ph(mpi::Rank& self, const mpi::Comm& comm, IoTarget& target,
                     const CollRequest& request, const Ext2phOptions& options,
                     bool is_write) {
  Ext2phOutcome outcome;
  const Plan plan = [&] {
    mpi::SpanGuard plan_span(self, obs::SpanKind::Stage, "plan");
    return make_plan(self, comm, request, options);
  }();
  if (!plan.active) return outcome;

  const int naggs = static_cast<int>(options.aggregators->size());
  int a_lo = 0;
  int a_hi = -1;
  if (!request.extents.empty()) {
    a_lo = plan.agg_of(request.extents.front().offset, naggs);
    a_hi = plan.agg_of(request.extents.back().end() - 1, naggs);
  }

  std::vector<std::byte> window_buffer;
  for (std::uint64_t t = 0; t < plan.ntimes; ++t) {
    const double cycle_begin = self.now();
    mpi::SpanGuard cycle_span(self, obs::SpanKind::Stage, "cycle",
                              /*group=*/-1, static_cast<std::int64_t>(t));
    Cycle cycle;
    cycle.tag = kTagData + static_cast<int>(t);
    // My pieces for each aggregator's current window, and their sizes.
    SizeOut sizes;
    for (int a = a_lo; a <= a_hi; ++a) {
      const CoveredLoc window = plan.window(a, t);
      if (window.st >= window.end) continue;
      Share share;
      share.window = window;
      for_each_piece(request.extents, plan.prefix, window.st, window.end,
                     [&](const Piece& piece) { share.bytes += piece.length; });
      if (share.bytes == 0) continue;
      share.agg_rank = (*options.aggregators)[static_cast<std::size_t>(a)];
      sizes.push_back(
          {share.agg_rank, static_cast<std::uint32_t>(share.bytes)});
      cycle.shares.push_back(share);
    }

    // Per-cycle coordination: the Alltoall of cycle sizes. This is the
    // synchronization the paper's collective wall is made of.
    cycle.sources = mpi::sparse_alltoall<std::uint32_t>(
        self, comm, std::span<const mpi::PeerValue<std::uint32_t>>(sizes));

    // The aggregator's own window: what each source has in it, merged.
    // Pure CPU, so doing it before a write's exchange moves no clock.
    if (plan.my_agg_index >= 0) {
      const CoveredLoc window = plan.window(plan.my_agg_index, t);
      if (window.st < window.end) {
        cycle.work =
            gather_window_work(plan, cycle.sources, window.st, window.end);
      }
    }

    if (is_write) {
      write_cycle(self, comm, target, request, plan, cycle, window_buffer,
                  outcome);
    } else {
      read_cycle(self, comm, target, request, plan, cycle, window_buffer);
    }
    ++outcome.cycles;
    if (auto* metrics = self.world().metrics()) {
      metrics->quantile("coll.cycle_s").observe(self.now() - cycle_begin);
    }
  }

  if (is_write) {
    // Trailing status agreement (ROMIO reduces error codes). Every status
    // here is 0, so the reduction is charged as one int per rank but
    // nobody sends or folds one.
    mpi::SpanGuard finalize_span(self, obs::SpanKind::Stage, "finalize",
                                 /*group=*/-1,
                                 static_cast<std::int64_t>(plan.ntimes));
    mpi::coll_exchange(self, comm, mpi::CollKind::Allreduce, {},
                       /*build=*/nullptr, sizeof(int));
  }
  return outcome;
}

}  // namespace parcoll::mpiio
