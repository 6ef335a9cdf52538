// MPI_Info-style hints controlling collective buffering, striping, and the
// ParColl extensions.
//
// The ROMIO-compatible keys (cb_buffer_size, cb_nodes, striping_factor,
// striping_unit) keep their usual meaning. Following paper §4.2, an
// application may pass either the number of aggregators to take from the
// default node list (cb_nodes) or an explicit list of physical nodes
// (cb_node_list). ParColl adds its own keys without altering the semantics
// of the existing ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bb/options.hpp"
#include "fs/integrity.hpp"
#include "node/options.hpp"

namespace parcoll::mpiio {

struct Hints {
  /// Collective buffer per aggregator per cycle (ROMIO default 4 MB).
  std::uint64_t cb_buffer_size = 4ull << 20;
  /// Number of aggregator nodes, taken from the head of the default node
  /// list; 0 = all nodes (the Cray XT default behaviour in the paper).
  int cb_nodes = 0;
  /// Explicit aggregator node list; overrides cb_nodes when non-empty.
  std::vector<int> cb_node_list;

  /// Lustre striping applied at create time.
  int striping_factor = 64;
  std::uint64_t striping_unit = 4ull << 20;

  /// romio_cb_write / romio_cb_read: when false, the corresponding
  /// collective calls are serviced locally with data sieving (no
  /// coordination), as ROMIO degrades them.
  bool cb_write_enabled = true;
  bool cb_read_enabled = true;
  /// romio_no_indep_rw: the application promises no independent I/O, so
  /// non-aggregator processes defer the (metadata-costly) file open.
  bool no_indep_rw = false;
  /// Align file-domain boundaries to the file's stripe size (the
  /// Lustre-aware ADIO optimization). Off by default, as in classic ROMIO.
  bool cb_fd_align = false;

  /// Two-level collective I/O: aggregate requests within each physical
  /// node (over memory) before the inter-node exchange, so only one
  /// process per node joins the coordination collectives and the data
  /// redistribution. Off by default — the historical single-level
  /// protocol, bit-identical output and timing.
  node::IntranodeMode cb_intranode = node::IntranodeMode::Off;
  /// Which process of a node leads its intra-node aggregation.
  node::LeaderPolicy cb_intranode_leader = node::LeaderPolicy::Lowest;

  // --- ParColl extensions (this paper) ---
  /// Number of subgroups (ParColl-N in the paper's figures). 0 disables
  /// partitioning (plain ext2ph); -1 ("auto") lets the planner pick from
  /// the access pattern: as many clean-split groups as the least group
  /// size permits, or ~sqrt(P) groups under the intermediate view.
  int parcoll_num_groups = 0;
  /// Lower bound on subgroup size; the paper runs with "a least group size
  /// of 8". Requested group counts are clamped to respect it.
  int parcoll_min_group_size = 8;
  /// Permit the intermediate-file-view switch for scattered patterns
  /// (paper Fig. 4c). When false, patterns whose file areas intersect fall
  /// back to fewer (possibly one) subgroups.
  bool parcoll_view_switch = true;
  /// Reuse the subgroup partition across collective calls on the same file
  /// view (the paper ties pattern detection to view initiation). With it,
  /// only the first call pays a global exchange; later calls synchronize
  /// within subgroups only, letting groups drift past slow storage epochs.
  /// Disable when successive calls change the rank-to-offset ordering.
  bool parcoll_persistent_groups = true;

  /// ParColl partitioning is in effect: more than one group, or "auto".
  [[nodiscard]] bool partitioned() const {
    return parcoll_num_groups > 1 || parcoll_num_groups == -1;
  }

  // --- Burst-buffer staging tier (node-local write-behind) ---
  /// Off by default: writes go straight to the filesystem, bit-identical
  /// to the historical path. With `bb=enable`, collective writes land in a
  /// capacity-limited per-node staging store and return; a background
  /// drain writes them to Lustre under `bb_drain` policy. Keys:
  /// `bb` (enable/disable), `bb_capacity` (bytes per node),
  /// `bb_drain` (immediate|watermark|deadline|arbitrate),
  /// `bb_hi_watermark` / `bb_lo_watermark` (capacity fractions),
  /// `bb_deadline` (seconds before a staged segment must start draining).
  bb::BbConfig bb;

  // --- End-to-end data integrity (checksum pipeline) ---
  /// Off by default: no checksums, bit-identical to the historical path.
  /// Keys: `integrity` (off|detect|repair) — detect verifies user data at
  /// every relay hop and reports unrecoverable corruption as a collective
  /// error; repair additionally heals mismatches from the retained source
  /// replica. `integrity_block` (checksum block bytes), `scrub`
  /// (enable/disable the background scrubber after media events).
  fs::IntegrityConfig integrity;

  /// MPI_Info-style string interface. Unknown keys throw; values that can
  /// never be valid (zero cb_buffer_size, non-positive group counts other
  /// than "auto") throw std::invalid_argument at set time and leave the
  /// hint as it was.
  void set(const std::string& key, const std::string& value);
  [[nodiscard]] std::string get(const std::string& key) const;

  /// Whole-struct validation against the opening communicator's size.
  /// Called at file-open time; throws std::invalid_argument with the
  /// offending key and value on the first violation.
  void validate(int comm_size) const;
};

}  // namespace parcoll::mpiio
