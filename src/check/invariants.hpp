// Collective-correctness invariants, checked online during a simulated run.
//
// The InvariantChecker is an observer the model checker (tools/parcoll_check)
// installs on a World. Hooks in mpi::CollEngine and core::run_collective_engine
// report what each rank believes is happening; the checker cross-checks the
// reports and records a Violation whenever ranks disagree:
//
//   collective-match      every member of a communicator reaches the same
//                         (kind, member set) at the same per-comm ordinal,
//                         and exactly comm-size members arrive.
//   partition-agreement   all members of a collective call compute the
//                         identical subgroup partition (groups, File Areas,
//                         aggregator roster).
//   reelection-agreement  all members of a subgroup agree on the agreed
//                         time and the re-elected aggregator roster
//                         (no split-brain), and every member participates.
//   error-agreement       after a collective error-reduction, every member
//                         holds the same outcome word (the same
//                         unrecoverable-corruption extent, or none), so a
//                         collective call throws on all ranks or on none.
//   sync-scope            between a rank's partition (or plan reuse) and
//                         the end of its partitioned call, the rank joins
//                         no collective on the parent communicator: each
//                         subgroup synchronizes only within itself.
//   collective-complete   finalize(): no collective op was left with some
//                         members arrived and others missing.
//
// Deadlock-freedom and file-content durability are whole-run properties the
// driver checks around the run (DeadlockError never thrown; the byte-true
// store audit passes and the content digest matches the clean reference).
//
// This header is free of simulator dependencies on purpose: hooks pass
// plain integers and precomputed hashes, so the checker can sit below
// mpi::/core:: without cycles and unit tests can drive it directly.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace parcoll::check {

struct Violation {
  std::string invariant;  // e.g. "collective-match"
  std::string detail;     // human-readable one-liner
};

class InvariantChecker {
 public:
  /// A rank enters a collective: `seq` is its per-communicator ordinal,
  /// `kind` the CollKind, `members_hash` a hash of the member list.
  void on_collective(int world_rank, std::uint64_t ctx, std::uint64_t seq,
                     int kind, int comm_size, std::uint64_t members_hash);

  /// A rank established a subgroup partition on communicator `ctx`;
  /// `plan_hash` digests the comm-global plan (mode, groups, FAs, rosters).
  void on_partition(int world_rank, std::uint64_t ctx, int comm_size,
                    std::uint64_t plan_hash);

  /// A rank finished a re-election round on subgroup communicator `ctx`;
  /// `roster_hash` digests (agreed time, resulting aggregator roster).
  void on_reelection(int world_rank, std::uint64_t ctx, int comm_size,
                     std::uint64_t roster_hash);

  /// A rank finished a collective error-agreement round on communicator
  /// `ctx`; `outcome_word` is the reduced error word (0 = no error).
  void on_error_agreement(int world_rank, std::uint64_t ctx, int comm_size,
                          std::uint64_t outcome_word);

  /// A rank entered the subgroup-local part of a partitioned call on
  /// parent communicator `parent_ctx`: until the matching
  /// on_partitioned_call_end, a collective it reaches on `parent_ctx`
  /// breaks sync-scope.
  void on_partitioned_call_begin(int world_rank, std::uint64_t parent_ctx);
  void on_partitioned_call_end(int world_rank, std::uint64_t parent_ctx);

  /// Call after World::run returns normally: flags collectives and
  /// agreement rounds where members are still missing.
  void finalize();

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// Number of invariant evaluations performed (throughput metric).
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  /// State of one matching site: whatever the first reporter claimed, plus
  /// the arrival count. Mismatches are recorded once per site.
  struct Site {
    int kind = 0;
    int comm_size = 0;
    std::uint64_t hash = 0;
    int arrived = 0;
    bool flagged = false;
  };
  using SiteKey = std::pair<std::uint64_t, std::uint64_t>;  // (ctx, ordinal)

  void report(std::string invariant, std::string detail);
  /// Shared match-or-flag logic for partition/re-election rounds, which are
  /// keyed by (ctx, per-rank round counter).
  void on_agreement_round(const char* invariant, int world_rank,
                          std::uint64_t ctx, int comm_size,
                          std::uint64_t hash,
                          std::map<SiteKey, Site>& sites,
                          std::map<std::pair<std::uint64_t, int>,
                                   std::uint64_t>& rank_rounds);

  std::map<SiteKey, Site> colls_;
  std::map<SiteKey, Site> partitions_;
  std::map<SiteKey, Site> reelections_;
  std::map<SiteKey, Site> error_agreements_;
  /// Per (ctx, rank) round counters for partition/re-election ordinals.
  std::map<std::pair<std::uint64_t, int>, std::uint64_t> partition_rounds_;
  std::map<std::pair<std::uint64_t, int>, std::uint64_t> reelection_rounds_;
  std::map<std::pair<std::uint64_t, int>, std::uint64_t> error_rounds_;
  /// (rank, parent ctx) of every partitioned call in progress.
  std::set<std::pair<int, std::uint64_t>> partitioned_calls_;
  std::vector<Violation> violations_;
  std::uint64_t checks_ = 0;
};

}  // namespace parcoll::check
