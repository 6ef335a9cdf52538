#include "check/invariants.hpp"

#include <sstream>
#include <utility>

namespace parcoll::check {

void InvariantChecker::report(std::string invariant, std::string detail) {
  violations_.push_back(Violation{std::move(invariant), std::move(detail)});
}

void InvariantChecker::on_collective(int world_rank, std::uint64_t ctx,
                                     std::uint64_t seq, int kind,
                                     int comm_size,
                                     std::uint64_t members_hash) {
  ++checks_;
  if (partitioned_calls_.count({world_rank, ctx}) != 0) {
    std::ostringstream detail;
    detail << "rank " << world_rank << " reached ordinal " << seq
           << " (kind " << kind << ") on parent comm ctx " << ctx
           << " inside a partitioned call: its subgroup synchronized with "
              "the whole communicator";
    report("sync-scope", detail.str());
  }
  Site& site = colls_[SiteKey{ctx, seq}];
  if (site.arrived == 0) {
    site.kind = kind;
    site.comm_size = comm_size;
    site.hash = members_hash;
  } else if (!site.flagged && (site.kind != kind ||
                               site.comm_size != comm_size ||
                               site.hash != members_hash)) {
    site.flagged = true;
    std::ostringstream detail;
    detail << "rank " << world_rank << " reached ordinal " << seq
           << " on comm ctx " << ctx << " with kind " << kind << "/size "
           << comm_size << ", but an earlier member reached kind "
           << site.kind << "/size " << site.comm_size
           << (site.hash != members_hash ? " (different member sets)" : "");
    report("collective-match", detail.str());
  }
  ++site.arrived;
  if (!site.flagged && site.arrived > site.comm_size) {
    site.flagged = true;
    std::ostringstream detail;
    detail << "comm ctx " << ctx << " ordinal " << seq << ": "
           << site.arrived << " arrivals for a " << site.comm_size
           << "-member communicator (rank " << world_rank
           << " arrived twice?)";
    report("collective-match", detail.str());
  }
}

void InvariantChecker::on_agreement_round(
    const char* invariant, int world_rank, std::uint64_t ctx, int comm_size,
    std::uint64_t hash, std::map<SiteKey, Site>& sites,
    std::map<std::pair<std::uint64_t, int>, std::uint64_t>& rank_rounds) {
  ++checks_;
  const std::uint64_t round = rank_rounds[{ctx, world_rank}]++;
  Site& site = sites[SiteKey{ctx, round}];
  if (site.arrived == 0) {
    site.comm_size = comm_size;
    site.hash = hash;
  } else if (!site.flagged &&
             (site.hash != hash || site.comm_size != comm_size)) {
    site.flagged = true;
    std::ostringstream detail;
    detail << "rank " << world_rank << " disagrees with its peers on comm ctx "
           << ctx << " round " << round
           << " (split-brain: differing plan/roster hashes)";
    report(invariant, detail.str());
  }
  ++site.arrived;
}

void InvariantChecker::on_partition(int world_rank, std::uint64_t ctx,
                                    int comm_size, std::uint64_t plan_hash) {
  on_agreement_round("partition-agreement", world_rank, ctx, comm_size,
                     plan_hash, partitions_, partition_rounds_);
}

void InvariantChecker::on_reelection(int world_rank, std::uint64_t ctx,
                                     int comm_size,
                                     std::uint64_t roster_hash) {
  on_agreement_round("reelection-agreement", world_rank, ctx, comm_size,
                     roster_hash, reelections_, reelection_rounds_);
}

void InvariantChecker::on_error_agreement(int world_rank, std::uint64_t ctx,
                                          int comm_size,
                                          std::uint64_t outcome_word) {
  on_agreement_round("error-agreement", world_rank, ctx, comm_size,
                     outcome_word, error_agreements_, error_rounds_);
}

void InvariantChecker::on_partitioned_call_begin(int world_rank,
                                                 std::uint64_t parent_ctx) {
  partitioned_calls_.insert({world_rank, parent_ctx});
}

void InvariantChecker::on_partitioned_call_end(int world_rank,
                                               std::uint64_t parent_ctx) {
  partitioned_calls_.erase({world_rank, parent_ctx});
}

void InvariantChecker::finalize() {
  const auto flag_incomplete = [&](const char* what,
                                   std::map<SiteKey, Site>& sites) {
    for (auto& [key, site] : sites) {
      ++checks_;
      if (site.flagged || site.arrived == site.comm_size) {
        continue;
      }
      site.flagged = true;
      std::ostringstream detail;
      detail << what << " on comm ctx " << key.first << " ordinal "
             << key.second << ": only " << site.arrived << " of "
             << site.comm_size << " members participated";
      report("collective-complete", detail.str());
    }
  };
  flag_incomplete("collective", colls_);
  flag_incomplete("partition round", partitions_);
  flag_incomplete("re-election round", reelections_);
  flag_incomplete("error-agreement round", error_agreements_);
}

}  // namespace parcoll::check
