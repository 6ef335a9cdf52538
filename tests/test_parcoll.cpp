// ParColl end-to-end: partitioned collective writes/reads must be
// byte-identical to the plain protocol across access patterns and group
// counts. ParColl instruments the internals only — it must not alter
// MPI-IO semantics (paper §4).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/parcoll.hpp"
#include "core/subgroup.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::core {
namespace {

constexpr std::uint64_t kSalt = 0xAB;

enum class Pattern { Serial, Tiled, Scattered };

const char* to_string(Pattern pattern) {
  switch (pattern) {
    case Pattern::Serial:
      return "Serial";
    case Pattern::Tiled:
      return "Tiled";
    case Pattern::Scattered:
      return "Scattered";
  }
  return "?";
}

/// Set a file view producing the requested pattern for `rank`; returns the
/// bytes this rank moves per call.
std::uint64_t apply_pattern(mpiio::FileHandle& file, Pattern pattern, int rank,
                            int nranks) {
  using dtype::Datatype;
  switch (pattern) {
    case Pattern::Serial: {
      // Rank r owns a contiguous 4 KiB block.
      file.set_view(static_cast<std::uint64_t>(rank) * 4096, 1,
                    Datatype::bytes(4096));
      return 4096;
    }
    case Pattern::Tiled: {
      // 2-D tiles: rows of `per_row` tiles of 4x(64B) rows.
      const int per_row = 4;
      const int rows = nranks / per_row;
      const std::int64_t sizes[2] = {4 * rows, 64 * per_row};
      const std::int64_t subsizes[2] = {4, 64};
      const std::int64_t starts[2] = {(rank / per_row) * 4,
                                      (rank % per_row) * 64};
      file.set_view(0, 1,
                    Datatype::subarray(sizes, subsizes, starts,
                                       Datatype::bytes(1)));
      return 4 * 64;
    }
    case Pattern::Scattered: {
      // Rank r owns every nranks-th 128B slot: spans the whole file.
      const Datatype slot = Datatype::resized(
          Datatype::bytes(128), 0, static_cast<std::uint64_t>(nranks) * 128);
      file.set_view(static_cast<std::uint64_t>(rank) * 128, 1, slot);
      return 16 * 128;  // 16 slots
    }
  }
  return 0;
}

struct PatternRun {
  bool write_verified = true;
  bool read_verified = true;
  mpiio::FileStats stats;
  CollectiveOutcome outcome;
};

PatternRun run_pattern(Pattern pattern, int nranks, int groups,
                       bool view_switch = true) {
  mpi::World world(machine::MachineModel::jaguar(nranks));
  mpiio::Hints hints;
  hints.parcoll_num_groups = groups;
  hints.parcoll_min_group_size = 2;
  hints.parcoll_view_switch = view_switch;
  hints.cb_buffer_size = 1024;  // small buffer: several cycles per call
  PatternRun result;

  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "parcoll.dat", hints);
    const std::uint64_t bytes =
        apply_pattern(file, pattern, self.rank(), nranks);
    const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
    const auto extents = file.view().map(0, bytes);

    std::vector<std::byte> buffer(bytes);
    workloads::fill_buffer_for_extents(buffer.data(), memtype, 1, extents,
                                       kSalt);
    const auto outcome = write_at_all(file, 0, buffer.data(), 1, memtype);
    if (self.rank() == 0) result.outcome = outcome;
    mpi::barrier(self, self.comm_world());

    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    result.write_verified =
        result.write_verified && store != nullptr &&
        workloads::verify_store(*store, file.fs_id(), extents, kSalt);

    std::vector<std::byte> back(bytes);
    read_at_all(file, 0, back.data(), 1, memtype);
    result.read_verified =
        result.read_verified &&
        workloads::check_buffer_for_extents(back.data(), memtype, 1, extents,
                                            kSalt);
    mpi::barrier(self, self.comm_world());  // all deltas recorded
    if (self.rank() == 0) result.stats = file.stats();
    file.close();
  });
  return result;
}

class ParcollPatternTest
    : public ::testing::TestWithParam<std::tuple<Pattern, int, int>> {};

TEST_P(ParcollPatternTest, WriteAndReadAreByteCorrect) {
  const auto [pattern, nranks, groups] = GetParam();
  const PatternRun run = run_pattern(pattern, nranks, groups);
  EXPECT_TRUE(run.write_verified);
  EXPECT_TRUE(run.read_verified);
}

INSTANTIATE_TEST_SUITE_P(
    PatternsByGroups, ParcollPatternTest,
    ::testing::Combine(::testing::Values(Pattern::Serial, Pattern::Tiled,
                                         Pattern::Scattered),
                       ::testing::Values(8, 16),
                       ::testing::Values(0, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Pattern, int, int>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_P" +
             std::to_string(std::get<1>(info.param)) + "_G" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Parcoll, SerialPatternUsesDirectMode) {
  const PatternRun run = run_pattern(Pattern::Serial, 8, 4);
  EXPECT_EQ(run.outcome.mode, PartitionMode::Direct);
  EXPECT_EQ(run.outcome.num_groups, 4);
  EXPECT_EQ(run.stats.view_switches, 0u);
  EXPECT_EQ(run.stats.parcoll_calls, 2u);  // write + read
}

TEST(Parcoll, ScatteredPatternSwitchesViews) {
  const PatternRun run = run_pattern(Pattern::Scattered, 8, 4);
  EXPECT_EQ(run.outcome.mode, PartitionMode::Intermediate);
  EXPECT_EQ(run.stats.view_switches, 2u);  // write + read
}

TEST(Parcoll, ScatteredWithoutViewSwitchFallsBackToSingleGroup) {
  const PatternRun run =
      run_pattern(Pattern::Scattered, 8, 4, /*view_switch=*/false);
  EXPECT_TRUE(run.write_verified);
  EXPECT_TRUE(run.read_verified);
  EXPECT_EQ(run.outcome.mode, PartitionMode::SingleGroup);
}

TEST(Parcoll, BaselineWithoutGroupsIsSingleGroup) {
  const PatternRun run = run_pattern(Pattern::Tiled, 8, 0);
  EXPECT_EQ(run.outcome.mode, PartitionMode::SingleGroup);
  EXPECT_EQ(run.stats.parcoll_calls, 0u);
}

TEST(Parcoll, TiledMoreGroupsThanRowsSwitchesViews) {
  // 16 ranks in 4 rows: 8 groups exceed the 3 clean splits.
  const PatternRun run = run_pattern(Pattern::Tiled, 16, 8);
  EXPECT_TRUE(run.write_verified);
  EXPECT_EQ(run.outcome.mode, PartitionMode::Intermediate);
}

TEST(Parcoll, DecisionIntrospectionMatchesRun) {
  mpi::World world(machine::MachineModel::jaguar(8));
  mpiio::Hints hints;
  hints.parcoll_num_groups = 4;
  hints.parcoll_min_group_size = 2;
  ParcollDecision decision;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "decide.dat", hints);
    apply_pattern(file, Pattern::Serial, self.rank(), 8);
    const auto local = plan_decision(file, 0, 1, dtype::Datatype::bytes(4096));
    if (self.rank() == 0) decision = local;
    file.close();
  });
  EXPECT_EQ(decision.mode, PartitionMode::Direct);
  EXPECT_EQ(decision.num_groups, 4);
  ASSERT_EQ(decision.aggregators_per_group.size(), 4u);
  for (const auto& aggregators : decision.aggregators_per_group) {
    EXPECT_FALSE(aggregators.empty());  // requirement (a)
  }
  const std::string text = decision.describe();
  EXPECT_NE(text.find("mode=direct"), std::string::npos);
  EXPECT_NE(text.find("groups=4"), std::string::npos);
}

TEST(Parcoll, SubgroupFormationAssignsSubcommAndAggregators) {
  mpi::World world(machine::MachineModel::jaguar(8));
  std::vector<int> sub_sizes(8, 0);
  std::vector<int> my_groups(8, -1);
  world.run([&](mpi::Rank& self) {
    std::vector<RankAccess> accesses;
    for (int r = 0; r < 8; ++r) {
      accesses.push_back(RankAccess{static_cast<std::uint64_t>(r) * 100,
                                    static_cast<std::uint64_t>(r + 1) * 100,
                                    100});
    }
    mpiio::Hints hints;
    hints.parcoll_num_groups = 2;
    hints.parcoll_min_group_size = 2;
    const auto plan = form_subgroups(
        self, self.comm_world(),
        std::make_shared<const SharedGroupInfo>(
            plan_partition(self.world().model().topology, self.comm_world(),
                           accesses, hints)));
    sub_sizes[self.rank()] = plan.call.comm.size();
    my_groups[self.rank()] = plan.my_group;
    EXPECT_FALSE(plan.call.aggregators->empty());
    // The subgroup communicator contains exactly my group's members.
    for (int local = 0; local < plan.call.comm.size(); ++local) {
      const int world_rank = plan.call.comm.world_rank(local);
      EXPECT_EQ(plan.fa().group_of_rank[static_cast<std::size_t>(world_rank)],
                plan.my_group);
    }
  });
  EXPECT_EQ(sub_sizes, std::vector<int>(8, 4));
  EXPECT_EQ(my_groups, (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1}));
}

TEST(Parcoll, UniformResultAcrossGroupCountsMatchesBaselineBytes) {
  // The file contents must be identical whatever G is.
  const auto contents_for = [](int groups) {
    mpi::World world(machine::MachineModel::jaguar(8));
    mpiio::Hints hints;
    hints.parcoll_num_groups = groups;
    hints.parcoll_min_group_size = 2;
    std::vector<std::byte> snapshot;
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "uniform.dat", hints);
      apply_pattern(file, Pattern::Tiled, self.rank(), 8);
      const std::uint64_t bytes = 4 * 64;
      std::vector<std::byte> buffer(bytes);
      const auto extents = file.view().map(0, bytes);
      workloads::fill_buffer_for_extents(buffer.data(),
                                         dtype::Datatype::bytes(bytes), 1,
                                         extents, kSalt);
      write_at_all(file, 0, buffer.data(), 1, dtype::Datatype::bytes(bytes));
      mpi::barrier(self, self.comm_world());
      if (self.rank() == 0) {
        auto* store =
            dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
        snapshot.resize(store->size(file.fs_id()));
        store->read(file.fs_id(), 0, snapshot.data(), snapshot.size());
      }
      file.close();
    });
    return snapshot;
  };
  const auto baseline = contents_for(0);
  EXPECT_EQ(contents_for(2), baseline);
  EXPECT_EQ(contents_for(4), baseline);
}

TEST(Parcoll, PartitionedRunSynchronizesLessThanBaseline) {
  // The point of the paper: same bytes, less Sync time.
  const auto sync_of = [](int groups) {
    mpi::World world(machine::MachineModel::jaguar(32));
    mpiio::Hints hints;
    hints.parcoll_num_groups = groups;
    hints.parcoll_min_group_size = 4;
    hints.cb_buffer_size = 512;  // many cycles -> many syncs
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "sync.dat", hints);
      file.set_view(static_cast<std::uint64_t>(self.rank()) * 8192, 1,
                    dtype::Datatype::bytes(8192));
      std::vector<std::byte> buffer(8192);
      write_at_all(file, 0, buffer.data(), 1, dtype::Datatype::bytes(8192));
      file.close();
    });
    double sync = 0;
    for (const auto& breakdown : world.rank_times()) {
      sync += breakdown[mpi::TimeCat::Sync];
    }
    return sync;
  };
  EXPECT_LT(sync_of(8), sync_of(0));
}

}  // namespace
}  // namespace parcoll::core
