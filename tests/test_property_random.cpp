// Randomized property tests: arbitrary per-rank access patterns pushed
// through every I/O implementation must land (and read back) the right
// bytes, and ParColl must always produce a file identical to the plain
// protocol's. Patterns are generated from seeded hashes, so failures
// reproduce exactly.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>

#include "core/parcoll.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/ext2ph.hpp"
#include "mpiio/file.hpp"
#include "sim/random.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

/// Deterministic random extents for one rank: non-overlapping across ranks
/// by construction (each rank draws pieces from its own slot lattice).
/// `style` selects the global shape: 0 = serial blocks, 1 = interleaved
/// slots (tiled-ish), 2 = scattered slots spanning the whole file.
std::vector<fs::Extent> random_extents(std::uint64_t seed, int rank,
                                       int nranks, int style) {
  std::vector<fs::Extent> extents;
  const std::uint64_t h0 = sim::hash_combine(seed, static_cast<std::uint64_t>(rank));
  switch (style) {
    case 0: {  // serial: one or two pieces inside a private block
      const std::uint64_t block = 8192;
      const std::uint64_t base = static_cast<std::uint64_t>(rank) * block;
      const int pieces = 1 + static_cast<int>(sim::mix64(h0) % 3);
      std::uint64_t pos = base;
      for (int i = 0; i < pieces; ++i) {
        const std::uint64_t gap = sim::mix64(h0 + i) % 512;
        const std::uint64_t len = 64 + sim::mix64(h0 ^ (i + 1)) % 1024;
        pos += gap;
        if (pos + len > base + block) break;
        extents.push_back(fs::Extent{pos, len});
        pos += len;
      }
      break;
    }
    case 1: {  // interleaved: every nranks-th 256B slot, random subset
      const std::uint64_t slot = 256;
      for (int k = 0; k < 24; ++k) {
        if (sim::mix64(h0 + static_cast<std::uint64_t>(k)) % 3 == 0) continue;
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(k) * nranks + rank) * slot;
        extents.push_back(fs::Extent{offset, slot});
      }
      break;
    }
    default: {  // scattered: random-length pieces on a rank-owned lattice
      const std::uint64_t stripe = 128;
      for (int k = 0; k < 16; ++k) {
        const std::uint64_t cell =
            sim::mix64(h0 + static_cast<std::uint64_t>(k)) % 64;
        const std::uint64_t offset =
            (cell * nranks + rank) * stripe;
        const std::uint64_t len = 32 + sim::mix64(h0 ^ (k * 7 + 1)) % (stripe - 32);
        extents.push_back(fs::Extent{offset, len});
      }
      // Sort/merge to a monotone request; drop duplicate cells.
      std::sort(extents.begin(), extents.end(),
                [](const fs::Extent& a, const fs::Extent& b) {
                  return a.offset < b.offset;
                });
      std::vector<fs::Extent> clean;
      for (const auto& extent : extents) {
        if (!clean.empty() && extent.offset < clean.back().end()) continue;
        clean.push_back(extent);
      }
      extents = std::move(clean);
      break;
    }
  }
  return extents;
}

struct Param {
  std::uint64_t seed;
  int style;
  int nranks;
  int groups;  // 0 = baseline ext2ph
};

class RandomPatternTest : public ::testing::TestWithParam<Param> {};

TEST_P(RandomPatternTest, CollectiveWriteThenReadRoundTrips) {
  const auto [seed, style, nranks, groups] = GetParam();
  mpi::World world(machine::MachineModel::jaguar(nranks));
  mpiio::Hints hints;
  hints.parcoll_num_groups = groups;
  hints.parcoll_min_group_size = 2;
  hints.cb_buffer_size = 2048;  // several cycles
  bool ok = true;

  world.run([&](mpi::Rank& self) {
    const auto extents = random_extents(seed, self.rank(), nranks, style);
    std::uint64_t bytes = 0;
    for (const auto& extent : extents) bytes += extent.length;

    const int fs_id = self.world().fs().open("prop.dat", 8, 4096);
    mpiio::DirectTarget target(self.world().fs(), fs_id);
    mpiio::Ext2phOptions options;
    options.cb_buffer_size = hints.cb_buffer_size;

    std::vector<std::byte> packed(bytes);
    workloads::fill_stream(packed.data(), extents, seed);
    if (groups == 0) {
      // Plain ext2ph straight at the engine.
      std::vector<int> all(static_cast<std::size_t>(nranks));
      std::iota(all.begin(), all.end(), 0);
      options.aggregators = mpiio::make_roster(all);
      ext2ph(self, self.comm_world(), target,
             mpiio::CollRequest{extents, packed.data()}, options, true);
    } else {
      // Through the full ParColl stack with a synthetic per-rank view.
      mpiio::FileHandle file(self, self.comm_world(), "prop-view.dat", hints);
      std::vector<dtype::Segment> segs;
      for (const auto& extent : extents) {
        segs.push_back(dtype::Segment{
            static_cast<std::int64_t>(extent.offset), extent.length});
      }
      std::uint64_t span = 1;
      for (const auto& extent : extents) span = std::max(span, extent.end());
      // All ranks must agree on nothing here: views are per rank.
      if (!segs.empty()) {
        file.set_view(0, 1,
                      dtype::Datatype::from_segments(
                          std::move(segs), 0, static_cast<std::int64_t>(span)));
      }
      std::vector<std::byte> user(bytes);
      if (bytes > 0) {
        workloads::fill_buffer_for_extents(user.data(),
                                           dtype::Datatype::bytes(bytes), 1,
                                           extents, seed);
      }
      core::write_at_all(file, 0, user.empty() ? nullptr : user.data(),
                         bytes > 0 ? 1 : 0, dtype::Datatype::bytes(bytes));
      mpi::barrier(self, self.comm_world());
      auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      ok = ok && store &&
           workloads::verify_store(*store, file.fs_id(), extents, seed);
      // Collective read-back through the same stack.
      std::vector<std::byte> back(bytes);
      core::read_at_all(file, 0, back.empty() ? nullptr : back.data(),
                        bytes > 0 ? 1 : 0, dtype::Datatype::bytes(bytes));
      ok = ok && (bytes == 0 ||
                  workloads::check_buffer_for_extents(
                      back.data(), dtype::Datatype::bytes(bytes), 1, extents,
                      seed));
      file.close();
      return;
    }
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store && workloads::verify_store(*store, fs_id, extents, seed);
  });
  EXPECT_TRUE(ok) << "seed=" << seed << " style=" << style
                  << " nranks=" << nranks << " groups=" << groups;
}

std::vector<Param> make_params() {
  std::vector<Param> params;
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    for (int style : {0, 1, 2}) {
      for (int nranks : {5, 12}) {
        for (int groups : {0, 3, core::kAutoGroups}) {
          params.push_back(Param{seed, style, nranks, groups});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomPatternTest, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<Param>& info) {
      const auto& p = info.param;
      return "s" + std::to_string(p.seed) + "_y" + std::to_string(p.style) +
             "_n" + std::to_string(p.nranks) + "_g" +
             std::to_string(p.groups < 0 ? 999 : p.groups);
    });

TEST(RandomPatternEquivalence, ParcollFileEqualsBaselineFile) {
  // For a fixed random pattern, the bytes on disk must be identical under
  // the baseline, ParColl-4, and ParColl-auto.
  const auto snapshot = [&](int groups) {
    mpi::World world(machine::MachineModel::jaguar(8));
    mpiio::Hints hints;
    hints.parcoll_num_groups = groups;
    hints.parcoll_min_group_size = 2;
    hints.cb_buffer_size = 1024;
    std::vector<std::byte> contents;
    world.run([&](mpi::Rank& self) {
      const auto extents = random_extents(77, self.rank(), 8, 1);
      std::uint64_t bytes = 0;
      for (const auto& extent : extents) bytes += extent.length;
      mpiio::FileHandle file(self, self.comm_world(), "equiv.dat", hints);
      std::vector<dtype::Segment> segs;
      std::uint64_t span = 1;
      for (const auto& extent : extents) {
        segs.push_back(dtype::Segment{
            static_cast<std::int64_t>(extent.offset), extent.length});
        span = std::max(span, extent.end());
      }
      file.set_view(0, 1,
                    dtype::Datatype::from_segments(
                        std::move(segs), 0, static_cast<std::int64_t>(span)));
      std::vector<std::byte> user(bytes);
      workloads::fill_buffer_for_extents(
          user.data(), dtype::Datatype::bytes(bytes), 1, extents, 77);
      core::write_at_all(file, 0, user.data(), 1,
                         dtype::Datatype::bytes(bytes));
      mpi::barrier(self, self.comm_world());
      if (self.rank() == 0) {
        auto* store =
            dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
        contents.resize(store->size(file.fs_id()));
        store->read(file.fs_id(), 0, contents.data(), contents.size());
      }
      file.close();
    });
    return contents;
  };
  const auto baseline = snapshot(0);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(snapshot(4), baseline);
  EXPECT_EQ(snapshot(core::kAutoGroups), baseline);
}

}  // namespace
}  // namespace parcoll
