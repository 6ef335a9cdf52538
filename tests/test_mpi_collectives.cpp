// Collectives: data semantics, wait-for-all timing, sync accounting,
// cost-model shape, and comm_split.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <numeric>

#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "sim/random.hpp"

namespace parcoll::mpi {
namespace {

World make_world(int nranks) {
  return World(machine::MachineModel::jaguar(nranks));
}

TEST(Collectives, BarrierSynchronizesArrivals) {
  World world = make_world(4);
  std::vector<double> release(4, 0);
  world.run([&](Rank& self) {
    self.busy(TimeCat::Compute, 0.1 * self.rank());  // staggered arrivals
    barrier(self, self.comm_world());
    release[self.rank()] = self.now();
  });
  // Everyone leaves at the same instant, no earlier than the last arrival.
  for (int r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(release[r], release[0]);
  }
  EXPECT_GE(release[0], 0.3);
}

TEST(Collectives, StragglerWaitIsChargedToSync) {
  World world = make_world(4);
  world.run([&](Rank& self) {
    if (self.rank() == 3) self.busy(TimeCat::Compute, 2.0);
    barrier(self, self.comm_world());
  });
  // Rank 0 waited ~2s for rank 3; rank 3 waited ~0.
  EXPECT_NEAR(world.rank_times()[0][TimeCat::Sync], 2.0, 0.01);
  EXPECT_LT(world.rank_times()[3][TimeCat::Sync], 0.01);
}

TEST(Collectives, AllgatherDeliversEveryValue) {
  World world = make_world(5);
  std::vector<std::vector<int>> results(5);
  world.run([&](Rank& self) {
    results[self.rank()] =
        *allgather_shared(self, self.comm_world(), self.rank() * 10);
  });
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(results[r], (std::vector<int>{0, 10, 20, 30, 40}));
  }
}

TEST(Collectives, BcastFromNonzeroRoot) {
  World world = make_world(4);
  std::vector<int> results(4, -1);
  world.run([&](Rank& self) {
    const int value = self.rank() == 2 ? 777 : 0;
    results[self.rank()] = bcast(self, self.comm_world(), 2, value);
  });
  EXPECT_EQ(results, (std::vector<int>{777, 777, 777, 777}));
}

TEST(Collectives, GatherOnlyRootReceives) {
  World world = make_world(4);
  std::vector<std::size_t> sizes(4, 99);
  std::vector<int> at_root;
  world.run([&](Rank& self) {
    const auto gathered = gather(self, self.comm_world(), 2, self.rank() * 3);
    sizes[self.rank()] = gathered.size();
    if (self.rank() == 2) at_root = gathered;
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{0, 0, 4, 0}));
  EXPECT_EQ(at_root, (std::vector<int>{0, 3, 6, 9}));
}

TEST(Collectives, AlltoallPersonalizedExchange) {
  World world = make_world(3);
  std::vector<std::vector<int>> results(3);
  world.run([&](Rank& self) {
    std::vector<int> send(3);
    for (int peer = 0; peer < 3; ++peer) {
      send[peer] = self.rank() * 100 + peer;  // value destined for `peer`
    }
    results[self.rank()] = alltoall(self, self.comm_world(), send);
  });
  // results[r][j] = what j sent to r = j*100 + r.
  for (int r = 0; r < 3; ++r) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(results[r][j], j * 100 + r);
    }
  }
}

/// A seeded sparse pattern: what `from` sends `to` (0 = nothing). About a
/// quarter of the pairs are set; every even rank also sends to itself, and
/// every rank 1 mod 3 sends nothing at all.
std::uint32_t sparse_value(std::uint64_t seed, int from, int to) {
  if (from % 3 == 1) return 0;
  const std::uint64_t h =
      sim::hash_combine(sim::hash_combine(seed, static_cast<std::uint64_t>(from)),
                        static_cast<std::uint64_t>(to));
  if (h % 4 != 0 && !(to == from && from % 2 == 0)) return 0;
  return static_cast<std::uint32_t>(h >> 32) | 1u;
}

/// Rank `self`'s row of the pattern: dense, and as sparse (peer, value)s.
std::pair<std::vector<std::uint32_t>, std::vector<PeerValue<std::uint32_t>>>
sparse_row(std::uint64_t seed, int from, int nranks) {
  std::vector<std::uint32_t> dense(static_cast<std::size_t>(nranks));
  std::vector<PeerValue<std::uint32_t>> sparse;
  for (int to = 0; to < nranks; ++to) {
    dense[static_cast<std::size_t>(to)] = sparse_value(seed, from, to);
    if (dense[static_cast<std::size_t>(to)] != 0) {
      sparse.push_back({to, dense[static_cast<std::size_t>(to)]});
    }
  }
  return {dense, sparse};
}

TEST(Collectives, SparseAlltoallDeliversTheDenseNonzeros) {
  for (const int nranks : {1, 3, 17, 64}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      World world = make_world(nranks);
      std::vector<std::vector<std::uint32_t>> dense(nranks);
      std::vector<std::vector<PeerValue<std::uint32_t>>> sparse(nranks);
      world.run([&](Rank& self) {
        const auto [row, send] = sparse_row(seed, self.rank(), nranks);
        dense[self.rank()] = alltoall(self, self.comm_world(), row);
        const auto inbox = sparse_alltoall(self, self.comm_world(), send);
        sparse[self.rank()].assign(inbox.begin(), inbox.end());
      });
      for (int r = 0; r < nranks; ++r) {
        std::vector<std::pair<int, std::uint32_t>> want;
        for (int j = 0; j < nranks; ++j) {
          if (dense[r][j] != 0) want.emplace_back(j, dense[r][j]);
        }
        std::vector<std::pair<int, std::uint32_t>> got;
        for (const auto& [peer, value] : sparse[r]) got.emplace_back(peer, value);
        EXPECT_EQ(got, want) << "P=" << nranks << " seed=" << seed
                             << " rank " << r;
      }
    }
  }
}

TEST(Collectives, SparseAlltoallIsChargedLikeTheDenseCall) {
  for (const int nranks : {3, 17, 64}) {
    // Completion clock and Sync charge of every rank, staggered arrivals.
    const auto run = [nranks](bool sparse) {
      World world = make_world(nranks);
      std::vector<double> done(nranks);
      world.run([&](Rank& self) {
        self.busy(TimeCat::Compute, 1e-3 * ((self.rank() * 7) % 5));
        const auto [row, send] = sparse_row(9, self.rank(), nranks);
        if (sparse) {
          sparse_alltoall(self, self.comm_world(), send);
        } else {
          alltoall(self, self.comm_world(), row);
        }
        done[self.rank()] = self.now();
      });
      std::vector<double> sync;
      for (const auto& breakdown : world.rank_times()) {
        sync.push_back(breakdown[TimeCat::Sync]);
      }
      return std::pair{done, sync};
    };
    const auto dense = run(false);
    const auto sparse = run(true);
    EXPECT_EQ(sparse.first, dense.first) << "P=" << nranks;
    EXPECT_EQ(sparse.second, dense.second) << "P=" << nranks;
  }
}

TEST(Collectives, SparseAlltoallRejectsUnorderedDestinations) {
  World world = make_world(2);
  EXPECT_THROW(world.run([&](Rank& self) {
                 sparse_alltoall(self, self.comm_world(),
                                 std::vector<PeerValue<int>>{{1, 5}, {0, 3}});
               }),
               std::logic_error);
}

TEST(Collectives, AllreduceSumMaxMin) {
  World world = make_world(6);
  std::vector<std::array<long, 3>> results(6);
  const auto min_of = [](long a, long b) { return b < a ? b : a; };
  world.run([&](Rank& self) {
    const long value = self.rank() + 1;
    results[self.rank()] = {allreduce_sum(self, self.comm_world(), value),
                            allreduce_max(self, self.comm_world(), value),
                            allreduce(self, self.comm_world(), value, min_of)};
  });
  for (const auto& [sum, max, min] : results) {
    EXPECT_EQ(sum, 21);
    EXPECT_EQ(max, 6);
    EXPECT_EQ(min, 1);
  }
}

TEST(Collectives, AllreduceEqualsThePerRankFoldBitForBit) {
  // Doubles of spread magnitudes and signs, whose sum depends on the order
  // they are added in. Every rank must receive the left fold in local-rank
  // order, bit for bit: over the world, and over a split whose keys reverse
  // the rank order.
  constexpr int kRanks = 37;
  const auto value_of = [](int rank) {
    return std::ldexp(rank % 3 == 0 ? -1.0 - 0.1 * rank : 1.0 + 0.1 * rank,
                      (rank * 13) % 61 - 30);
  };
  const auto fold = [&](const std::vector<int>& order) {
    std::array<double, 3> acc{};
    acc.fill(value_of(order[0]));
    for (std::size_t i = 1; i < order.size(); ++i) {
      const double v = value_of(order[i]);
      acc[0] = acc[0] + v;
      acc[1] = acc[1] < v ? v : acc[1];
      acc[2] = v < acc[2] ? v : acc[2];
    }
    return acc;
  };
  std::vector<int> ascending(kRanks);
  std::iota(ascending.begin(), ascending.end(), 0);
  const std::vector<int> descending(ascending.rbegin(), ascending.rend());
  const auto forward = fold(ascending);
  const auto backward = fold(descending);
  // The data is order-sensitive, so the check below can tell orders apart.
  ASSERT_NE(std::bit_cast<std::uint64_t>(forward[0]),
            std::bit_cast<std::uint64_t>(backward[0]));

  const auto min_of = [](double a, double b) { return b < a ? b : a; };
  World world = make_world(kRanks);
  std::vector<std::array<double, 3>> over_world(kRanks);
  std::vector<std::array<double, 3>> over_split(kRanks);
  world.run([&](Rank& self) {
    const double mine = value_of(self.rank());
    const Comm& all = self.comm_world();
    over_world[self.rank()] = {allreduce_sum(self, all, mine),
                               allreduce_max(self, all, mine),
                               allreduce(self, all, mine, min_of)};
    const Comm reversed = comm_split(self, all, 0, kRanks - self.rank());
    over_split[self.rank()] = {allreduce_sum(self, reversed, mine),
                               allreduce_max(self, reversed, mine),
                               allreduce(self, reversed, mine, min_of)};
  });
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(over_world[r][k]),
                std::bit_cast<std::uint64_t>(forward[k]))
          << "rank " << r << " op " << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(over_split[r][k]),
                std::bit_cast<std::uint64_t>(backward[k]))
          << "rank " << r << " op " << k;
    }
  }
}

TEST(Collectives, BuildRunsOnceAndEveryMemberSharesItsResult) {
  constexpr int kRanks = 64;
  World world = make_world(kRanks);
  int builds = 0;
  std::vector<std::shared_ptr<const long>> results(kRanks);
  world.run([&](Rank& self) {
    self.busy(TimeCat::Compute, 1e-3 * ((self.rank() * 7) % 5));
    const long mine = self.rank();
    results[self.rank()] = coll_build<long>(
        self, self.comm_world(), CollKind::Allgather, detail::bytes_of(mine),
        [&](const CollContribs& all) {
          ++builds;
          long sum = 0;
          for (const auto& contribution : all) {
            sum += detail::scalar_from<long>(contribution);
          }
          return sum;
        });
  });
  EXPECT_EQ(builds, 1);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(results[r].get(), results[0].get()) << "rank " << r;
  }
  EXPECT_EQ(*results[0], kRanks * (kRanks - 1) / 2);
}

TEST(Collectives, BuildLeavesTheCallsChargeAlone) {
  // Completion clock and Sync charge of every rank, staggered arrivals,
  // for one allgather with and without a build.
  constexpr int kRanks = 64;
  const auto run = [](bool build) {
    World world = make_world(kRanks);
    std::vector<double> done(kRanks);
    world.run([&](Rank& self) {
      self.busy(TimeCat::Compute, 1e-3 * ((self.rank() * 7) % 5));
      const int mine = self.rank();
      const auto contribution = detail::bytes_of(mine);
      if (build) {
        coll_build<int>(self, self.comm_world(), CollKind::Allgather,
                        contribution,
                        [](const CollContribs& all) {
                          return static_cast<int>(all.size());
                        });
      } else {
        coll_run(self, self.comm_world(), CollKind::Allgather, contribution);
      }
      done[self.rank()] = self.now();
    });
    std::vector<double> sync;
    for (const auto& breakdown : world.rank_times()) {
      sync.push_back(breakdown[TimeCat::Sync]);
    }
    return std::pair{done, sync};
  };
  const auto plain = run(false);
  const auto built = run(true);
  EXPECT_EQ(built.first, plain.first);
  EXPECT_EQ(built.second, plain.second);
}

TEST(Collectives, AllgatherBuildRunsOnceOverTheValuesInRankOrder) {
  constexpr int kRanks = 16;
  World world = make_world(kRanks);
  int builds = 0;
  std::vector<std::shared_ptr<const std::vector<int>>> results(kRanks);
  world.run([&](Rank& self) {
    self.busy(TimeCat::Compute, 1e-3 * ((self.rank() * 5) % 3));
    results[self.rank()] = allgather_build<std::vector<int>>(
        self, self.comm_world(), self.rank() * 3,
        [&](const std::vector<int>& values) {
          ++builds;
          std::vector<int> reversed(values.rbegin(), values.rend());
          return reversed;
        });
  });
  EXPECT_EQ(builds, 1);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(results[r].get(), results[0].get()) << "rank " << r;
  }
  for (int i = 0; i < kRanks; ++i) {
    EXPECT_EQ((*results[0])[i], (kRanks - 1 - i) * 3);
  }
}

TEST(Collectives, BcastRootPublishesTheObjectItHolds) {
  // Only the root passes a build: every member receives the root's own
  // object, and the call costs what a plain bcast of its bytes costs.
  constexpr int kRanks = 12;
  constexpr int kRoot = 5;
  using Payload = std::array<std::uint64_t, 32>;
  const auto run = [](bool publish) {
    World world = make_world(kRanks);
    std::vector<double> done(kRanks);
    std::shared_ptr<const Payload> held;
    std::vector<std::shared_ptr<const Payload>> received(kRanks);
    world.run([&](Rank& self) {
      self.busy(TimeCat::Compute, 1e-3 * ((self.rank() * 7) % 4));
      const bool root = self.rank() == kRoot;
      Payload payload{};
      if (root) {
        std::iota(payload.begin(), payload.end(), 100);
        held = std::make_shared<const Payload>(payload);
      }
      if (publish) {
        received[self.rank()] = coll_publish<Payload>(
            self, self.comm_world(), CollKind::Bcast,
            root ? detail::bytes_of(*held) : std::span<const std::byte>{},
            root ? held : nullptr);
      } else {
        received[self.rank()] = std::make_shared<const Payload>(
            bcast(self, self.comm_world(), kRoot, payload));
      }
      done[self.rank()] = self.now();
    });
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(*received[r], *held) << "rank " << r;
      if (publish) {
        EXPECT_EQ(received[r].get(), held.get()) << "rank " << r;
      }
    }
    return done;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Collectives, BackToBackCollectivesKeepSequence) {
  World world = make_world(4);
  world.run([&](Rank& self) {
    for (int round = 0; round < 10; ++round) {
      const auto values =
          *allgather_shared(self, self.comm_world(), self.rank() + round);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(values[r], r + round);
      }
    }
  });
}

TEST(Collectives, SingletonCommIsFree) {
  World world = make_world(1);
  world.run([&](Rank& self) {
    const double t0 = self.now();
    barrier(self, self.comm_world());
    const auto all = *allgather_shared(self, self.comm_world(), 42);
    EXPECT_EQ(all, (std::vector<int>{42}));
    EXPECT_DOUBLE_EQ(self.now(), t0);
  });
}

TEST(CollectiveCost, AlltoallGrowsLinearlyBarrierLogarithmically) {
  const machine::NetworkParams net;
  const double barrier_64 = coll_cost(net, CollKind::Barrier, 64, 0, 0);
  const double barrier_1024 = coll_cost(net, CollKind::Barrier, 1024, 0, 0);
  EXPECT_NEAR(barrier_1024 / barrier_64, 10.0 / 6.0, 1e-9);  // log ratio

  const double a2a_64 = coll_cost(net, CollKind::Alltoall, 64, 256, 256 * 64);
  const double a2a_1024 =
      coll_cost(net, CollKind::Alltoall, 1024, 4096, 4096 * 1024);
  EXPECT_GT(a2a_1024 / a2a_64, 10.0);  // super-logarithmic growth
}

TEST(CollectiveCost, SingleRankIsFree) {
  const machine::NetworkParams net;
  for (CollKind kind : {CollKind::Barrier, CollKind::Bcast, CollKind::Gather,
                        CollKind::Allgather, CollKind::Alltoall,
                        CollKind::Allreduce}) {
    EXPECT_DOUBLE_EQ(coll_cost(net, kind, 1, 1000, 1000), 0.0);
  }
}

TEST(CommSplit, SplitsByColorOrderedByKey) {
  World world = make_world(6);
  std::vector<int> sub_rank(6, -1);
  std::vector<int> sub_size(6, -1);
  world.run([&](Rank& self) {
    const int color = self.rank() % 2;
    // Reverse key order within each color.
    const Comm sub =
        comm_split(self, self.comm_world(), color, -self.rank());
    sub_rank[self.rank()] = sub.local_rank(self.rank());
    sub_size[self.rank()] = sub.size();
  });
  // Evens {0,2,4} with keys {0,-2,-4}: order 4,2,0.
  EXPECT_EQ(sub_size, (std::vector<int>{3, 3, 3, 3, 3, 3}));
  EXPECT_EQ(sub_rank[4], 0);
  EXPECT_EQ(sub_rank[2], 1);
  EXPECT_EQ(sub_rank[0], 2);
}

TEST(CommSplit, OneColorSharesOneCommunicator) {
  // The split's last arriver builds every color's communicator once, so
  // the members of one color hold the same state (Comm equality) and
  // members of different colors do not.
  constexpr int kRanks = 8;
  World world = make_world(kRanks);
  std::vector<Comm> subs(kRanks);
  world.run([&](Rank& self) {
    subs[self.rank()] =
        comm_split(self, self.comm_world(), self.rank() % 2, self.rank());
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(subs[r] == subs[r % 2]) << "rank " << r;
    EXPECT_FALSE(subs[r] == subs[1 - r % 2]) << "rank " << r;
  }
  EXPECT_NE(subs[0].context_id(), subs[1].context_id());
}

TEST(CommSplit, SubcommunicatorsIsolateCollectives) {
  World world = make_world(8);
  std::vector<int> sums(8, 0);
  world.run([&](Rank& self) {
    const int color = self.rank() / 4;  // two groups of 4
    const Comm sub = comm_split(self, self.comm_world(), color, self.rank());
    sums[self.rank()] = allreduce_sum(self, sub, self.rank());
  });
  // Group 0: 0+1+2+3 = 6; group 1: 4+5+6+7 = 22.
  for (int r = 0; r < 4; ++r) EXPECT_EQ(sums[r], 6);
  for (int r = 4; r < 8; ++r) EXPECT_EQ(sums[r], 22);
}

TEST(CommSplit, NestedSplitWorks) {
  World world = make_world(8);
  std::vector<int> sizes(8, 0);
  world.run([&](Rank& self) {
    const Comm half =
        comm_split(self, self.comm_world(), self.rank() / 4, self.rank());
    const Comm quarter =
        comm_split(self, half, self.rank() % 2, self.rank());
    sizes[self.rank()] = quarter.size();
  });
  EXPECT_EQ(sizes, std::vector<int>(8, 2));
}

TEST(CommSplit, OneColorCopyIsolatesTraffic) {
  // One color keyed by local rank copies the communicator: same members
  // and order, a fresh context id.
  World world = make_world(4);
  world.run([&](Rank& self) {
    const Comm copy = comm_split(self, self.comm_world(), 0, self.rank());
    EXPECT_EQ(copy.size(), 4);
    EXPECT_EQ(copy.local_rank(self.rank()), self.rank());
    EXPECT_NE(copy.context_id(), self.comm_world().context_id());
    // Collectives on the two communicators interleave freely.
    const auto a = allgather_shared(self, copy, self.rank());
    const auto b = allgather_shared(self, self.comm_world(), self.rank() * 2);
    EXPECT_EQ((*a)[2], 2);
    EXPECT_EQ((*b)[2], 4);
  });
}

TEST(CommSplit, CollectivesComposeAcrossSubcommunicators) {
  World world = make_world(8);
  std::vector<int> results(8);
  world.run([&](Rank& self) {
    const Comm half =
        comm_split(self, self.comm_world(), self.rank() % 2, self.rank());
    // Broadcast within the half, then reduce the results globally.
    const int mine = bcast(self, half, 0, 10 + half.local_rank(self.rank()));
    results[self.rank()] = allreduce_sum(self, self.comm_world(), mine);
  });
  // Both halves broadcast their root's 10: global sum = 8 * 10.
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(results[r], 80);
  }
}

TEST(Collectives, SmallerGroupsSynchronizeCheaper) {
  // The heart of ParColl: P/G-rank collectives cost less than P-rank ones.
  const auto sync_of = [](int nranks, int groups) {
    World world(machine::MachineModel::jaguar(nranks));
    world.run([&](Rank& self) {
      const int color = self.rank() / (nranks / groups);
      const Comm sub = comm_split(self, self.comm_world(), color, self.rank());
      for (int round = 0; round < 20; ++round) {
        std::vector<std::uint32_t> sizes(
            static_cast<std::size_t>(sub.size()), 1);
        alltoall(self, sub, sizes);
      }
    });
    double total = 0;
    for (const auto& breakdown : world.rank_times()) {
      total += breakdown[TimeCat::Sync];
    }
    return total;
  };
  EXPECT_LT(sync_of(64, 8), sync_of(64, 1) / 2.0);
}

}  // namespace
}  // namespace parcoll::mpi
