// Point-to-point messaging: matching, ordering, wildcards, data movement,
// phantom payloads, and P2P time accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "mpi/p2p.hpp"
#include "mpi/runtime.hpp"

namespace parcoll::mpi {
namespace {

World make_world(int nranks) {
  return World(machine::MachineModel::jaguar(nranks));
}

TEST(P2P, BlockingSendRecvMovesBytes) {
  World world(machine::MachineModel::jaguar(2));
  std::vector<unsigned char> received(8, 0);
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    if (self.rank() == 0) {
      std::vector<unsigned char> data{1, 2, 3, 4, 5, 6, 7, 8};
      p2p.send(self, self.comm_world(), 1, 7, data.data(), data.size());
    } else {
      const auto n = p2p.recv(self, self.comm_world(), 0, 7, received.data(),
                              received.size());
      EXPECT_EQ(n, 8u);
    }
  });
  std::vector<unsigned char> expected{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(received, expected);
}

TEST(P2P, TransferTakesVirtualTime) {
  World world(machine::MachineModel::jaguar(4));  // ranks 0,1 on node 0; 2,3 on node 1
  double recv_done = 0;
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    if (self.rank() == 0) {
      std::vector<std::byte> data(1 << 20);
      p2p.send(self, self.comm_world(), 2, 0, data.data(), data.size());
    } else if (self.rank() == 2) {
      std::vector<std::byte> buffer(1 << 20);
      p2p.recv(self, self.comm_world(), 0, 0, buffer.data(), buffer.size());
      recv_done = self.now();
    }
  });
  const auto& net = machine::MachineModel::jaguar(4).net;
  EXPECT_GE(recv_done, net.p2p_latency + (1 << 20) / net.p2p_bandwidth);
}

TEST(P2P, MessagesFromSameSenderArriveInOrder) {
  World world = make_world(2);
  std::vector<int> order;
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    if (self.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        p2p.send(self, self.comm_world(), 1, 3, &i, sizeof(i));
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        int value = -1;
        p2p.recv(self, self.comm_world(), 0, 3, &value, sizeof(value));
        order.push_back(value);
      }
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(P2P, TagsSelectMessages) {
  World world = make_world(2);
  int got_a = 0;
  int got_b = 0;
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    if (self.rank() == 0) {
      const int a = 111;
      const int b = 222;
      p2p.send(self, self.comm_world(), 1, /*tag=*/1, &a, sizeof(a));
      p2p.send(self, self.comm_world(), 1, /*tag=*/2, &b, sizeof(b));
    } else {
      // Receive tag 2 first even though tag 1 was sent first.
      p2p.recv(self, self.comm_world(), 0, 2, &got_b, sizeof(got_b));
      p2p.recv(self, self.comm_world(), 0, 1, &got_a, sizeof(got_a));
    }
  });
  EXPECT_EQ(got_a, 111);
  EXPECT_EQ(got_b, 222);
}

TEST(P2P, AnySourceMatchesEarliestArrival) {
  World world = make_world(3);
  std::vector<int> sources;
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    if (self.rank() != 0) {
      // Rank 2 is farther (different node) but sends first; both arrive.
      const int payload = self.rank();
      p2p.send(self, self.comm_world(), 0, 0, &payload, sizeof(payload));
    } else {
      for (int i = 0; i < 2; ++i) {
        int value = 0;
        Request request = p2p.irecv(self, self.comm_world(), kAnySource, 0,
                                    &value, sizeof(value));
        p2p.wait(self, request);
        sources.push_back(request.source());
        EXPECT_EQ(value, request.source());
      }
    }
  });
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_NE(sources[0], sources[1]);
}

TEST(P2P, IsendIrecvWaitall) {
  World world = make_world(4);
  std::vector<int> sums(4, 0);
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    const int value = self.rank() + 1;
    std::vector<Request> requests;
    std::vector<int> incoming(4, 0);
    for (int peer = 0; peer < 4; ++peer) {
      if (peer == self.rank()) continue;
      requests.push_back(p2p.irecv(self, self.comm_world(), peer, 0,
                                   &incoming[peer], sizeof(int)));
    }
    for (int peer = 0; peer < 4; ++peer) {
      if (peer == self.rank()) continue;
      requests.push_back(
          p2p.isend(self, self.comm_world(), peer, 0, &value, sizeof(int)));
    }
    p2p.waitall(self, requests);
    sums[self.rank()] = std::accumulate(incoming.begin(), incoming.end(), 0);
  });
  // Each rank receives (1+2+3+4) - own value.
  EXPECT_EQ(sums, (std::vector<int>{9, 8, 7, 6}));
}

TEST(P2P, SelfMessageWorks) {
  World world = make_world(1);
  int got = 0;
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    const int value = 99;
    Request recv = p2p.irecv(self, self.comm_world(), 0, 0, &got, sizeof(got));
    Request send =
        p2p.isend(self, self.comm_world(), 0, 0, &value, sizeof(value));
    p2p.wait(self, recv);
    p2p.wait(self, send);
  });
  EXPECT_EQ(got, 99);
}

TEST(P2P, PhantomPayloadMovesNoBytesButTakesTime) {
  World world(machine::MachineModel::jaguar(4), /*byte_true=*/false);
  double elapsed = 0;
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    if (self.rank() == 0) {
      p2p.send(self, self.comm_world(), 2, 0, nullptr, 64ull << 20);
    } else if (self.rank() == 2) {
      const double t0 = self.now();
      p2p.recv(self, self.comm_world(), 0, 0, nullptr, 64ull << 20);
      elapsed = self.now() - t0;
    }
  });
  EXPECT_GT(elapsed, (64ull << 20) / machine::NetworkParams{}.p2p_bandwidth / 2);
}

TEST(P2P, TruncationThrows) {
  World world = make_world(2);
  EXPECT_THROW(
      world.run([&](Rank& self) {
        auto& p2p = self.world().p2p();
        if (self.rank() == 0) {
          std::vector<std::byte> data(100);
          p2p.send(self, self.comm_world(), 1, 0, data.data(), data.size());
        } else {
          std::vector<std::byte> small(10);
          p2p.recv(self, self.comm_world(), 0, 0, small.data(), small.size());
        }
      }),
      std::runtime_error);
}

TEST(P2P, WaitChargesP2PTime) {
  World world = make_world(2);
  world.run([&](Rank& self) {
    auto& p2p = self.world().p2p();
    if (self.rank() == 1) {
      self.busy(TimeCat::Compute, 1.0);  // make the receiver wait
      int value = 5;
      p2p.send(self, self.comm_world(), 0, 0, &value, sizeof(value));
    } else {
      int value = 0;
      p2p.recv(self, self.comm_world(), 1, 0, &value, sizeof(value));
    }
  });
  const auto& t0 = world.rank_times()[0];
  EXPECT_GT(t0[TimeCat::P2P], 0.9);  // blocked ~1s waiting for the sender
  const auto& t1 = world.rank_times()[1];
  EXPECT_GT(t1[TimeCat::Compute], 0.9);
}

TEST(P2P, IrecvByNonMemberThrows) {
  // Rank 2 posts a receive on a communicator of ranks 0 and 1: a program
  // error, reported at once rather than as a deadlock.
  World world = make_world(4);
  const Comm pair(777, {0, 1});
  EXPECT_THROW(world.run([&](Rank& self) {
                 if (self.rank() == 2) {
                   int value = 0;
                   self.world().p2p().recv(self, pair, 0, 0, &value,
                                           sizeof(value));
                 }
               }),
               std::logic_error);
}

TEST(P2P, IsendByNonMemberThrowsBeforeChargingTime) {
  World world = make_world(4);
  const Comm pair(777, {0, 1});
  bool threw = false;
  double clock_moved = -1.0;
  world.run([&](Rank& self) {
    if (self.rank() != 2) return;
    const int value = 1;
    const double before = self.now();
    try {
      self.world().p2p().isend(self, pair, 0, 0, &value, sizeof(value));
    } catch (const std::logic_error&) {
      threw = true;
    }
    clock_moved = self.now() - before;
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(clock_moved, 0.0);
  EXPECT_EQ(world.rank_times()[2][TimeCat::P2P], 0.0);
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  World world = make_world(2);
  EXPECT_THROW(world.run([&](Rank& self) {
                 if (self.rank() == 0) {
                   int value;
                   self.world().p2p().recv(self, self.comm_world(), 1, 0,
                                           &value, sizeof(value));
                 }
               }),
               sim::DeadlockError);
}

}  // namespace
}  // namespace parcoll::mpi
