// File-system substrate: striping math, object stores, the OST service
// model (FIFO, jitter, lock switching), and the Lustre client.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fs/lustre.hpp"
#include "fs/object_store.hpp"
#include "fs/ost.hpp"
#include "fs/stripe.hpp"
#include "sim/engine.hpp"

namespace parcoll::fs {
namespace {

TEST(Stripe, SingleChunkWithinStripe) {
  const auto chunks = stripe_chunks(Extent{100, 50}, 1024, 4);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].stripe_index, 0);
  EXPECT_EQ(chunks[0].file_offset, 100u);
  EXPECT_EQ(chunks[0].length, 50u);
}

TEST(Stripe, SplitsAtStripeBoundaries) {
  const auto chunks = stripe_chunks(Extent{1000, 2100}, 1024, 4);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].stripe_index, 0);
  EXPECT_EQ(chunks[0].length, 24u);  // to offset 1024
  EXPECT_EQ(chunks[1].stripe_index, 1);
  EXPECT_EQ(chunks[1].length, 1024u);
  EXPECT_EQ(chunks[2].stripe_index, 2);
  EXPECT_EQ(chunks[2].length, 1024u);
  EXPECT_EQ(chunks[3].stripe_index, 3);
  EXPECT_EQ(chunks[3].length, 28u);  // ends at 3100
}

TEST(Stripe, WrapsAroundStripeCount) {
  const auto chunks = stripe_chunks(Extent{0, 5 * 1024}, 1024, 4);
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[4].stripe_index, 0);  // stripe 4 wraps to index 0
}

TEST(Stripe, FloorCeilHelpers) {
  EXPECT_EQ(stripe_floor(1000, 256), 768u);
  EXPECT_EQ(stripe_ceil(1000, 256), 1024u);
  EXPECT_EQ(stripe_ceil(1024, 256), 1024u);
}

TEST(MemoryStore, WriteReadRoundTrip) {
  MemoryStore store;
  const char data[] = "hello";
  store.write(1, 100, reinterpret_cast<const std::byte*>(data), 5);
  char out[6] = {};
  store.read(1, 100, reinterpret_cast<std::byte*>(out), 5);
  EXPECT_STREQ(out, "hello");
  EXPECT_EQ(store.size(1), 105u);
}

TEST(MemoryStore, GapsAndBeyondEofReadAsZero) {
  MemoryStore store;
  const char data[] = "x";
  store.write(1, 10, reinterpret_cast<const std::byte*>(data), 1);
  std::byte out[20];
  std::memset(out, 0xAB, sizeof(out));
  store.read(1, 0, out, 20);
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_EQ(out[10], std::byte{'x'});
  EXPECT_EQ(out[11], std::byte{0});  // beyond EOF
}

TEST(MemoryStore, UnknownFileReadsZeros) {
  MemoryStore store;
  std::byte out[4];
  std::memset(out, 0xFF, sizeof(out));
  store.read(99, 0, out, 4);
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_EQ(store.size(99), 0u);
}

TEST(MemoryStore, SparseFileKeepsItsDenseDigest) {
  // Bytes far apart, one straddling a page boundary: the store keeps only
  // the pages they touch, and its digest is FNV-1a over the dense file.
  MemoryStore store;
  const char a[] = "abc";
  const char b[] = "straddle";
  const std::uint64_t far = 3 * MemoryStore::kPageBytes + 17;
  const std::uint64_t edge = 5 * MemoryStore::kPageBytes - 3;
  store.write(2, far, reinterpret_cast<const std::byte*>(a), 3);
  store.write(2, edge, reinterpret_cast<const std::byte*>(b), 8);
  store.write(7, 40, nullptr, 10);  // phantom: grows the file, no bytes
  EXPECT_EQ(store.size(2), edge + 8);
  EXPECT_EQ(store.size(7), 50u);

  std::vector<std::byte> dense(store.size(2));
  store.read(2, 0, dense.data(), dense.size());
  EXPECT_EQ(dense[far + 1], std::byte{'b'});
  EXPECT_EQ(dense[edge + 7], std::byte{'e'});
  EXPECT_EQ(dense[far + 3], std::byte{0});

  std::uint64_t h = 1469598103934665603ull;
  const auto mix_byte = [&h](std::uint64_t byte) {
    h = (h ^ byte) * 1099511628211ull;
  };
  const auto mix = [&](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) mix_byte((value >> shift) & 0xff);
  };
  mix(2);
  mix(dense.size());
  for (std::byte byte : dense) mix_byte(static_cast<std::uint64_t>(byte));
  mix(7);
  mix(50);
  for (int i = 0; i < 50; ++i) mix_byte(0);
  EXPECT_EQ(store.content_digest(), h);
}

TEST(PhantomStore, TracksBookkeepingOnly) {
  PhantomStore store;
  store.write(1, 1000, nullptr, 500);
  store.write(1, 0, nullptr, 10);
  store.read(1, 0, nullptr, 100);
  EXPECT_EQ(store.size(1), 1500u);
  EXPECT_EQ(store.bytes_written(), 510u);
  EXPECT_EQ(store.bytes_read(), 100u);
  EXPECT_EQ(store.write_ops(), 2u);
  EXPECT_EQ(store.read_ops(), 1u);
}

machine::StorageParams no_jitter_params() {
  machine::StorageParams params;
  params.jitter_frac = 0.0;
  params.slow_epoch_seconds = 0.0;  // disable heavy-tail slowdowns
  return params;
}

TEST(Ost, FifoReservation) {
  const auto params = no_jitter_params();
  OstModel ost(0, params);
  const double service =
      params.request_overhead + 1e6 / params.ost_bandwidth;
  const double first = ost.serve(0.0, 0, 1, 0, 0 + 1'000'000, 1'000'000, false).done;
  const double second = ost.serve(0.0, 0, 1, 0, 0 + 1'000'000, 1'000'000, false).done;
  EXPECT_DOUBLE_EQ(first, service);
  EXPECT_DOUBLE_EQ(second, 2 * service);
}

TEST(Ost, StreamingWriterAcquiresOnceThenRunsFree) {
  const auto params = no_jitter_params();
  OstModel ost(0, params);
  for (int i = 0; i < 10; ++i) {
    const auto pos = static_cast<std::uint64_t>(i) * 1000;
    ost.serve(0.0, 0, 1, pos, pos + 1000, 1000, true);
  }
  EXPECT_EQ(ost.lock_switches(), 0u);  // grant extension covers the stream
}

TEST(Ost, NewWriterRevokesExtendedGrant) {
  const auto params = no_jitter_params();
  OstModel ost(0, params);
  // Writer 1's grant extends to infinity; writer 2's first write must
  // revoke it, then writer 1 writing *behind its own remaining range* is
  // free but writing into 2's extended region revokes again.
  ost.serve(0.0, 0, 1, 0, 0 + 1000, 1000, true);
  EXPECT_EQ(ost.lock_switches(), 0u);
  ost.serve(0.0, 0, 2, 100000, 100000 + 1000, 1000, true);
  EXPECT_EQ(ost.lock_switches(), 1u);
  ost.serve(0.0, 0, 1, 1000, 1000 + 1000, 1000, true);  // inside 1's trimmed grant
  EXPECT_EQ(ost.lock_switches(), 1u);
  ost.serve(0.0, 0, 2, 101000, 101000 + 1000, 1000, true);  // inside 2's own extension
  EXPECT_EQ(ost.lock_switches(), 1u);
  ost.serve(0.0, 0, 1, 200000, 200000 + 1000, 1000, true);  // revokes 2's extension
  EXPECT_EQ(ost.lock_switches(), 2u);
}

TEST(Ost, InterleavedWritersPingPong) {
  const auto params = no_jitter_params();
  OstModel ost(0, params);
  // Clients alternate fine-grained writes walking up the file: each write
  // lands in the previous writer's forward extension, so every write after
  // the first revokes a grant.
  std::uint64_t pos = 0;
  for (int i = 0; i < 10; ++i) {
    ost.serve(0.0, 0, i % 2, pos, pos + 512, 512, true);
    pos += 512;
  }
  EXPECT_EQ(ost.lock_switches(), 9u);
}

TEST(Ost, DisjointFilesDoNotConflict) {
  const auto params = no_jitter_params();
  OstModel ost(0, params);
  ost.serve(0.0, /*file=*/0, 1, 0, 0 + 1000, 1000, true);
  ost.serve(0.0, /*file=*/1, 2, 0, 0 + 1000, 1000, true);  // other file: no conflict
  EXPECT_EQ(ost.lock_switches(), 0u);
}

TEST(Ost, ReadsDoNotPayOrTriggerLockSwitch) {
  const auto params = no_jitter_params();
  OstModel ost(0, params);
  ost.serve(0.0, 0, 1, 0, 0 + 1000, 1000, true);
  ost.serve(0.0, 0, 2, 0, 0 + 1000, 1000, false);  // read by another client
  ost.serve(0.0, 0, 1, 5000, 5000 + 1000, 1000, true);
  EXPECT_EQ(ost.lock_switches(), 0u);
}

TEST(Ost, JitterIsBoundedAndDeterministic) {
  machine::StorageParams params;
  params.jitter_frac = 0.5;
  params.slow_epoch_seconds = 0.0;
  OstModel a(3, params);
  OstModel b(3, params);
  for (int i = 0; i < 50; ++i) {
    const double ta = a.serve(0.0, 0, 1, 0, 0 + 1000, 1000, false).done;
    const double tb = b.serve(0.0, 0, 1, 0, 0 + 1000, 1000, false).done;
    EXPECT_DOUBLE_EQ(ta, tb);  // same id, same seq -> same jitter
  }
  const double base = params.request_overhead + 1000 / params.ost_bandwidth;
  OstModel c(5, params);
  const double t = c.serve(0.0, 0, 1, 0, 0 + 1000, 1000, false).done;
  EXPECT_GE(t, base);
  EXPECT_LE(t, base * 1.5 + 1e-12);
}

TEST(Ost, SlowdownIsEpochStableHeavyTailed) {
  machine::StorageParams params;  // defaults: slowdowns enabled
  OstModel ost(7, params);
  // Within one epoch the factor is constant.
  const double f0 = ost.slowdown(0.01);
  EXPECT_DOUBLE_EQ(f0, ost.slowdown(params.slow_epoch_seconds * 0.9));
  // Across many epochs: mostly 1.0, occasionally large, never below 1.
  int slow = 0;
  double max_factor = 0;
  for (int e = 0; e < 2000; ++e) {
    const double f = ost.slowdown((e + 0.5) * params.slow_epoch_seconds);
    EXPECT_GE(f, 1.0);
    if (f > 1.0) ++slow;
    max_factor = std::max(max_factor, f);
  }
  EXPECT_GT(slow, 2000 * (params.slow_prob + params.very_slow_prob) / 3);
  EXPECT_LT(slow, 2000 * (params.slow_prob + params.very_slow_prob) * 3);
  EXPECT_GT(max_factor, params.slow_factor);  // the tail exists
  EXPECT_LE(max_factor, params.very_slow_factor);
}

TEST(Lustre, OpenIsIdempotentAndChargesMetadataTime) {
  sim::Engine engine;
  LustreSim fs(engine, no_jitter_params(), StoreMode::Memory);
  engine.spawn([&] {
    const double t0 = engine.now();
    const int a = fs.open("file-a", 4, 1024);
    EXPECT_GT(engine.now(), t0);
    const int b = fs.open("file-a", 8, 2048);  // striping immutable
    EXPECT_EQ(a, b);
    EXPECT_EQ(fs.meta(a).stripe_count, 4);
    EXPECT_EQ(fs.meta(a).stripe_size, 1024u);
    const int c = fs.open("file-c");
    EXPECT_NE(a, c);
    EXPECT_EQ(fs.meta(c).stripe_count,
              no_jitter_params().default_stripe_count);
  });
  engine.run();
}

TEST(Lustre, WriteReadRoundTripAcrossStripes) {
  sim::Engine engine;
  LustreSim fs(engine, no_jitter_params(), StoreMode::Memory);
  engine.spawn([&] {
    const int id = fs.open("data", 4, 16);  // tiny stripes to force splits
    std::vector<std::byte> data(100);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(i);
    }
    const Extent extents[] = {{0, 60}, {200, 40}};
    fs.write(0, id, extents, data.data());
    std::vector<std::byte> back(100);
    fs.read(0, id, extents, back.data());
    EXPECT_EQ(back, data);
    EXPECT_EQ(fs.file_size(id), 240u);
  });
  engine.run();
}

TEST(Lustre, LargeWriteSplitsIntoMaxRpcSizeRequests) {
  sim::Engine engine;
  auto params = no_jitter_params();
  params.max_rpc_size = 1 << 20;
  LustreSim fs(engine, params, StoreMode::Phantom);
  engine.spawn([&] {
    const int id = fs.open("big", 4, 4 << 20);
    const Extent extent{0, 8ull << 20};  // 8 MB = 2 stripes = 8 RPCs
    fs.write(0, id, std::span(&extent, 1), nullptr);
    EXPECT_EQ(fs.total_rpcs(), 8u);
  });
  engine.run();
}

TEST(Lustre, ParallelStripesBeatSingleStripe) {
  // The same 8 MB write must finish faster striped over 8 OSTs than 1.
  const auto run = [](int stripes) {
    sim::Engine engine;
    LustreSim fs(engine, no_jitter_params(), StoreMode::Phantom);
    double elapsed = 0;
    engine.spawn([&] {
      const int id = fs.open("f", stripes, 1 << 20);
      const Extent extent{0, 8ull << 20};
      const double t0 = engine.now();
      fs.write(0, id, std::span(&extent, 1), nullptr);
      elapsed = engine.now() - t0;
    });
    engine.run();
    return elapsed;
  };
  EXPECT_LT(run(8), run(1) / 3.0);
}

TEST(Lustre, InterleavedWritersPayLockSwitches) {
  sim::Engine engine;
  auto params = no_jitter_params();
  LustreSim fs(engine, params, StoreMode::Phantom);
  engine.spawn([&] {
    const int id = fs.open("shared", 1, 1 << 20);  // one OST
    for (int round = 0; round < 5; ++round) {
      for (int client = 0; client < 4; ++client) {
        const Extent extent{
            static_cast<std::uint64_t>(round * 4 + client) * 1024, 1024};
        fs.write(client, id, std::span(&extent, 1), nullptr);
      }
    }
    // Round-robin upward walk: every write after the first lands in the
    // previous writer's forward extension and revokes it.
    EXPECT_EQ(fs.total_lock_switches(), 19u);
  });
  engine.run();
}

/// What one client call sequence leaves behind: RPCs, lock switches, the
/// bytes each OST served and the final clock.
struct SubmitPins {
  std::uint64_t rpcs = 0;
  std::uint64_t lock_switches = 0;
  std::vector<std::uint64_t> ost_bytes;
  double now = 0.0;
};

/// Three files on five OSTs (the third file's stripes wrap past the last
/// OST), 48 KiB RPCs on 64 KiB stripes, written and read by three clients
/// with extents that cross stripes, jump backwards as intermediate order
/// does, have zero length, and split at max_rpc_size.
SubmitPins submit_pins(StoreMode mode) {
  sim::Engine engine;
  auto params = no_jitter_params();
  params.num_osts = 5;
  params.max_rpc_size = 48 << 10;
  LustreSim fs(engine, params, mode);
  SubmitPins pins;
  constexpr std::uint64_t K = 1024;
  const std::vector<Extent> crossing{{60 * K, 10 * K}, {200 * K, 300 * K}};
  const std::vector<Extent> backwards{{500 * K, 4 * K}, {100 * K, 4 * K},
                                      {100 * K, 0},     {300 * K, 8 * K},
                                      {0, 2 * K},       {63 * K, 2 * K},
                                      {70 * K, 0}};
  const std::vector<Extent> split{{1000 * K, 200 * K}, {1300 * K, 96 * K}};
  const auto payload = [](const std::vector<Extent>& extents) {
    std::uint64_t bytes = 0;
    for (const Extent& extent : extents) bytes += extent.length;
    std::vector<std::byte> data(bytes);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(i * 7 + 3);
    }
    return data;
  };
  const bool bytes = mode == StoreMode::Memory;
  engine.spawn([&] {
    const int a = fs.open("a", 4, 64 * K);
    const int b = fs.open("b", 4, 64 * K);
    const int c = fs.open("c", 5, 64 * K);
    for (int file : {a, b, c}) {
      int client = 0;
      for (const auto* extents : {&crossing, &backwards, &split}) {
        const auto data = payload(*extents);
        fs.write(client, file, *extents, bytes ? data.data() : nullptr);
        std::vector<std::byte> back(data.size());
        fs.read(client, file, *extents, bytes ? back.data() : nullptr);
        if (bytes) {
          EXPECT_EQ(back, data) << "file " << file << " client " << client;
        }
        ++client;
      }
    }
  });
  engine.run();
  pins.rpcs = fs.total_rpcs();
  pins.lock_switches = fs.total_lock_switches();
  for (int i = 0; i < fs.num_osts(); ++i) {
    pins.ost_bytes.push_back(fs.ost(static_cast<std::size_t>(i)).bytes_served());
  }
  pins.now = engine.now();
  return pins;
}

TEST(Lustre, SubmitPiecesMatchPinnedCounts) {
  // Exact for this mix of extents: a change in where pieces are cut, how
  // they batch into RPCs or in what order those go out moves a count, an
  // OST's bytes or the clock.
  for (const StoreMode mode : {StoreMode::Phantom, StoreMode::Memory}) {
    const SubmitPins pins = submit_pins(mode);
    EXPECT_EQ(pins.rpcs, 124u);
    EXPECT_EQ(pins.lock_switches, 22u);
    EXPECT_EQ(pins.ost_bytes, (std::vector<std::uint64_t>{
                                  595968, 921600, 905216, 899072, 524288}));
    EXPECT_EQ(pins.now, 0.027688093333333365);
  }
}

TEST(Lustre, InvalidStripingThrowsOnTheFirstPiece) {
  sim::Engine engine;
  auto params = no_jitter_params();
  params.default_stripe_count = 0;
  LustreSim fs(engine, params, StoreMode::Phantom);
  engine.spawn([&] {
    const int id = fs.open("unstriped");
    const Extent empty{4096, 0};
    EXPECT_NO_THROW(fs.write(0, id, std::span(&empty, 1), nullptr));
    const Extent extent{0, 4096};
    EXPECT_THROW(fs.write(0, id, std::span(&extent, 1), nullptr),
                 std::invalid_argument);
    EXPECT_THROW(fs.read(0, id, std::span(&extent, 1), nullptr),
                 std::invalid_argument);
  });
  engine.run();
}

}  // namespace
}  // namespace parcoll::fs
