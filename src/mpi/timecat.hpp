// Per-rank time accounting, mirroring the paper's run-time profiler.
//
// The paper dissects collective I/O into point-to-point communication,
// file I/O, and process synchronization (Fig. 2), reporting a summary when
// a file is closed. Every blocking operation in the simulated MPI/MPI-IO
// stack charges its wait time to one of these categories.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace parcoll::mpi {

enum class TimeCat : std::size_t {
  Compute = 0,  // CPU work: packing, flattening, request math
  P2P = 1,      // blocked in send/recv/wait (data exchange phases)
  Sync = 2,     // blocked in collective operations (the collective wall)
  IO = 3,       // blocked in file-system reads/writes
  Faulted = 4,  // degraded mode: RPC timeouts, retry backoff, rank stalls
  Intra = 5,    // two-level collective I/O: intra-node request aggregation
  Drain = 6,    // burst buffer: hidden write-behind of staged segments
  DrainWait = 7,  // burst buffer: exposed waits (flush, spill, read-through)
  Integrity = 8,  // checksum pipeline: block CRCs, verify passes, scrubbing
};
inline constexpr std::size_t kNumTimeCats = 9;

struct TimeBreakdown {
  std::array<double, kNumTimeCats> seconds{};

  [[nodiscard]] double operator[](TimeCat cat) const {
    return seconds[static_cast<std::size_t>(cat)];
  }
  [[nodiscard]] double total() const {
    double sum = 0;
    for (double s : seconds) sum += s;
    return sum;
  }
  TimeBreakdown& operator+=(const TimeBreakdown& other) {
    for (std::size_t i = 0; i < kNumTimeCats; ++i) {
      seconds[i] += other.seconds[i];
    }
    return *this;
  }
};

class Tracer;

class TimeAccount {
 public:
  /// Route every subsequent charge into `tracer` as an interval ending at
  /// the current value of *now (the engine clock). `stream` identifies the
  /// recording fiber (defaults to the rank id for single-fiber ranks), so
  /// helper fibers sharing a rank id keep their own span nesting.
  void attach_tracer(Tracer* tracer, const double* now, int rank,
                     std::uint64_t stream) {
    tracer_ = tracer;
    now_ = now;
    rank_ = rank;
    stream_ = stream;
  }
  void attach_tracer(Tracer* tracer, const double* now, int rank) {
    attach_tracer(tracer, now, rank, static_cast<std::uint64_t>(rank));
  }

  /// Charge `dt` seconds to `cat`. Inline: every blocking call charges,
  /// so only the traced path leaves the caller.
  void add(TimeCat cat, double dt) {
    breakdown_.seconds[static_cast<std::size_t>(cat)] += dt;
    if (tracer_ != nullptr && now_ != nullptr) trace(cat, dt);
  }

  void reset() { breakdown_ = TimeBreakdown{}; }
  [[nodiscard]] const TimeBreakdown& breakdown() const { return breakdown_; }

 private:
  void trace(TimeCat cat, double dt);

  TimeBreakdown breakdown_;
  Tracer* tracer_ = nullptr;
  const double* now_ = nullptr;
  int rank_ = 0;
  std::uint64_t stream_ = 0;
};

[[nodiscard]] const char* to_string(TimeCat cat);

}  // namespace parcoll::mpi
