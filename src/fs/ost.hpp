// Object Storage Target server model.
//
// Three effects shape OST service time, each with a real-Lustre analogue:
//
// 1. FIFO service: (request_overhead + bytes / ost_bandwidth) per RPC; the
//    OST reserves busy time, clients sleep until completion.
//
// 2. DLM extent locks with grant extension. Lustre grants a writer the
//    largest free extent around its request (often to infinity), so a
//    *different* client writing nearby must revoke that grant — and
//    revocation forces the holder to flush dirty pages, costing
//    lock_switch_overhead. Writers that stream disjoint ranges settle into
//    stable grants and stop paying; fine-grained interleaved writers from
//    many clients pay on almost every RPC. This is what separates
//    aggregated collective I/O from uncoordinated shared-file writes.
//
// 3. Heavy-tailed, time-correlated service slowdowns. Real OSTs under load
//    have stretches (congestion, RAID activity) where service is several
//    times slower. We model per-(OST, epoch) slowdown factors drawn from a
//    deterministic heavy-tailed hash. Because the two-phase protocol
//    synchronizes all ranks every cycle, the *slowest* OST of each instant
//    stalls everyone — the straggler component of the collective wall.
//    Partitioned subgroups drift apart in time and average over the slow
//    epochs instead of aligning with the worst one.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>

#include "fault/fault.hpp"
#include "machine/machine_model.hpp"

namespace parcoll::fs {

/// Result of one RPC service attempt. `ok` is false when a fault swallowed
/// the request (OST outage or random drop): the OST never saw it, `done`
/// echoes the arrival time, and the client's timeout machinery takes over.
struct ServeOutcome {
  double done = 0.0;
  bool ok = true;
};

class OstModel {
 public:
  OstModel(int id, const machine::StorageParams& params)
      : id_(id), params_(params) {}

  /// Reserve service of one RPC carrying `bytes` of payload whose pieces
  /// span the object range [lock_lo, lock_hi) of `file_id` (Lustre BRW
  /// RPCs carry discontiguous pages, so the locked span can exceed the
  /// payload), from `client`, arriving at `ready`. Returns the completion
  /// time and whether the request was accepted; `force` serves even under
  /// an active fault (the last-resort path that guarantees progress).
  ServeOutcome serve(double ready, int file_id, int client,
                     std::uint64_t lock_lo, std::uint64_t lock_hi,
                     std::uint64_t bytes, bool is_write,
                     std::uint64_t fragments = 1, bool force = false);

  /// Attach a fault plan (both pointers may be null to detach).
  void set_fault(const fault::FaultPlan* plan, fault::FaultState* state) {
    fault_plan_ = plan;
    fault_state_ = state;
  }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] std::uint64_t rpcs_served() const { return request_seq_; }
  [[nodiscard]] std::uint64_t lock_switches() const { return lock_switches_; }
  [[nodiscard]] double busy_until() const { return busy_until_; }
  /// Total seconds of service time reserved so far (cumulative busy time).
  [[nodiscard]] double service_seconds() const { return service_seconds_; }
  /// The longest backlog an accepted RPC found on arrival: how long it
  /// queued behind already-accepted work, a seconds-denominated depth.
  [[nodiscard]] double peak_backlog() const { return peak_backlog_; }
  [[nodiscard]] std::uint64_t bytes_served() const { return bytes_served_; }
  /// Payload bytes of accepted RPCs that have not completed by `now`.
  /// Prunes completed entries, so calls with non-decreasing `now` stay
  /// amortized O(1).
  [[nodiscard]] std::uint64_t inflight_bytes(double now);

  /// The service-time multiplier in effect at virtual time `at` (>= 1).
  [[nodiscard]] double slowdown(double at) const;

 private:
  struct Grant {
    std::uint64_t end = 0;
    int client = -1;
    std::uint64_t dirty = 0;  // bytes written under this grant (capped)
  };
  /// Non-overlapping granted ranges per file: start -> (end, client).
  using GrantMap = std::map<std::uint64_t, Grant>;

  /// Revokes conflicting foreign grants and installs an extended grant for
  /// `client`, accumulating `bytes` as dirty under it. Returns the total
  /// revocation cost in seconds.
  double acquire_write_lock(GrantMap& grants, int client, std::uint64_t offset,
                            std::uint64_t end, std::uint64_t bytes);

  int id_;
  machine::StorageParams params_;
  double busy_until_ = 0.0;
  std::uint64_t request_seq_ = 0;
  std::uint64_t lock_switches_ = 0;
  double service_seconds_ = 0.0;
  double peak_backlog_ = 0.0;
  std::uint64_t bytes_served_ = 0;
  /// (completion time, payload bytes) of accepted RPCs, completion order.
  std::deque<std::pair<double, std::uint64_t>> inflight_;
  std::uint64_t inflight_sum_ = 0;
  std::unordered_map<int, GrantMap> grants_by_file_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  fault::FaultState* fault_state_ = nullptr;
  std::uint64_t fault_draws_ = 0;  // monotone: retries get fresh randomness
};

}  // namespace parcoll::fs
