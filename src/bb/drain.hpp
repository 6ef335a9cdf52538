// Write-behind drain scheduling for the burst-buffer staging tier.
//
// One DrainScheduler serves a StagingStore. Each node arena is drained by
// at most one fiber at a time (spawned on demand, exiting when the queue
// empties), so same-node segments reach the file strictly in FIFO order.
// The drain fiber rides the same split-phase machinery as mpiio/async.*:
// a helper fiber spawned at the current virtual time that blocks in
// LustreSim::write while the foreground ranks keep running.
//
// Policy gates (see bb::DrainPolicy) decide when the fiber starts and
// whether it pauses; all of them are overridden while a flush is waiting
// (a flush kicks every node when it starts, on_stage kicks the nodes that
// stage while it waits) or after a deadline timer marks the arena overdue,
// so flushes never stall behind a policy and staged data never waits
// unboundedly.
#pragma once

#include "sim/engine.hpp"

namespace parcoll::bb {

class StagingStore;

class DrainScheduler {
 public:
  explicit DrainScheduler(StagingStore& store) : store_(store) {}

  /// Policy trigger after a segment is staged in `node`'s arena.
  void on_stage(int node);

  /// Ensure a drain fiber is running for `node` (no-op if one is active
  /// or the queue is empty).
  void kick(int node);
  void kick_all();

  /// Wake drain fibers parked on foreground arbitration.
  void poke();

 private:
  void drain_loop(int node);
  /// Arm the node's (coalesced) deadline timer: at `at`, a still-nonempty
  /// queue is marked overdue and drained regardless of policy gates.
  void arm_deadline(int node, double at);
  /// Write one segment to the backend on the current (drain) fiber,
  /// charging time/counters to the file's stats. The fs client id is
  /// synthetic (nranks + node) so per-rank fault attribution stays clean.
  void write_segment(int node);

  StagingStore& store_;
  sim::WaitQueue arbitration_;
};

}  // namespace parcoll::bb
