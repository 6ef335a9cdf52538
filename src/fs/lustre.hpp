// Lustre-like parallel file system simulation.
//
// Files are striped over a subset of the OSTs (default: 64 targets, 4 MB
// stripes, matching the paper's configuration). A client read/write of an
// extent list is split at stripe boundaries and into max_rpc_size RPCs,
// each issued to its OST (costing client CPU per RPC) and served in FIFO
// order by the OST model; the call returns when the last RPC completes —
// i.e. the client pipelines RPCs, as liblustre does.
//
// Data semantics: `data` is the concatenation of the extents' payloads in
// list order (nullptr for phantom mode). Bytes land in / come from the
// ObjectStore, so tests can verify protocol correctness end to end.
//
// This layer deliberately knows nothing about MPI; callers are identified
// by an integer client id (the rank), and time is charged by the caller.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/object_store.hpp"
#include "fs/ost.hpp"
#include "fs/range_lock.hpp"
#include "fs/stripe.hpp"
#include "machine/machine_model.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace parcoll::fs {

class IntegrityManager;

struct FileMeta {
  std::string name;
  int stripe_count = 0;
  std::uint64_t stripe_size = 0;
  int ost_start = 0;  // stripe index i lives on OST (ost_start + i) % num_osts
};

/// Degraded-mode outcome of one client I/O call. `faulted_seconds` is the
/// virtual time this client spent in timeouts and retry backoff during the
/// call (0 on the fault-free path), so callers can charge it to
/// TimeCat::Faulted instead of TimeCat::IO.
struct IoResult {
  double faulted_seconds = 0.0;
};

class LustreSim {
 public:
  LustreSim(sim::Engine& engine, const machine::StorageParams& params,
            StoreMode mode);

  /// Open (creating if needed) a file. Charges a metadata RTT of virtual
  /// time to the calling process. Zero stripe_count / stripe_size mean the
  /// file-system defaults. Striping of an existing file is immutable.
  int open(const std::string& name, int stripe_count = 0,
           std::uint64_t stripe_size = 0, bool charge_metadata = true);

  /// True if `name` has been created. Free (no simulated time).
  [[nodiscard]] bool exists(const std::string& name) const {
    return by_name_.count(name) > 0;
  }

  /// MPI_File_delete analogue: drop the name (ids are never reused).
  /// Charges a metadata RTT.
  void remove(const std::string& name);

  /// Write the extent list. `data` is the concatenated payload (or nullptr).
  /// Blocks the calling fiber until the last RPC completes.
  IoResult write(int client, int file_id, std::span<const Extent> extents,
                 const std::byte* data);

  /// Read the extent list into `out` (concatenated; nullptr allowed).
  IoResult read(int client, int file_id, std::span<const Extent> extents,
                std::byte* out);

  /// Attach a fault plan; forwarded to every OST (nulls detach).
  void set_fault(const fault::FaultPlan* plan, fault::FaultState* state);

  /// Attach the integrity manager (null detaches). With it attached, a
  /// write RPC whose payload the fault plan corrupts is caught by the wire
  /// checksum at OST ingest and retransmitted under the retry policy;
  /// without it the corruption lands silently.
  void set_integrity(IntegrityManager* integrity) { integrity_ = integrity; }

  /// Apply one latent media-corruption event: flip a bit of a seeded byte
  /// among those OST `event.ost` currently holds (no-op while it holds
  /// nothing, and in phantom mode). Called from an engine timer; never
  /// sleeps. `client` attributes the injection counter.
  void corrupt_media(const fault::MediaCorrupt& event,
                     std::uint64_t event_index, int client);

  /// Attach a metrics registry (null detaches). Recording observes the
  /// clock and OST backlog but never sleeps, so timing is unchanged.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  /// Write `fs.ost.rpcs[i]`, `fs.ost.bytes[i]`, `fs.ost.service_s[i]` and
  /// `fs.ost.queue_depth_s[i]` (the peak backlog) into the attached
  /// registry for every OST that served an RPC. The World calls it once,
  /// when its run ends.
  void record_ost_totals();

  /// Attach the per-client job table (null detaches): jobs->at(client) is
  /// the tenant name of that client id, "" for untagged. The vector is
  /// owned by the caller (the World) and may grow while attached; it is
  /// re-read on every RPC. With it attached and metrics on, fs-layer
  /// traffic is additionally accounted under "...{job=NAME}" slices.
  void set_jobs(const std::vector<std::string>* jobs) { jobs_ = jobs; }

  [[nodiscard]] int num_osts() const { return params_.num_osts; }
  /// Mutable access for samplers (inflight_bytes prunes internally).
  [[nodiscard]] OstModel& ost(std::size_t i) { return osts_[i]; }
  [[nodiscard]] const OstModel& ost(std::size_t i) const { return osts_[i]; }

  [[nodiscard]] std::uint64_t file_size(int file_id) const {
    return store_->size(file_id);
  }
  [[nodiscard]] const FileMeta& meta(int file_id) const;
  [[nodiscard]] const machine::StorageParams& params() const { return params_; }
  [[nodiscard]] ObjectStore& store() { return *store_; }

  /// Advisory byte-range locks (fcntl analogue) for data-sieving writers.
  [[nodiscard]] RangeLockManager& range_locks() { return range_locks_; }

  /// Totals across OSTs, for model validation in tests.
  [[nodiscard]] std::uint64_t total_rpcs() const;
  [[nodiscard]] std::uint64_t total_lock_switches() const;

 private:
  double submit(int client, int file_id, std::span<const Extent> extents,
                const std::byte* in, std::byte* out, bool is_write,
                double& faulted_seconds);
  /// Corruption/ingest-verification loop for one stored write piece.
  void ingest_piece(int client, int file_id, int ost_index, std::uint64_t pos,
                    const std::byte* src, std::uint64_t piece_len,
                    double& faulted_seconds);

  sim::Engine& engine_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  fault::FaultState* fault_state_ = nullptr;
  IntegrityManager* integrity_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// The per-RPC instruments of metrics_.
  obs::QuantileHandle queue_wait_{"fs.ost.queue_wait_s"};
  obs::QuantileHandle rpc_latency_{"fs.rpc.latency_s"};
  const std::vector<std::string>* jobs_ = nullptr;
  machine::StorageParams params_;
  StoreMode mode_;
  RangeLockManager range_locks_;
  std::unique_ptr<ObjectStore> store_;
  /// store_ itself in phantom mode (else null), for the piece loop.
  PhantomStore* phantom_ = nullptr;
  std::vector<OstModel> osts_;
  /// Per-OST monotone draw counters for the payload-corruption process
  /// (fresh randomness per transmission, like the OSTs' drop/delay draws).
  std::vector<std::uint64_t> corrupt_draws_;
  std::vector<FileMeta> files_;
  std::unordered_map<std::string, int> by_name_;
  /// Metadata (MDS) round-trip for open.
  static constexpr double kMetadataLatency = 0.5e-3;
};

}  // namespace parcoll::fs
