#include "fs/lustre.hpp"

#include <algorithm>
#include <stdexcept>

#include "fs/integrity.hpp"
#include "obs/metrics.hpp"
#include "sim/small_vector.hpp"

namespace parcoll::fs {

LustreSim::LustreSim(sim::Engine& engine,
                     const machine::StorageParams& params, StoreMode mode)
    : engine_(engine),
      params_(params),
      mode_(mode),
      range_locks_(engine, params.flock_roundtrip, params.flock_server_time) {
  if (params_.num_osts <= 0) {
    throw std::invalid_argument("LustreSim: need at least one OST");
  }
  if (mode == StoreMode::Memory) {
    store_ = std::make_unique<MemoryStore>();
  } else {
    auto phantom = std::make_unique<PhantomStore>();
    phantom_ = phantom.get();
    store_ = std::move(phantom);
  }
  osts_.reserve(static_cast<std::size_t>(params_.num_osts));
  for (int i = 0; i < params_.num_osts; ++i) {
    osts_.emplace_back(i, params_);
  }
  corrupt_draws_.resize(static_cast<std::size_t>(params_.num_osts), 0);
}

int LustreSim::open(const std::string& name, int stripe_count,
                    std::uint64_t stripe_size, bool charge_metadata) {
  if (charge_metadata) {
    engine_.sleep(kMetadataLatency);
  }
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;
  }
  FileMeta meta;
  meta.name = name;
  meta.stripe_count =
      stripe_count > 0 ? std::min(stripe_count, params_.num_osts)
                       : params_.default_stripe_count;
  meta.stripe_count = std::min(meta.stripe_count, params_.num_osts);
  meta.stripe_size = stripe_size > 0 ? stripe_size : params_.default_stripe_size;
  meta.ost_start = static_cast<int>(files_.size()) % params_.num_osts;
  const int id = static_cast<int>(files_.size());
  files_.push_back(meta);
  by_name_.emplace(name, id);
  return id;
}

void LustreSim::remove(const std::string& name) {
  engine_.sleep(kMetadataLatency);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::invalid_argument("LustreSim::remove: no such file: " + name);
  }
  by_name_.erase(it);
}

const FileMeta& LustreSim::meta(int file_id) const {
  return files_.at(static_cast<std::size_t>(file_id));
}

double LustreSim::submit(int client, int file_id,
                         std::span<const Extent> extents, const std::byte* in,
                         std::byte* out, bool is_write,
                         double& faulted_seconds) {
  const FileMeta& file = meta(file_id);
  double last_completion = engine_.now();

  // Per-OST accumulation of pieces into BRW RPCs: Lustre RPCs carry up to
  // max_rpc_size of payload as a (possibly discontiguous) page list, so
  // small strided pieces on the same target coalesce into one request.
  // Only the OSTs this call touches get one, in first-touch order.
  struct PendingRpc {
    int ost = 0;
    std::uint64_t lock_lo = 0;
    std::uint64_t lock_hi = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fragments = 0;
  };
  sim::SmallVector<PendingRpc, 8> pending;
  std::size_t last_used = 0;
  // Consecutive pieces mostly land on the OST of the one before.
  const auto pending_of = [&](int ost_index) -> PendingRpc& {
    if (last_used < pending.size() && pending[last_used].ost == ost_index) {
      return pending[last_used];
    }
    for (last_used = 0; last_used < pending.size(); ++last_used) {
      if (pending[last_used].ost == ost_index) return pending[last_used];
    }
    return pending.emplace_back(PendingRpc{ost_index});
  };

  // The job this client's traffic is accounted to ("" / null = untagged).
  const std::string* job = nullptr;
  if (jobs_ != nullptr && client >= 0 &&
      static_cast<std::size_t>(client) < jobs_->size() &&
      !(*jobs_)[static_cast<std::size_t>(client)].empty()) {
    job = &(*jobs_)[static_cast<std::size_t>(client)];
  }

  // Records one served RPC: the backlog it found at the OST that accepted
  // it (after a failover, not the one it was sent to; how long it queued
  // behind already-accepted work, a seconds-denominated queue depth) and
  // its end-to-end latency from issue to service completion (including
  // any retry/backoff time the caller burned). The OST's own totals, its
  // peak backlog among them, are written once, by record_ost_totals.
  auto note_served = [&](std::uint64_t bytes, double backlog, double issue,
                         double done) {
    queue_wait_.in(*metrics_).observe(backlog);
    const double latency = done - issue;
    rpc_latency_.in(*metrics_).observe(latency);
    if (job != nullptr) {
      metrics_->quantile(obs::MetricsRegistry::job_key("fs.rpc.latency_s",
                                                       *job))
          .observe(latency);
      ++metrics_->counter(obs::MetricsRegistry::job_key("fs.rpcs", *job));
      metrics_->counter(obs::MetricsRegistry::job_key("fs.bytes", *job)) +=
          bytes;
    }
  };

  auto flush = [&](PendingRpc& rpc) {
    if (rpc.bytes == 0) return;
    const int ost_index = rpc.ost;
    // Client CPU to build and issue the RPC.
    engine_.sleep(params_.client_rpc_overhead);
    const double issue = engine_.now();
    // Without a fault plan the first serve succeeds. Degraded mode: detect
    // a swallowed RPC after the timeout, resend with capped exponential
    // backoff, and after the retry budget is exhausted fail over to the
    // next surviving OST. Data already sits in the ObjectStore (written in
    // the chunk loop), so failover only redirects the *timing* of service
    // — stripe placement of bytes is unchanged, matching a degraded Lustre
    // client writing through a backup target.
    int target = ost_index;
    int attempt = 0;
    int hops = 0;
    for (;;) {
      // After a full lap over the OSTs, force service so pathological
      // plans (every target down forever) cannot hang the simulation.
      const bool force = hops >= params_.num_osts;
      OstModel& ost = osts_[static_cast<std::size_t>(target)];
      const double backlog = std::max(0.0, ost.busy_until() - engine_.now());
      const ServeOutcome outcome =
          ost.serve(engine_.now(), file_id, client, rpc.lock_lo, rpc.lock_hi,
                    rpc.bytes, is_write, rpc.fragments, force);
      if (outcome.ok) {
        last_completion = std::max(last_completion, outcome.done);
        if (metrics_ != nullptr) {
          note_served(rpc.bytes, backlog, issue, outcome.done);
        }
        break;
      }
      const double wait =
          fault_plan_->retry.timeout + fault_plan_->backoff(attempt);
      engine_.sleep(wait);
      faulted_seconds += wait;
      fault::FaultCounters& mine = fault_state_->of(client);
      mine.faulted_seconds += wait;
      if (attempt < fault_plan_->retry.max_retries) {
        ++attempt;
        ++mine.retries;
        continue;
      }
      // Retry budget exhausted on this target: fail over to the next OST
      // that is up right now (or the neighbour, if all are down — time
      // advances each lap, so finite outage windows eventually pass).
      int next = (target + 1) % params_.num_osts;
      for (int probe = 0; probe < params_.num_osts; ++probe) {
        const int candidate = (target + 1 + probe) % params_.num_osts;
        if (!fault_plan_->ost_down(candidate, engine_.now())) {
          next = candidate;
          break;
        }
      }
      target = next;
      attempt = 0;
      ++hops;
      ++mine.failovers;
    }
    rpc = PendingRpc{ost_index};
  };

  // The stripe and OST of the piece before: an extent that stays in its
  // stripe reuses them, and only one that leaves it locates again.
  StripeCursor stripes(file.stripe_size, file.stripe_count);
  int stripe = -1;
  int ost_index = 0;
  std::uint64_t data_pos = 0;
  for (const Extent& extent : extents) {
    std::uint64_t pos = extent.offset;
    const std::uint64_t end = extent.end();
    while (pos < end) {
      const StripeChunk chunk = stripes.chunk(pos, end);
      if (chunk.stripe_index != stripe) {
        stripe = chunk.stripe_index;
        ost_index = (file.ost_start + stripe) % params_.num_osts;
      }
      const std::uint64_t chunk_end = pos + chunk.length;
      PendingRpc& rpc = pending_of(ost_index);
      while (pos < chunk_end) {
        const std::uint64_t room = params_.max_rpc_size - rpc.bytes;
        const std::uint64_t piece_len =
            std::min<std::uint64_t>(chunk_end - pos, room);
        if (piece_len == 0) {
          flush(rpc);
          continue;
        }
        if (rpc.bytes == 0) {
          rpc.lock_lo = pos;
          rpc.lock_hi = pos + piece_len;
          rpc.fragments = 1;
        } else {
          // A piece extending the previous one is not a new fragment.
          if (pos != rpc.lock_hi) {
            ++rpc.fragments;
          }
          rpc.lock_lo = std::min(rpc.lock_lo, pos);
          rpc.lock_hi = std::max(rpc.lock_hi, pos + piece_len);
        }
        rpc.bytes += piece_len;
        // Data moves through the store piece by piece, in stream order; a
        // phantom store is reached through its final type.
        if (is_write) {
          const std::byte* src = in == nullptr ? nullptr : in + data_pos;
          if (phantom_ != nullptr) {
            phantom_->write(file_id, pos, src, piece_len);
          } else {
            store_->write(file_id, pos, src, piece_len);
          }
          if (integrity_ != nullptr) {
            integrity_->mark_landed(file_id, pos, piece_len);
          }
          if (fault_plan_ != nullptr && fault_plan_->rpc_corrupt_prob > 0.0) {
            ingest_piece(client, file_id, ost_index, pos, src, piece_len,
                         faulted_seconds);
          }
        } else {
          std::byte* dst = out == nullptr ? nullptr : out + data_pos;
          if (phantom_ != nullptr) {
            phantom_->read(file_id, pos, dst, piece_len);
          } else {
            store_->read(file_id, pos, dst, piece_len);
          }
        }
        data_pos += piece_len;
        pos += piece_len;
        if (rpc.bytes == params_.max_rpc_size) {
          flush(rpc);
        }
      }
    }
  }
  // What is left goes out in ascending OST order.
  std::sort(pending.begin(), pending.end(),
            [](const PendingRpc& a, const PendingRpc& b) {
              return a.ost < b.ost;
            });
  for (PendingRpc& rpc : pending) {
    flush(rpc);
  }
  return last_completion;
}

void LustreSim::ingest_piece(int client, int file_id, int ost_index,
                             std::uint64_t pos, const std::byte* src,
                             std::uint64_t piece_len,
                             double& faulted_seconds) {
  // of(client) is re-fetched at every use: the counter vector reallocates
  // when another fiber first touches a higher client id, which can happen
  // during any sleep below — a reference held across a yield dangles.
  int attempt = 0;
  bool was_corrupt = false;
  for (;;) {
    const bool corrupted = fault_plan_->corrupt_rpc(
        ost_index, corrupt_draws_[static_cast<std::size_t>(ost_index)]++);
    if (corrupted) {
      ++fault_state_->of(client).corrupt_injected;
      // Flip one bit of a seeded byte of the stored piece.
      const std::uint64_t site = fault_plan_->corrupt_site(
          pos, piece_len + static_cast<std::uint64_t>(attempt));
      if (mode_ == StoreMode::Memory) {
        const std::uint64_t at = pos + site % piece_len;
        std::byte b{};
        store_->read(file_id, at, &b, 1);
        b ^= static_cast<std::byte>(1u << ((site >> 32) & 7));
        store_->write(file_id, at, &b, 1);
      }
    }
    if (integrity_ == nullptr) {
      return;  // no wire checksum: corruption (if any) lands silently
    }
    if (!corrupted) {
      if (was_corrupt) {
        // A retransmit delivered the clean payload.
        integrity_->note_repaired(client, file_id, /*by_scrubber=*/false);
      }
      return;
    }
    // The OST's ingest checksum rejects the payload; the client resends
    // under the same timeout/backoff policy as a swallowed RPC.
    was_corrupt = true;
    integrity_->note_detected(client, file_id);
    if (attempt >= fault_plan_->retry.max_retries) {
      // Retransmit budget exhausted. At Repair level the pipeline retains
      // the clean source bytes, so the extent is healed in place rather
      // than declared lost; at Detect there is no replica and the failing
      // extent goes to collective agreement.
      if (integrity_->config().level == IntegrityLevel::Repair) {
        store_->write(file_id, pos, src, piece_len);
        integrity_->note_repaired(client, file_id, /*by_scrubber=*/false);
        return;
      }
      integrity_->record_error(file_id, pos, piece_len);
      return;
    }
    const double wait =
        fault_plan_->retry.timeout + fault_plan_->backoff(attempt);
    engine_.sleep(wait);
    faulted_seconds += wait;
    fault::FaultCounters& mine = fault_state_->of(client);
    mine.faulted_seconds += wait;
    ++attempt;
    ++mine.retries;
    store_->write(file_id, pos, src, piece_len);  // resend the clean payload
  }
}

void LustreSim::corrupt_media(const fault::MediaCorrupt& event,
                              std::uint64_t event_index, int client) {
  if (fault_plan_ == nullptr || mode_ != StoreMode::Memory) {
    return;  // phantom stores hold no bytes to decay
  }
  if (event.ost < 0 || event.ost >= params_.num_osts) return;
  // How many stored bytes the target OST holds, per file, right now.
  const auto bytes_on_ost = [&](const FileMeta& file, std::uint64_t size) {
    std::uint64_t held = 0;
    for (std::uint64_t lo = 0; lo < size; lo += file.stripe_size) {
      const int stripe =
          static_cast<int>((lo / file.stripe_size) %
                           static_cast<std::uint64_t>(file.stripe_count));
      if ((file.ost_start + stripe) % params_.num_osts == event.ost) {
        held += std::min(file.stripe_size, size - lo);
      }
    }
    return held;
  };
  std::vector<std::pair<int, std::uint64_t>> holdings;
  std::uint64_t total = 0;
  for (int id = 0; id < static_cast<int>(files_.size()); ++id) {
    const std::uint64_t held = bytes_on_ost(files_[static_cast<std::size_t>(id)],
                                            store_->size(id));
    if (held > 0) {
      holdings.emplace_back(id, held);
      total += held;
    }
  }
  if (total == 0) return;  // the OST holds nothing yet: the event is a no-op
  const std::uint64_t site = fault_plan_->corrupt_site(
      event_index, static_cast<std::uint64_t>(event.ost));
  std::uint64_t nth = site % total;
  for (const auto& [id, held] : holdings) {
    if (nth >= held) {
      nth -= held;
      continue;
    }
    // Walk this file's stripes on the target OST to the nth held byte.
    const FileMeta& file = files_[static_cast<std::size_t>(id)];
    const std::uint64_t size = store_->size(id);
    for (std::uint64_t lo = 0; lo < size; lo += file.stripe_size) {
      const int stripe =
          static_cast<int>((lo / file.stripe_size) %
                           static_cast<std::uint64_t>(file.stripe_count));
      if ((file.ost_start + stripe) % params_.num_osts != event.ost) continue;
      const std::uint64_t len = std::min(file.stripe_size, size - lo);
      if (nth >= len) {
        nth -= len;
        continue;
      }
      std::byte b{};
      store_->read(id, lo + nth, &b, 1);
      b ^= static_cast<std::byte>(1u << ((site >> 32) & 7));
      store_->write(id, lo + nth, &b, 1);
      ++fault_state_->of(client).corrupt_injected;
      return;
    }
  }
}

IoResult LustreSim::write(int client, int file_id,
                          std::span<const Extent> extents,
                          const std::byte* data) {
  IoResult result;
  const double done = submit(client, file_id, extents, data, nullptr, true,
                             result.faulted_seconds);
  engine_.sleep_until(done);
  return result;
}

IoResult LustreSim::read(int client, int file_id,
                         std::span<const Extent> extents, std::byte* out) {
  IoResult result;
  const double done = submit(client, file_id, extents, nullptr, out, false,
                             result.faulted_seconds);
  engine_.sleep_until(done);
  return result;
}

void LustreSim::set_fault(const fault::FaultPlan* plan,
                          fault::FaultState* state) {
  fault_plan_ = plan;
  fault_state_ = state;
  for (OstModel& ost : osts_) {
    ost.set_fault(plan, state);
  }
}

void LustreSim::record_ost_totals() {
  if (metrics_ == nullptr) return;
  for (std::size_t i = 0; i < osts_.size(); ++i) {
    const OstModel& ost = osts_[i];
    if (ost.rpcs_served() == 0) continue;
    metrics_->counter("fs.ost.rpcs", i) = ost.rpcs_served();
    metrics_->counter("fs.ost.bytes", i) = ost.bytes_served();
    metrics_->gauge("fs.ost.service_s", i) = ost.service_seconds();
    metrics_->gauge("fs.ost.queue_depth_s", i) = ost.peak_backlog();
  }
}

std::uint64_t LustreSim::total_rpcs() const {
  std::uint64_t total = 0;
  for (const OstModel& ost : osts_) total += ost.rpcs_served();
  return total;
}

std::uint64_t LustreSim::total_lock_switches() const {
  std::uint64_t total = 0;
  for (const OstModel& ost : osts_) total += ost.lock_switches();
  return total;
}

}  // namespace parcoll::fs
