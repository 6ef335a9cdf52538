#include "fs/ost.hpp"

#include <algorithm>
#include <limits>

#include "sim/random.hpp"

namespace parcoll::fs {

namespace {
constexpr std::uint64_t kInfinity = std::numeric_limits<std::uint64_t>::max();
}

double OstModel::slowdown(double at) const {
  if (params_.slow_epoch_seconds <= 0) return 1.0;
  const auto epoch = static_cast<std::uint64_t>(at / params_.slow_epoch_seconds);
  const std::uint64_t h = sim::hash_combine(
      sim::hash_combine(sim::mix64(params_.seed ^ 0x5105105105105105ull),
                        static_cast<std::uint64_t>(id_)),
      epoch);
  const double u = sim::uniform01(h);
  if (u < 1.0 - params_.slow_prob - params_.very_slow_prob) {
    return 1.0;
  }
  // Reuse more bits of the hash for the factor within the band.
  const double v = sim::uniform01(sim::mix64(h));
  if (u < 1.0 - params_.very_slow_prob) {
    return 1.0 + v * (params_.slow_factor - 1.0);
  }
  return params_.slow_factor +
         v * (params_.very_slow_factor - params_.slow_factor);
}

double OstModel::acquire_write_lock(GrantMap& grants, int client,
                                    std::uint64_t offset, std::uint64_t end,
                                    std::uint64_t bytes) {
  double cost = 0.0;
  // A node taken out of the map, kept to hold the next grant put in, so
  // reshaping the grants reuses their nodes.
  GrantMap::node_type spare;
  const auto put = [&](std::uint64_t start, const Grant& grant) {
    if (spare.empty()) {
      grants.emplace(start, grant);
      return;
    }
    spare.key() = start;
    spare.mapped() = grant;
    grants.insert(std::move(spare));
  };
  // Find every grant overlapping [offset, end); trim or remove the foreign
  // ones (each trim/removal is one revocation: the holder flushes and
  // drops the conflicting part of its lock).
  auto it = grants.upper_bound(offset);
  if (it != grants.begin()) {
    --it;  // may still overlap if its end > offset
  }
  bool already_covered_by_self = false;
  while (it != grants.end() && it->first < end) {
    const std::uint64_t g_start = it->first;
    const std::uint64_t g_end = it->second.end;
    if (g_end <= offset) {
      ++it;
      continue;
    }
    if (it->second.client == client) {
      if (g_start <= offset && g_end >= end) {
        already_covered_by_self = true;
        it->second.dirty =
            std::min<std::uint64_t>(it->second.dirty + bytes,
                                    params_.lock_dirty_cap);
      }
      ++it;
      continue;
    }
    // Foreign overlapping grant: revoke it. The holder flushes its dirty
    // bytes and keeps only the part below the new writer (its actively
    // written range); the speculative forward extension is cancelled
    // outright — retaining it would make every subsequent streaming RPC of
    // the new writer conflict again.
    ++lock_switches_;
    cost += params_.lock_revoke_overhead +
            static_cast<double>(it->second.dirty) / params_.ost_bandwidth;
    const int other = it->second.client;
    const std::uint64_t left_end = std::min(g_end, offset);
    spare = grants.extract(it++);
    if (g_start < left_end) {
      put(g_start, Grant{left_end, other, 0});
    }
  }
  if (already_covered_by_self) {
    return cost;  // nothing to install
  }
  // Install the new grant, extended into the free gap around the request
  // (Lustre hands out as much as it can so streaming writers stop asking).
  std::uint64_t new_start = 0;
  std::uint64_t new_end = kInfinity;
  std::uint64_t dirty = std::min<std::uint64_t>(bytes, params_.lock_dirty_cap);
  auto next = grants.lower_bound(offset);
  if (next != grants.begin()) {
    auto prev = std::prev(next);
    if (prev->second.client == client && prev->second.end >= offset) {
      // Merge with our own adjacent grant.
      new_start = prev->first;
      dirty = std::min<std::uint64_t>(dirty + prev->second.dirty,
                                      params_.lock_dirty_cap);
      spare = grants.extract(prev);
      next = grants.lower_bound(offset);
    } else {
      new_start = prev->second.end;
    }
  }
  if (next != grants.end()) {
    if (next->second.client == client && next->first <= end) {
      new_end = next->second.end;
      dirty = std::min<std::uint64_t>(dirty + next->second.dirty,
                                      params_.lock_dirty_cap);
      spare = grants.extract(next);
    } else {
      new_end = next->first;
    }
  }
  put(new_start, Grant{new_end, client, dirty});
  return cost;
}

ServeOutcome OstModel::serve(double ready, int file_id, int client,
                             std::uint64_t lock_lo, std::uint64_t lock_hi,
                             std::uint64_t bytes, bool is_write,
                             std::uint64_t fragments, bool force) {
  double delay = 0.0;
  if (fault_plan_ != nullptr && !force) {
    // A request swallowed by a fault leaves no trace on the OST: no busy
    // time reserved, no request_seq_ advance — only the draw counter moves,
    // so a retry of the same RPC gets fresh randomness.
    if (fault_plan_->ost_down(id_, ready)) {
      return {ready, false};
    }
    const std::uint64_t draw = fault_draws_++;
    if (fault_plan_->drop_rpc(id_, draw)) {
      if (fault_state_ != nullptr) {
        ++fault_state_->of(client).drops;
      }
      return {ready, false};
    }
    if (fault_plan_->delay_rpc(id_, draw)) {
      delay = fault_plan_->rpc_delay_seconds;
      if (fault_state_ != nullptr) {
        ++fault_state_->of(client).delays;
      }
    }
  }
  const double start = std::max(ready, busy_until_);
  peak_backlog_ = std::max(peak_backlog_, start - ready);
  double service = params_.request_overhead +
                   static_cast<double>(bytes) / params_.ost_bandwidth;
  if (fragments > 1) {
    service += static_cast<double>(fragments - 1) * params_.fragment_overhead;
  }
  const double jitter = sim::jitter01(params_.seed,
                                      static_cast<std::uint64_t>(id_),
                                      request_seq_);
  service *= 1.0 + params_.jitter_frac * jitter;
  service *= slowdown(start);
  if (fault_plan_ != nullptr && !force) {
    service *= fault_plan_->degrade_factor(id_, start);
    service += delay;
  }
  if (is_write) {
    service += acquire_write_lock(grants_by_file_[file_id], client, lock_lo,
                                  lock_hi, bytes);
  }
  ++request_seq_;
  busy_until_ = start + service;
  service_seconds_ += service;
  bytes_served_ += bytes;
  inflight_.emplace_back(busy_until_, bytes);
  inflight_sum_ += bytes;
  // Amortized prune: RPCs complete in FIFO order, so everything done by
  // `ready` sits at the front.
  while (!inflight_.empty() && inflight_.front().first <= ready) {
    inflight_sum_ -= inflight_.front().second;
    inflight_.pop_front();
  }
  return {busy_until_, true};
}

std::uint64_t OstModel::inflight_bytes(double now) {
  while (!inflight_.empty() && inflight_.front().first <= now) {
    inflight_sum_ -= inflight_.front().second;
    inflight_.pop_front();
  }
  return inflight_sum_;
}

}  // namespace parcoll::fs
