#include "mpi/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "fs/integrity.hpp"
#include "fs/lustre.hpp"
#include "mpi/collectives.hpp"
#include "mpi/p2p.hpp"
#include "mpi/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace parcoll::mpi {

World::World(machine::MachineModel model, bool byte_true)
    : model_(std::move(model)),
      network_(model_.topology, model_.net, model_.mem),
      byte_true_(byte_true) {
  p2p_ = std::make_unique<P2PEngine>(engine_, network_, model_.topology);
  colls_ = std::make_unique<CollEngine>(engine_, model_.net);
  fs_ = std::make_unique<fs::LustreSim>(
      engine_, model_.storage,
      byte_true ? fs::StoreMode::Memory : fs::StoreMode::Phantom);
  std::vector<int> members(static_cast<std::size_t>(model_.topology.nranks()));
  std::iota(members.begin(), members.end(), 0);
  world_comm_ = Comm(/*context_id=*/1, std::move(members));
}

World::~World() {
  // A run that ended in an exception leaves other fibers suspended
  // mid-call. Unwind them first, while the members their destructors
  // reach (tracer spans, staging stores, the sampler's registry) live.
  engine_.unwind();
}

void World::run(std::function<void(Rank&)> program) {
  if (ran_) {
    throw std::logic_error("World::run: a World can only run one program");
  }
  ran_ = true;
  const int nranks = model_.topology.nranks();
  rank_times_.resize(static_cast<std::size_t>(nranks));
  if (fault_plan_ != nullptr && !fault_plan_->media.empty()) {
    // Latent media corruption fires on engine timers, independent of any
    // rank's progress. When the scrubber is on, it visits shortly after
    // each event; the close-time sweep remains the hard guarantee.
    // Synthetic client ids sit past the ranks and the per-node drain
    // agents so nobody's snapshot-and-diff counters see this activity.
    const int media_client = nranks + model_.topology.num_nodes();
    for (std::size_t i = 0; i < fault_plan_->media.size(); ++i) {
      const fault::MediaCorrupt event = fault_plan_->media[i];
      engine_.post(event.at, [this, event, i, media_client] {
        fs_->corrupt_media(event, i, media_client);
        // Only a Repair-level scrubber runs mid-run: it can heal, and a
        // spurious mismatch on a block that is registered but not yet
        // landed just writes the very bytes that are about to land. A
        // Detect-level pass could record that transient as a hard error,
        // so detection of media corruption waits for read/close passes.
        if (integrity_ != nullptr && integrity_->config().scrub &&
            integrity_->config().level == fs::IntegrityLevel::Repair) {
          schedule_scrub(event.at + integrity_->config().scrub_delay);
        }
      });
    }
  }
  for (int r = 0; r < nranks; ++r) {
    engine_.spawn([this, r, program] {
      Rank self(*this, r);
      program(self);
      rank_times_[static_cast<std::size_t>(r)] = self.times().breakdown();
    });
  }
  if (sampler_ != nullptr) {
    schedule_sample(0.0);
  }
  engine_.run();
  elapsed_ = engine_.now();
  fs_->record_ost_totals();
}

obs::TimeSeriesSampler& World::enable_sampler(double interval) {
  if (ran_) {
    throw std::logic_error(
        "World::enable_sampler: enable the sampler before run()");
  }
  if (sampler_) {
    return *sampler_;
  }
  sampler_ = std::make_unique<obs::TimeSeriesSampler>(interval);
  const int nranks = model_.topology.nranks();
  live_times_.assign(static_cast<std::size_t>(nranks), nullptr);

  // Engine throughput: cumulative events, exported as events/s.
  sampler_->add_probe(
      "engine.events",
      [this] { return static_cast<double>(engine_.stats().events_executed); },
      /*rate=*/true);

  // Per-OST pressure: seconds of backlog, payload bytes in flight, and
  // cumulative service seconds (exported as utilization via the rate).
  for (int i = 0; i < model_.storage.num_osts; ++i) {
    const auto index = static_cast<std::size_t>(i);
    sampler_->add_probe(
        obs::MetricsRegistry::indexed("fs.ost.queue_depth_s", index),
        [this, index] {
          return std::max(0.0,
                          fs_->ost(index).busy_until() - engine_.now());
        });
    sampler_->add_probe(
        obs::MetricsRegistry::indexed("fs.ost.inflight_bytes", index),
        [this, index] {
          return static_cast<double>(
              fs_->ost(index).inflight_bytes(engine_.now()));
        });
    sampler_->add_probe(
        obs::MetricsRegistry::indexed("fs.ost.util", index),
        [this, index] { return fs_->ost(index).service_seconds(); },
        /*rate=*/true);
  }

  // Per-rank blocked-time categories: cumulative seconds per category,
  // read from the live account while the rank runs and from the collected
  // breakdown after it finishes.
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t c = 0; c < kNumTimeCats; ++c) {
      sampler_->add_probe(
          obs::MetricsRegistry::indexed(
              std::string("mpi.rank.") +
                  to_string(static_cast<TimeCat>(c)) + "_s",
              static_cast<std::size_t>(r)),
          [this, r, c] {
            const TimeBreakdown* live =
                live_times_[static_cast<std::size_t>(r)];
            if (live != nullptr) return live->seconds[c];
            return rank_times_.empty()
                       ? 0.0
                       : rank_times_[static_cast<std::size_t>(r)].seconds[c];
          });
    }
  }
  return *sampler_;
}

void World::schedule_sample(double at) {
  engine_.post(at, [this, at] {
    sampler_->sample(engine_.now());
    // Re-post only while fibers are live: the run ends when the queue
    // drains, so an unconditional tick would keep it alive forever. One
    // trailing tick may land after the last rank finishes, rounding the
    // engine's final time up by at most one interval — acceptable, since
    // bit-identity pins apply to unsampled runs only.
    if (engine_.live_processes() > 0) {
      schedule_sample(at + sampler_->interval());
    }
  });
}

void World::set_job(int client, const std::string& job) {
  if (client < 0) {
    throw std::invalid_argument("World::set_job: negative client id");
  }
  if (client_jobs_.size() <= static_cast<std::size_t>(client)) {
    client_jobs_.resize(static_cast<std::size_t>(client) + 1);
  }
  client_jobs_[static_cast<std::size_t>(client)] = job;
  fs_->set_jobs(&client_jobs_);
}

void World::set_job_all(const std::string& job) {
  for (int r = 0; r < nranks(); ++r) {
    set_job(r, job);
  }
}

const std::string& World::job_of(int client) const {
  static const std::string kEmpty;
  if (client < 0 || static_cast<std::size_t>(client) >= client_jobs_.size()) {
    return kEmpty;
  }
  return client_jobs_[static_cast<std::size_t>(client)];
}

bool World::register_times(int rank, const TimeBreakdown* times) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= live_times_.size() ||
      live_times_[static_cast<std::size_t>(rank)] != nullptr) {
    return false;
  }
  live_times_[static_cast<std::size_t>(rank)] = times;
  return true;
}

void World::unregister_times(int rank, const TimeBreakdown* times) {
  if (rank >= 0 && static_cast<std::size_t>(rank) < live_times_.size() &&
      live_times_[static_cast<std::size_t>(rank)] == times) {
    live_times_[static_cast<std::size_t>(rank)] = nullptr;
  }
}

Rank::Rank(World& world, int rank)
    : world_(world), rank_(rank), pid_(world.engine().current()) {
  if (pid_ == sim::kNoProc) {
    throw std::logic_error("Rank must be constructed on a process fiber");
  }
  if (world.tracer() != nullptr) {
    times_.attach_tracer(world.tracer(), world.engine().now_address(), rank,
                         static_cast<std::uint64_t>(pid_));
  }
  // The account lives on this fiber's stack; expose it to the sampler for
  // exactly the Rank's lifetime.
  world.register_times(rank, &times_.breakdown());
}

Rank::~Rank() { world_.unregister_times(rank_, &times_.breakdown()); }

Tracer& World::enable_tracing() {
  if (!tracer_) {
    tracer_ = std::make_unique<Tracer>();
  }
  return *tracer_;
}

fs::IntegrityManager& World::enable_integrity(
    const fs::IntegrityConfig& config) {
  if (!integrity_) {
    integrity_ = std::make_unique<fs::IntegrityManager>(config, &fault_state_);
    fs_->set_integrity(integrity_.get());
  }
  return *integrity_;
}

void World::schedule_scrub(double at) {
  engine_.post(at, [this] {
    engine_.spawn([this] {
      const int client = nranks() + model_.topology.num_nodes() + 1;
      const auto stream = static_cast<std::uint64_t>(engine_.current());
      const double begin = engine_.now();
      obs::SpanId span = obs::kNoSpan;
      if (tracer_ != nullptr) {
        span = tracer_->spans().open(stream, client, obs::SpanKind::Scrub,
                                     "scrub", begin);
      }
      const double seconds =
          integrity_->scrub_all(client, fs_->store(), /*by_scrubber=*/true);
      if (seconds > 0) engine_.sleep(seconds);
      if (tracer_ != nullptr) {
        tracer_->spans().close(stream, span, engine_.now());
      }
      if (metrics_ != nullptr) {
        ++metrics_->counter("integrity.scrub_passes");
      }
    });
  });
}

obs::MetricsRegistry& World::enable_metrics() {
  if (!metrics_) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    fs_->set_metrics(metrics_.get());
  }
  return *metrics_;
}

void World::set_fault(const fault::FaultPlan& plan) {
  if (ran_) {
    throw std::logic_error("World::set_fault: install the plan before run()");
  }
  if (plan.empty()) {
    return;  // keep every hook a plain null-pointer check
  }
  fault_plan_ = std::make_unique<fault::FaultPlan>(plan);
  fs_->set_fault(fault_plan_.get(), &fault_state_);
}

void Rank::maybe_fault_stall() {
  const fault::FaultPlan* plan = world_.fault_plan();
  if (plan == nullptr || plan->stalls.empty()) {
    return;
  }
  if (stalls_applied_.size() < plan->stalls.size()) {
    stalls_applied_.resize(plan->stalls.size(), 0);
  }
  for (std::size_t i = 0; i < plan->stalls.size(); ++i) {
    const fault::RankStall& stall = plan->stalls[i];
    if (stalls_applied_[i] != 0 || stall.rank != rank_ || now() < stall.at) {
      continue;
    }
    stalls_applied_[i] = 1;
    busy(TimeCat::Faulted, stall.duration);
    fault::FaultCounters& mine = world_.fault_state().of(rank_);
    ++mine.stalls;
    mine.faulted_seconds += stall.duration;
  }
}

void Rank::busy(TimeCat cat, double seconds) {
  world_.engine().sleep(seconds);
  times_.add(cat, seconds);
}

void Rank::touch_bytes(double bytes) {
  busy(TimeCat::Compute, bytes / world_.model().mem.memcpy_bandwidth);
}

}  // namespace parcoll::mpi
