#include "workloads/ior.hpp"

#include <stdexcept>

#include "mpiio/file.hpp"
#include "sim/random.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::workloads {

namespace {
constexpr std::uint64_t kSalt = 0x10A;
}

std::vector<std::uint64_t> IorConfig::transfer_order(int rank) const {
  std::vector<std::uint64_t> order(transfers());
  for (std::uint64_t t = 0; t < order.size(); ++t) order[t] = t;
  if (random_offsets) {
    // Deterministic Fisher-Yates from the hash stream.
    for (std::uint64_t i = order.size(); i > 1; --i) {
      const std::uint64_t j =
          sim::hash_combine(sim::hash_combine(order_seed,
                                              static_cast<std::uint64_t>(rank)),
                            i) %
          i;
      std::swap(order[i - 1], order[j]);
    }
  }
  return order;
}

RunResult run_ior(const IorConfig& config, int nranks, const RunSpec& spec,
                  bool write) {
  if (config.xfer_size == 0 || config.block_size % config.xfer_size != 0) {
    throw std::invalid_argument("IorConfig: xfer_size must divide block_size");
  }
  const mpiio::Hints hints = spec.hints();
  return Driver::run(nranks, spec, config.file_bytes(nranks),
                     [&](mpi::Rank& self, Driver& driver) {
    mpiio::FileHandle file(self, self.comm_world(), "ior.dat", hints);
    // Default (contiguous byte) view; offsets are absolute bytes.
    const dtype::Datatype memtype = dtype::Datatype::bytes(config.xfer_size);
    const std::uint64_t base =
        static_cast<std::uint64_t>(self.rank()) * config.block_size;

    std::vector<std::byte> buffer;
    if (spec.byte_true) {
      buffer.resize(config.xfer_size);
      if (!write) {
        // Pre-populate my block so the measured read returns the pattern.
        for (std::uint64_t t = 0; t < config.transfers(); ++t) {
          const fs::Extent extent{base + t * config.xfer_size,
                                  config.xfer_size};
          fill_stream(buffer.data(), std::span(&extent, 1), kSalt);
          file.write_at(extent.offset, buffer.data(), 1, memtype);
        }
      }
    }

    // IOR -C: read the block of a shifted task instead of our own.
    const std::uint64_t access_base =
        write ? base
              : static_cast<std::uint64_t>(
                    (self.rank() + config.reorder_tasks) % self.size()) *
                    config.block_size;
    const auto order = config.transfer_order(self.rank());
    bool verified = true;
    driver.measure(self, file.comm(), [&] {
      for (std::uint64_t t : order) {
        const fs::Extent extent{access_base + t * config.xfer_size,
                                config.xfer_size};
        if (spec.byte_true && write) {
          fill_stream(buffer.data(), std::span(&extent, 1), kSalt);
        }
        transfer(spec, file, write, extent.offset,
                 buffer.empty() ? nullptr : buffer.data(), 1, memtype);
        if (spec.byte_true && !write) {
          verified = verified &&
                     check_stream(buffer.data(), std::span(&extent, 1), kSalt);
        }
      }
      if (config.fsync_per_phase) {
        file.sync();
      }
    });

    file.close();
    if (spec.byte_true && write) {
      const fs::Extent mine{base, config.block_size};
      verified = verified &&
                 Driver::stored(self, file.fs_id(), std::span(&mine, 1), kSalt);
    }
    driver.report(self, file.stats(), verified);
  });
}

}  // namespace parcoll::workloads
