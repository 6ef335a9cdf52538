// Ablation — how much of each result comes from the Lustre DLM lock model
// vs pure synchronization effects. Re-runs key configurations with extent
// lock revocation made free (no revocation overhead, no dirty flush).
//
// Expectation: the tile-io baseline/ParColl gap survives without the lock
// model (it is a synchronization phenomenon), while the Flash "w/o Coll"
// collapse and part of the BT-IO intermediate-view cost are lock-driven.
#include "bench/common.hpp"
#include "workloads/btio.hpp"
#include "workloads/flashio.hpp"
#include "workloads/tileio.hpp"

namespace {
void disable_locks(parcoll::machine::MachineModel& model) {
  model.storage.lock_revoke_overhead = 0;
  model.storage.lock_dirty_cap = 0;
}
}  // namespace

int main(int argc, char** argv) {
  const bool smoke = parcoll::bench::smoke_requested(argc, argv);
  using namespace parcoll;
  using namespace parcoll::bench;

  BenchReport report("abl_lock_model", argc, argv);
  header("Ablation: lock model", "with vs without DLM revocation costs");
  std::printf("  %-34s %12s %12s\n", "configuration", "with locks",
              "lock-free");

  const int nprocs = parcoll::bench::scaled(smoke, 256);
  const auto compare = [&](const std::string& name,
                           const std::function<workloads::RunResult(
                               const workloads::RunSpec&)>& run,
                           workloads::RunSpec spec, int run_nprocs) {
    const auto with = run(spec);
    spec.tweak_model = disable_locks;
    const auto without = run(spec);
    std::printf("  %-34s %10.1f %12.1f  MiB/s\n", name.c_str(),
                with.bandwidth_mib(), without.bandwidth_mib());
    report.add(name + "/locks", run_nprocs, with);
    report.add(name + "/lock-free", run_nprocs, without);
  };

  const auto tile_config = workloads::TileIOConfig::paper(nprocs);
  const auto tile = [&](const workloads::RunSpec& spec) {
    return workloads::run_tileio(tile_config, nprocs, spec, true);
  };
  compare("tile-io baseline", tile, baseline_spec(), nprocs);
  compare("tile-io ParColl-32", tile, parcoll_spec(32), nprocs);

  workloads::BtIOConfig bt_config;
  bt_config.nsteps = 2;
  const int bt_nprocs = parcoll::bench::scaled_square(smoke, 256);
  const auto bt = [&](const workloads::RunSpec& spec) {
    return workloads::run_btio(bt_config, bt_nprocs, spec, true);
  };
  auto bt_spec = parcoll_spec(16);
  bt_spec.cb_nodes = 16;
  compare("bt-io baseline", bt, baseline_spec(), bt_nprocs);
  compare("bt-io ParColl-16 (interm.)", bt, bt_spec, bt_nprocs);

  workloads::FlashConfig flash_config;
  flash_config.nvars = 6;  // scaled
  const auto flash = [&](const workloads::RunSpec& spec) {
    return workloads::run_flashio(flash_config, nprocs, spec, true);
  };
  compare("flash posix (w/o coll)", flash, posix_spec(), nprocs);
  // The other two independent paths (data sieving, batched), so the smoke
  // gate also pins their clocks.
  auto sieving = posix_spec();
  sieving.impl = workloads::Impl::Sieving;
  compare("flash sieving (w/o coll)", flash, sieving, nprocs);
  auto batched = posix_spec();
  batched.impl = workloads::Impl::Independent;
  compare("flash independent", flash, batched, nprocs);
  compare("flash ParColl-32", flash, parcoll_spec(32), nprocs);

  footnote("sync-driven gaps survive lock-free; independent-write collapse");
  footnote("and part of the intermediate-view cost are lock-driven");
  return 0;
}
