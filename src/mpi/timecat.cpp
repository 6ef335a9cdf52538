#include "mpi/timecat.hpp"

#include "mpi/trace.hpp"

namespace parcoll::mpi {

void TimeAccount::trace(TimeCat cat, double dt) {
  tracer_->record(stream_, rank_, cat, *now_ - dt, *now_);
}

const char* to_string(TimeCat cat) {
  switch (cat) {
    case TimeCat::Compute:
      return "compute";
    case TimeCat::P2P:
      return "p2p";
    case TimeCat::Sync:
      return "sync";
    case TimeCat::IO:
      return "io";
    case TimeCat::Faulted:
      return "faulted";
    case TimeCat::Intra:
      return "intra";
    case TimeCat::Drain:
      return "drain";
    case TimeCat::DrainWait:
      return "drain_wait";
    case TimeCat::Integrity:
      return "integrity";
  }
  return "?";
}

}  // namespace parcoll::mpi
