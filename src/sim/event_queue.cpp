#include "sim/event_queue.hpp"

#include <cstdio>
#include <cstring>

namespace parcoll::sim {

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu",
                  reinterpret_cast<unsigned long long*>(&kib));
      break;
    }
  }
  std::fclose(status);
  return kib * 1024;
#else
  return 0;
#endif
}

}  // namespace parcoll::sim
