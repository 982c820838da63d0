#include "util/rss.hpp"

#include <sys/resource.h>

namespace diners::util {

std::uint64_t peak_rss_bytes() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

}  // namespace diners::util
