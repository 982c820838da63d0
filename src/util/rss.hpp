// Memory figures: the peak resident set of the calling process, for the
// tools' --json summaries (diners_sim --trials, diners_mc --exhaustive),
// and the machine's physical memory, for up-front refusals.
#pragma once

#include <cstdint>

namespace diners::util {

/// Peak resident set of this process so far, in bytes.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Physical memory of the machine in bytes, or UINT64_MAX if unknown.
[[nodiscard]] std::uint64_t physical_memory_bytes();

}  // namespace diners::util
