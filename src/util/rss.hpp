// Peak resident set size of the calling process, for the tools' --json
// summaries (diners_sim --trials, diners_mc --exhaustive).
#pragma once

#include <cstdint>

namespace diners::util {

/// Peak resident set of this process so far, in bytes.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace diners::util
