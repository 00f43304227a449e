// Host record printed with every result, so a figure is never read apart
// from the machine and build that produced it.
#pragma once

#include <string>

namespace perfbench {

/// JSON object: {"cores": n, "cpu": "...", "compiler": "...", "build_type": "..."}.
[[nodiscard]] std::string host_record_json();

}  // namespace perfbench
