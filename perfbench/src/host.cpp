#include "host.hpp"

#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

/// CPU brand string straight from CPUID (no file outside the checkout is
/// read); "unknown" on other architectures.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    char brand[49] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      unsigned int regs[4] = {};
      __get_cpuid(0x80000002U + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, sizeof regs);
    }
    std::string out{brand};
    const auto first = out.find_first_not_of(' ');
    const auto last = out.find_last_not_of(' ');
    if (first != std::string::npos) return out.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string host_record_json() {
  return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";
}

}  // namespace perfbench
