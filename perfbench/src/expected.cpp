#include "expected.hpp"

#include <array>

namespace perfbench {

namespace {

struct Recorded {
  std::string_view workload;
  std::uint64_t seed;
  std::uint64_t fingerprint;
};

// Produced by `blam_perf --workload <w> --seed <n> --seconds 0` (each
// iteration line prints fingerprint=...). Only a change meant to alter
// simulated results may regenerate them; a speed-only change must leave
// every entry valid.
constexpr std::array<Recorded, 84> kRecorded{{
    {"paper_h50", 0, 0xcb8bfeec6ce6efee},
    {"paper_h50", 1, 0x353412bab4bfb596},
    {"paper_h50", 2, 0xcb720aac3c8b6789},
    {"paper_h50", 3, 0x78c375dd2255c2d9},
    {"paper_h50", 4, 0x7e2861a6210b2f82},
    {"paper_h50", 5, 0x1306364d85fda604},
    {"paper_h50", 6, 0xf89a080422209473},
    {"paper_h50", 7, 0xda00118d288531bb},
    {"paper_h50", 8, 0x10c0f62d737132a3},
    {"paper_h50", 9, 0x833c26cd0fe4866c},
    {"paper_h50", 10, 0x2eeb6aa8b0aea164},
    {"paper_h50", 11, 0x4679ae218e029fd9},
    {"paper_h50", 12, 0x3f09fdde67b706e3},
    {"paper_h50", 13, 0xc998c19c5cfde00a},
    {"paper_h50", 14, 0xb771d5f8ee0bbe40},
    {"paper_h50", 15, 0xa5abe4db7bf175dc},
    {"paper_h50", 16, 0xad8f95183c5d2bb1},
    {"paper_h50", 17, 0xbe5ebda5cf94d1e2},
    {"paper_h50", 18, 0x846b99c9f24b8237},
    {"paper_h50", 19, 0x3f4dde551a9359ec},
    {"paper_h50", 20, 0x312d7753d00a0113},
    {"city_serial", 0, 0x8005007e19119e22},
    {"city_serial", 1, 0xfc1e0401aca5c3da},
    {"city_serial", 2, 0xc4b6569446f8b8bd},
    {"city_serial", 3, 0xcb81401fe1cba9fb},
    {"city_serial", 4, 0xb79237cbf08de0e7},
    {"city_serial", 5, 0x88c7c2367f0b8d78},
    {"city_serial", 6, 0xb0f8bea46a77b6bc},
    {"city_serial", 7, 0x073fc0b1337bcd62},
    {"city_serial", 8, 0x00c6920222306528},
    {"city_serial", 9, 0x76678a5dd68a5431},
    {"city_serial", 10, 0xd4c8cb93ddbaf577},
    {"city_serial", 11, 0x8cbcef72fd53600c},
    {"city_serial", 12, 0xddc22c96b60a315b},
    {"city_serial", 13, 0x699165444bfc1683},
    {"city_serial", 14, 0x70dc567d1ad553a9},
    {"city_serial", 15, 0x0d0686879b580b7c},
    {"city_serial", 16, 0x8541ff8021a4c935},
    {"city_serial", 17, 0x135f795c5aadca5a},
    {"city_serial", 18, 0x0d75c113b90ed5b9},
    {"city_serial", 19, 0x86026bdbffa18a06},
    {"city_serial", 20, 0x2cec23a304cf20b5},
    {"city_sharded", 0, 0xd8f5bc842e6dc09e},
    {"city_sharded", 1, 0x38ec0c439c6c801d},
    {"city_sharded", 2, 0x0d90f8f2131ea0ef},
    {"city_sharded", 3, 0x18ab8e7c9c4164d0},
    {"city_sharded", 4, 0xdc6169f629dfcc99},
    {"city_sharded", 5, 0x0bad2f4af8da0108},
    {"city_sharded", 6, 0x452d022b4a1a97d2},
    {"city_sharded", 7, 0x5cdf44ae7d54bcff},
    {"city_sharded", 8, 0xf7a02d6212d73860},
    {"city_sharded", 9, 0x975e52c0d2be1e9d},
    {"city_sharded", 10, 0xfcf33926bc0b926f},
    {"city_sharded", 11, 0x5a594cf74d49de73},
    {"city_sharded", 12, 0xcadc98952a891fde},
    {"city_sharded", 13, 0x8ff36939c957e96c},
    {"city_sharded", 14, 0x01c7fbbf999dd6fb},
    {"city_sharded", 15, 0xa04c4a7a1ec62319},
    {"city_sharded", 16, 0xe62c1ddcfbfba072},
    {"city_sharded", 17, 0xe396ea6ee5352ad2},
    {"city_sharded", 18, 0x005e6718282d50ff},
    {"city_sharded", 19, 0xa966201f4250b7a5},
    {"city_sharded", 20, 0x7c8e15f1a7333801},
    {"city_resume", 0, 0x36774818e7f4fdef},
    {"city_resume", 1, 0x7ab662f2c4b2f0e5},
    {"city_resume", 2, 0x4c3d45eb233474b6},
    {"city_resume", 3, 0x52bb85c3879f5fe6},
    {"city_resume", 4, 0x7634c9d0afbdf625},
    {"city_resume", 5, 0x94d0e0393c1386e2},
    {"city_resume", 6, 0xf61660e218f48a64},
    {"city_resume", 7, 0x127a5a3b0bbc5f2e},
    {"city_resume", 8, 0xeb5f7a19fc63b023},
    {"city_resume", 9, 0x24b4eece49ba409e},
    {"city_resume", 10, 0x0817cf6a8875b09d},
    {"city_resume", 11, 0x53c54488f7a73698},
    {"city_resume", 12, 0xc8cf4bdb601c35d6},
    {"city_resume", 13, 0x7143cad4bf86109e},
    {"city_resume", 14, 0x3869d9b0521bdd4e},
    {"city_resume", 15, 0x273880309a49dcfa},
    {"city_resume", 16, 0xcb2b24c155da34c3},
    {"city_resume", 17, 0x33020ec4ce94f204},
    {"city_resume", 18, 0xda29de336b021792},
    {"city_resume", 19, 0xdc83527a7a27b5f0},
    {"city_resume", 20, 0x0382e8e3b9971b24},
}};

}  // namespace

std::optional<std::uint64_t> expected_fingerprint(std::string_view workload, std::uint64_t seed) {
  for (const Recorded& r : kRecorded) {
    if (r.workload == workload && r.seed == seed) return r.fingerprint;
  }
  return std::nullopt;
}

}  // namespace perfbench
