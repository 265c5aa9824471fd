#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

/// The reference task; returns a checksum so that no part of it can be
/// optimised away.
uint64_t ReferenceTask() {
  std::mt19937_64 rng(0x5eed);
  std::unordered_map<uint64_t, uint64_t> table;
  for (int i = 0; i < 30000; ++i) table[rng() & 0xfffff] += i;
  uint64_t sum = 0;
  for (int i = 0; i < 30000; ++i) {
    auto it = table.find(rng() & 0xfffff);
    if (it != table.end()) sum += it->second;
  }
  std::vector<uint64_t> v(30000);
  for (uint64_t& x : v) x = rng();
  std::sort(v.begin(), v.end());
  sum += v[v.size() / 2];
  std::string s;
  for (int i = 0; i < 10000; ++i) s += "add_edge " + std::to_string(i) + "\n";
  return sum + s.size();
}

}  // namespace

double ReferenceMs() {
  static const uint64_t kExpected = ReferenceTask();
  double ms[3];
  for (double& m : ms) {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t sum = ReferenceTask();
    m = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (sum != kExpected) throw std::logic_error("reference task diverged");
  }
  std::sort(ms, ms + 3);
  return ms[1];
}

double ScaleToReference(double before_ms, double after_ms) {
  return kReferenceMs / ((before_ms + after_ms) / 2.0);
}

}  // namespace perfbench
