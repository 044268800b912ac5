#include <algorithm>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <sys/resource.h>

#include "bench.hpp"
#include "stats/simd.hpp"

namespace e2e {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

namespace {

// CPU brand string from cpuid leaves 0x80000002..4 (no file outside the
// checkout is read); "unknown" where the leaves are missing.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf)
    __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  if (const auto nul = model.find('\0'); nul != std::string::npos) model.resize(nul);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

mm::json::Value host_info() {
  const std::string model = cpu_model();
  namespace simd = mm::stats::simd;
  mm::json::Value host = mm::json::Value::object();
  host.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("cpu_model", model);
  host.set("simd_level", simd::level_name(simd::active_level()));
  return host;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t generator_seed(std::uint64_t bench_seed, std::uint64_t salt) {
  // splitmix64 finaliser: nearby bench seeds give unrelated generator seeds.
  std::uint64_t z = bench_seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  // Kept below 2^31 so it survives a round trip through a JSON job spec.
  return ((z ^ (z >> 31)) & 0x7fffffffULL) + 1;
}

}  // namespace e2e
