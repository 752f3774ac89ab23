// Host fingerprint and process resource readings. Absolute seconds are only
// comparable between results that carry the same fingerprint.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH "OFF"
#endif

namespace perfbench {

inline std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

inline std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// One JSON object naming the host and build the numbers were taken on.
inline std::string fingerprint_json() {
  std::string cpu = cpu_model();
  std::replace(cpu.begin(), cpu.end(), '"', '\'');
  return "{\"nproc\": " + std::to_string(nproc()) + ", \"cpu\": \"" + cpu +
         "\", \"compiler\": \"" + compiler() + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"CODA_NATIVE_ARCH\": \"" +
         PERFBENCH_NATIVE_ARCH + "\"}";
}

/// User + system CPU seconds of the whole process so far.
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of the process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
