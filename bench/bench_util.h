#ifndef SDW_BENCH_BENCH_UTIL_H_
#define SDW_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "obs/registry.h"

namespace benchutil {

namespace internal {

/// The bench id of the last Banner() — tags JSON rows.
inline const char*& CurrentBench() {
  static const char* id = "unknown";
  return id;
}

/// The JSON-lines sink, resolved once from SDW_BENCH_JSON: unset/empty
/// disables emission, "-" streams to stdout, anything else appends to
/// that file.
inline std::FILE* JsonStream() {
  static std::FILE* stream = [] {
    const char* path = std::getenv("SDW_BENCH_JSON");
    if (path == nullptr || *path == '\0') return static_cast<std::FILE*>(nullptr);
    if (std::strcmp(path, "-") == 0) return stdout;
    return std::fopen(path, "a");
  }();
  return stream;
}

inline std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

}  // namespace internal

/// Emits one machine-readable metric row (JSON lines) when the
/// SDW_BENCH_JSON environment variable is set — see internal::JsonStream.
/// Rows look like {"bench":"A5","kind":"metric","name":"...","value":N}.
inline void JsonMetric(const char* name, double value) {
  std::FILE* out = internal::JsonStream();
  if (out == nullptr) return;
  std::fprintf(out, "{\"bench\":\"%s\",\"kind\":\"metric\",\"name\":\"%s\",\"value\":%.9g}\n",
               internal::JsonEscape(internal::CurrentBench()).c_str(),
               internal::JsonEscape(name).c_str(), value);
  std::fflush(out);
}

/// Emits one shape-check verdict row.
inline void JsonCheck(const char* what, bool ok) {
  std::FILE* out = internal::JsonStream();
  if (out == nullptr) return;
  std::fprintf(out, "{\"bench\":\"%s\",\"kind\":\"check\",\"name\":\"%s\",\"ok\":%s}\n",
               internal::JsonEscape(internal::CurrentBench()).c_str(),
               internal::JsonEscape(what).c_str(), ok ? "true" : "false");
  std::fflush(out);
}

/// Prints the experiment banner: which paper artifact this bench
/// regenerates and what shape it checks. Also tags subsequent JSON rows
/// with `id`.
inline void Banner(const char* id, const char* artifact, const char* claim) {
  internal::CurrentBench() = id;
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, artifact);
  std::printf("claim: %s\n", claim);
  std::printf("================================================================\n");
}

/// Wall-clock seconds of fn().
inline double TimeIt(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Real block decodes so far, process-wide. Decoded blocks outlive
/// queries, so a bench that counts the blocks a scan touches drops the
/// shard's decode cache first and takes the difference across the scan.
inline uint64_t BlocksDecodedSoFar() {
  static sdw::obs::Counter* decoded =
      sdw::obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  return decoded->value();
}

/// Prints a PASS/FAIL shape-check line (benches exit 0 either way so the
/// full suite always produces its tables; EXPERIMENTS.md records these).
inline bool Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-FAIL", what);
  JsonCheck(what, ok);
  return ok;
}

/// Prints measured (not modeled) serial vs parallel wall clock and the
/// real speedup — the executor's pool_size=0 arm against its pooled
/// arm. Returns the speedup factor.
inline double RealSpeedup(const char* what, double serial_seconds,
                          double parallel_seconds) {
  const double speedup =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0;
  std::printf("  real wall-clock [%s]: serial %.3fs, parallel %.3fs -> "
              "%.2fx\n",
              what, serial_seconds, parallel_seconds, speedup);
  JsonMetric((std::string(what) + ".serial_seconds").c_str(), serial_seconds);
  JsonMetric((std::string(what) + ".parallel_seconds").c_str(),
             parallel_seconds);
  JsonMetric((std::string(what) + ".speedup").c_str(), speedup);
  return speedup;
}

}  // namespace benchutil

#endif  // SDW_BENCH_BENCH_UTIL_H_
