// Benchmark harness entry point.
//
//   perfbench-harness --workload megabase|service|short_reads --seed N
//                     --seconds S --trace 0|1 [--out-dir D] [--expected F]
//   perfbench-harness expected --first N --count K --out F
//   perfbench-harness selftest
//
// A workload run prints informational lines, then as its last line one
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The
// traced run also writes its span trace under <out-dir>/traces/.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/common.hpp"

namespace {

using namespace perfbench;

std::string format_result(const RunReport& report, bool trace) {
  std::vector<Metric> metrics;
  if (trace) {
    metrics = layer_metric_list(report.layers);
  } else {
    metrics = {
        {"setup_s", report.setup_s, "s"},
        {"gcups", report.gcups, "cells/ns"},
        {"peak_rss_mb", report.peak_rss_mb, "MiB"},
        {"small_p50_ms", report.small_p50_ms, "ms"},
        {"small_tail_ms", report.small_tail_ms, "ms"},
        {"large_p50_ms", report.large_p50_ms, "ms"},
    };
  }
  std::string out = "{\"correct\": ";
  out += report.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench-harness --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--expected FILE]\n"
               "       perfbench-harness expected --first N --count K --out FILE\n"
               "       perfbench-harness selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "selftest") return run_selftest();

  const auto value_of = [&](const std::string& flag) -> const std::string* {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == flag) return &args[i + 1];
    }
    return nullptr;
  };

  try {
    if (!args.empty() && args[0] == "expected") {
      const std::string* first = value_of("--first");
      const std::string* count = value_of("--count");
      const std::string* out = value_of("--out");
      if (first == nullptr || count == nullptr || out == nullptr) return usage();
      return write_megabase_expected(std::stoull(*first), std::stoull(*count),
                                     *out);
    }

    RunOptions options;
    const std::string* workload = value_of("--workload");
    const std::string* seed = value_of("--seed");
    const std::string* seconds = value_of("--seconds");
    const std::string* trace = value_of("--trace");
    if (workload == nullptr || seed == nullptr || seconds == nullptr ||
        trace == nullptr) {
      return usage();
    }
    options.workload = *workload;
    options.seed = std::stoull(*seed);
    options.seconds = std::stod(*seconds);
    options.trace = *trace == "1";
    if (const std::string* dir = value_of("--out-dir")) options.out_dir = *dir;
    if (const std::string* file = value_of("--expected")) {
      options.expected_path = *file;
    }
    if (options.seconds <= 0) return usage();

    SpanLog spans(options.trace);
    RunReport report;
    if (options.workload == "megabase") {
      report = run_megabase(options, spans);
    } else if (options.workload == "service") {
      report = run_service(options, spans);
    } else if (options.workload == "short_reads") {
      report = run_short_reads(options, spans);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return usage();
    }
    if (report.attempted == 0) report.errors.push_back("no operation ran");

    const std::string stem = options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0");
    std::filesystem::create_directories(options.out_dir + "/results");
    if (options.trace) {
      std::filesystem::create_directories(options.out_dir + "/traces");
      spans.write_chrome_trace(options.out_dir + "/traces/" + stem + ".json");
    }
    for (const std::string& note : report.notes) {
      std::printf("%s\n", note.c_str());
    }
    std::printf("samples: small %lld, large %lld\n",
                static_cast<long long>(report.small_samples),
                static_cast<long long>(report.large_samples));
    for (const std::string& error : report.errors) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
    }
    const std::string result = format_result(report, options.trace);
    std::ofstream(options.out_dir + "/results/" + stem + ".json")
        << result << "\n";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-harness: %s\n", e.what());
    return 1;
  }
}
