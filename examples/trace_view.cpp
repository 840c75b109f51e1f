// Trace summarizer — a quick look at a --trace-out artifact without
// leaving the terminal.
//
// Reads a Chrome/Perfetto trace written by chromosome_compare,
// batch_compare or fault_tolerant_run (--trace-out=FILE) and prints,
// per thread track, the time spent in each span type plus counts of
// instant events — the textual cousin of the Perfetto timeline. Parses
// with the repo's own base::json, so it doubles as an end-to-end check
// that the exported artifact is well-formed.
//
//   $ ./chromosome_compare --devices=2 --trace-out=trace.json
//   $ ./trace_view trace.json
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "base/flags.hpp"
#include "base/format.hpp"
#include "base/json.hpp"

namespace {

using namespace mgpusw;

struct SpanStats {
  std::int64_t count = 0;
  double total_us = 0.0;
};

struct TrackSummary {
  std::string name;                          // thread_name metadata
  std::map<std::string, SpanStats> spans;    // "cat/name" -> stats
  std::map<std::string, std::int64_t> instants;
  double first_ts_us = -1.0;
  double last_end_us = 0.0;
};

/// Span key: "engine/block" — category plus name, the pair the exporter
/// emits. Counter series collapse per name (their per-sample args vary).
std::string span_key(const base::json::Value& event) {
  const base::json::Value* cat = event.find("cat");
  const base::json::Value* name = event.find("name");
  return (cat != nullptr && cat->is_string() ? cat->string : "?") + "/" +
         (name != nullptr && name->is_string() ? name->string : "?");
}

}  // namespace

int main(int argc, char** argv) {
  base::FlagSet flags("Summarize a Chrome/Perfetto trace on the terminal");
  flags.add_int("top", 10, "span types listed per track");
  if (!flags.parse(argc, argv)) return 0;
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "usage: trace_view [--top=N] <trace.json>\n");
    return 1;
  }
  const std::string& path = flags.positional()[0];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  base::json::Value doc;
  try {
    doc = base::json::parse(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: not valid JSON: %s\n", path.c_str(), e.what());
    return 1;
  }
  const base::json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: no traceEvents array — not a Chrome trace\n",
                 path.c_str());
    return 1;
  }

  std::map<std::int64_t, TrackSummary> tracks;
  std::int64_t complete = 0;
  std::int64_t instants = 0;
  std::int64_t counters = 0;
  for (const base::json::Value& event : events->array) {
    const base::json::Value* ph = event.find("ph");
    const base::json::Value* tid = event.find("tid");
    if (ph == nullptr || !ph->is_string() || tid == nullptr) continue;
    TrackSummary& track = tracks[tid->as_int()];
    if (ph->string == "M") {
      const base::json::Value* args = event.find("args");
      const base::json::Value* name =
          args != nullptr ? args->find("name") : nullptr;
      if (name != nullptr && name->is_string()) track.name = name->string;
      continue;
    }
    const base::json::Value* ts = event.find("ts");
    const double start_us =
        ts != nullptr && ts->is_number() ? ts->number : 0.0;
    if (track.first_ts_us < 0.0 || start_us < track.first_ts_us) {
      track.first_ts_us = start_us;
    }
    if (ph->string == "X") {
      ++complete;
      const base::json::Value* dur = event.find("dur");
      const double dur_us =
          dur != nullptr && dur->is_number() ? dur->number : 0.0;
      SpanStats& stats = track.spans[span_key(event)];
      ++stats.count;
      stats.total_us += dur_us;
      track.last_end_us = std::max(track.last_end_us, start_us + dur_us);
    } else if (ph->string == "i") {
      ++instants;
      ++track.instants[span_key(event)];
      track.last_end_us = std::max(track.last_end_us, start_us);
    } else if (ph->string == "C") {
      ++counters;
      track.last_end_us = std::max(track.last_end_us, start_us);
    }
  }

  std::printf("%s: %zu events (%lld spans, %lld instants, %lld counter "
              "samples) on %zu tracks\n\n",
              path.c_str(), events->array.size(),
              static_cast<long long>(complete),
              static_cast<long long>(instants),
              static_cast<long long>(counters), tracks.size());

  const auto top = static_cast<std::size_t>(flags.get_int("top"));
  for (const auto& [tid, track] : tracks) {
    const double active_us =
        track.first_ts_us < 0.0 ? 0.0
                                : track.last_end_us - track.first_ts_us;
    std::printf("track %lld%s%s  (active %s)\n",
                static_cast<long long>(tid),
                track.name.empty() ? "" : "  ",
                track.name.c_str(),
                base::human_duration(active_us * 1e-6).c_str());
    // Largest total time first; ties break on the key for determinism.
    std::vector<std::pair<std::string, SpanStats>> ordered(
        track.spans.begin(), track.spans.end());
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) {
                if (a.second.total_us != b.second.total_us) {
                  return a.second.total_us > b.second.total_us;
                }
                return a.first < b.first;
              });
    if (ordered.size() > top) ordered.resize(top);
    base::TextTable table({"span", "count", "total", "share"});
    for (const auto& [key, stats] : ordered) {
      table.add_row(
          {key, base::with_thousands(stats.count),
           base::human_duration(stats.total_us * 1e-6),
           active_us > 0.0
               ? base::format_double(stats.total_us / active_us * 100.0,
                                     1) +
                     "%"
               : "-"});
    }
    std::fputs(table.str().c_str(), stdout);
    for (const auto& [key, count] : track.instants) {
      std::printf("  instant %s x%lld\n", key.c_str(),
                  static_cast<long long>(count));
    }
    std::printf("\n");
  }
  return 0;
}
