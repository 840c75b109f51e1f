#include "core/report.hpp"

#include "base/json.hpp"
#include "obs/metrics.hpp"

namespace mgpusw::core {

namespace {

/// Splices the registry snapshot under "metrics". raw_value keeps the
/// snapshot valid JSON; its inner indentation restarts at column zero,
/// which parsers do not care about.
void append_metrics(base::JsonWriter& w,
                    const obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  w.key("metrics").raw_value(metrics->to_json());
}

void device_row(base::JsonWriter& w, const DeviceRunStats& stats) {
  w.begin_object(base::JsonWriter::kCompact);
  w.key("name").value(stats.device_name);
  w.key("first_col").value(stats.slice.first_col);
  w.key("cols").value(stats.slice.cols);
  w.key("blocks").value(stats.blocks);
  w.key("pruned_blocks").value(stats.pruned_blocks);
  w.key("cells").value(stats.cells);
  w.key("pruned_cells").value(stats.pruned_cells);
  w.key("busy_ns").value(stats.busy_ns);
  w.key("recv_stall_ns").value(stats.recv_stall_ns);
  w.key("send_stall_ns").value(stats.send_stall_ns);
  w.key("chunks_sent").value(stats.chunks_sent);
  w.key("bytes_sent").value(stats.bytes_sent);
  w.key("overflow_reruns").value(stats.overflow_reruns);
  if (stats.phases_tracked) {
    w.key("phase_compute_ns").value(stats.phase_compute_ns);
    w.key("phase_recv_ns").value(stats.phase_recv_ns);
    w.key("phase_send_ns").value(stats.phase_send_ns);
    w.key("phase_checkpoint_ns").value(stats.phase_checkpoint_ns);
    w.key("phase_idle_ns").value(stats.phase_idle_ns);
  }
  w.end_object();
}

}  // namespace

std::string to_json(const EngineResult& result,
                    const obs::MetricsRegistry* metrics) {
  base::JsonWriter w;
  w.begin_object();
  w.key("score").value(result.best.score);
  w.key("end_row").value(result.best.end.row);
  w.key("end_col").value(result.best.end.col);
  w.key("kernel").value(result.kernel);
  w.key("simd_isa").value(result.simd_isa);
  w.key("matrix_cells").value(result.matrix_cells);
  w.key("computed_cells").value(result.computed_cells);
  w.key("wall_seconds").value(result.wall_seconds);
  w.key("gcups").value(result.gcups());
  std::int64_t overflow_reruns = 0;
  for (const DeviceRunStats& stats : result.devices) {
    overflow_reruns += stats.overflow_reruns;
  }
  w.key("overflow_reruns").value(overflow_reruns);
  w.key("devices").begin_array();
  for (const DeviceRunStats& stats : result.devices) {
    device_row(w, stats);
  }
  w.end_array();
  append_metrics(w, metrics);
  w.end_object();
  return w.str() + "\n";
}

std::string to_json(const RecoveryResult& result,
                    const obs::MetricsRegistry* metrics) {
  base::JsonWriter w;
  w.begin_object();
  w.key("restarts").value(result.restarts);
  w.key("lost_devices").begin_array(base::JsonWriter::kCompact);
  for (const std::string& name : result.lost_devices) {
    w.value(name);
  }
  w.end_array();
  std::string run = to_json(result.result);
  while (!run.empty() && run.back() == '\n') run.pop_back();
  w.key("run").raw_value(run);
  append_metrics(w, metrics);
  w.end_object();
  return w.str() + "\n";
}

std::string to_json(const sim::SimResult& result) {
  base::JsonWriter w;
  w.begin_object();
  w.key("makespan_ns").value(result.makespan_ns);
  w.key("total_cells").value(result.total_cells);
  w.key("gcups").value(result.gcups());
  w.key("devices").begin_array();
  for (const sim::SimDeviceStats& stats : result.devices) {
    w.begin_object(base::JsonWriter::kCompact);
    w.key("name").value(stats.device_name);
    w.key("first_col").value(stats.slice.first_col);
    w.key("cols").value(stats.slice.cols);
    w.key("cells").value(stats.cells);
    w.key("busy_ns").value(stats.busy_ns);
    w.key("recv_wait_ns").value(stats.recv_wait_ns);
    w.key("send_wait_ns").value(stats.send_wait_ns);
    w.key("start_ns").value(stats.start_ns);
    w.key("finish_ns").value(stats.finish_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace mgpusw::core
