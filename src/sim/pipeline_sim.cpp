#include "sim/pipeline_sim.hpp"

#include <algorithm>
#include <utility>

#include "base/error.hpp"
#include "comm/serialize.hpp"

namespace mgpusw::sim {

namespace {

/// Per-device simulation state: a linear timeline of block rows, matching
/// the engine's fine-grain (row-major) schedule. The device computes its
/// slice one block row at a time; finishing row i makes border chunk i
/// available to the right-hand neighbour.
struct DeviceTimeline {
  vgpu::DeviceSpec spec;
  core::ColumnRange slice;
  std::int64_t nbr = 0;  // block rows
  std::int64_t nbc = 0;  // block columns in the slice
  int dispatch = 1;

  std::int64_t next_row = 0;
  std::vector<base::SimTime> row_start;
  std::vector<base::SimTime> row_finish;
  std::vector<base::SimTime> send_complete;  // per chunk (block row)

  bool finished = false;
  SimDeviceStats stats;
};

/// Virtual duration of one block row of the slice. A slice narrower than
/// the device's dispatch width cannot saturate its SMs, stretching the
/// row (wavefront ramp never completes for narrow slices).
base::SimTime row_duration(const DeviceTimeline& device,
                           std::int64_t cells) {
  const base::SimTime busy = base::cells_to_ns(cells, device.spec.sw_gcups);
  if (device.nbc >= device.dispatch) return busy;
  return busy * device.dispatch / std::max<std::int64_t>(1, device.nbc);
}

/// Host-mediated chunk transfer: D2H on the producer + H2D on the
/// consumer, overlapped with compute by the host threads.
base::SimTime transfer_ns(const vgpu::DeviceSpec& up,
                          const vgpu::DeviceSpec& down,
                          std::int64_t chunk_rows) {
  const auto bytes =
      static_cast<std::int64_t>(comm::frame_bytes(chunk_rows));
  const auto lat_up =
      static_cast<base::SimTime>(up.pcie_latency_us * 1000.0);
  const auto lat_down =
      static_cast<base::SimTime>(down.pcie_latency_us * 1000.0);
  return lat_up + base::bytes_to_ns(bytes, up.pcie_gbytes_per_s) +
         lat_down + base::bytes_to_ns(bytes, down.pcie_gbytes_per_s);
}

/// Diagonal-barrier variant: the device timeline advances one external
/// block diagonal at a time; chunk i completes with diagonal i + nbc - 1.
struct DiagTimeline {
  vgpu::DeviceSpec spec;
  core::ColumnRange slice;
  std::int64_t nbr = 0;
  std::int64_t nbc = 0;
  std::int64_t diags = 0;
  int dispatch = 1;

  std::int64_t next_diag = 0;
  std::vector<base::SimTime> diag_start;
  std::vector<base::SimTime> diag_finish;
  std::vector<base::SimTime> send_complete;  // per chunk

  bool finished = false;
  SimDeviceStats stats;
};

std::pair<std::int64_t, std::int64_t> diag_cells_and_blocks(
    const DiagTimeline& device, std::int64_t k,
    const core::AlignmentPlan& plan) {
  const std::int64_t i_lo = std::max<std::int64_t>(0, k - (device.nbc - 1));
  const std::int64_t i_hi = std::min<std::int64_t>(device.nbr - 1, k);
  std::int64_t cells = 0;
  for (std::int64_t i = i_lo; i <= i_hi; ++i) {
    const std::int64_t j = k - i;
    const std::int64_t bh =
        std::min(plan.block_rows, plan.rows - i * plan.block_rows);
    const std::int64_t bw =
        std::min(plan.block_cols, device.slice.cols - j * plan.block_cols);
    cells += bh * bw;
  }
  return {cells, i_hi - i_lo + 1};
}

SimResult simulate_diagonal(const SimConfig& config,
                            const core::AlignmentPlan& plan) {
  const auto device_count = config.devices.size();
  const std::int64_t nbr = plan.block_row_count;
  std::vector<DiagTimeline> devices(device_count);
  for (std::size_t d = 0; d < device_count; ++d) {
    DiagTimeline& device = devices[d];
    device.spec = config.devices[d];
    device.slice = plan.devices[d].slice;
    device.nbr = nbr;
    device.nbc = plan.devices[d].block_columns;
    device.diags = device.nbr + device.nbc - 1;
    device.dispatch = config.dispatch_width > 0 ? config.dispatch_width
                                                : device.spec.sm_count;
    device.diag_start.assign(static_cast<std::size_t>(device.diags), 0);
    device.diag_finish.assign(static_cast<std::size_t>(device.diags), 0);
    device.send_complete.assign(static_cast<std::size_t>(nbr),
                                base::kSimTimeNever);
    device.stats.device_name = device.spec.name;
    device.stats.slice = device.slice;
  }

  bool progress = true;
  std::size_t done = 0;
  while (done < device_count) {
    MGPUSW_CHECK_MSG(progress, "diagonal simulation deadlocked");
    progress = false;
    for (std::size_t d = 0; d < device_count; ++d) {
      DiagTimeline& device = devices[d];
      while (device.next_diag < device.diags) {
        const std::int64_t k = device.next_diag;

        base::SimTime arrival = 0;
        if (d > 0 && k < nbr) {
          const DiagTimeline& up = devices[d - 1];
          const base::SimTime sent =
              up.send_complete[static_cast<std::size_t>(k)];
          if (sent == base::kSimTimeNever) break;
          const std::int64_t bh = std::min(
              plan.block_rows, plan.rows - k * plan.block_rows);
          arrival = sent + transfer_ns(up.spec, device.spec, bh);
        }

        base::SimTime send_release = 0;
        const std::int64_t pending_chunk = k - device.nbc;
        if (d + 1 < device_count && pending_chunk >= 0 &&
            pending_chunk < nbr) {
          const DiagTimeline& downstream = devices[d + 1];
          base::SimTime slot_free = 0;
          const std::int64_t slot_chunk =
              pending_chunk - plan.buffer_capacity;
          if (slot_chunk >= 0) {
            if (downstream.next_diag <= slot_chunk) break;
            slot_free =
                downstream.diag_start[static_cast<std::size_t>(slot_chunk)];
          }
          const base::SimTime sent = std::max(
              device.diag_finish[static_cast<std::size_t>(pending_chunk +
                                                          device.nbc - 1)],
              slot_free);
          device.send_complete[static_cast<std::size_t>(pending_chunk)] =
              sent;
          send_release = sent;
        }

        const base::SimTime prev_finish =
            k > 0 ? device.diag_finish[static_cast<std::size_t>(k - 1)] : 0;
        const base::SimTime after_send =
            std::max(prev_finish, send_release);
        device.stats.send_wait_ns += after_send - prev_finish;
        const base::SimTime start = std::max(after_send, arrival);
        device.stats.recv_wait_ns += start - after_send;

        const auto [cells, blocks] = diag_cells_and_blocks(device, k, plan);
        base::SimTime duration =
            base::cells_to_ns(cells, device.spec.sw_gcups);
        if (blocks < device.dispatch) {
          duration = duration * device.dispatch /
                     std::max<std::int64_t>(1, blocks);
        }
        device.diag_start[static_cast<std::size_t>(k)] = start;
        device.diag_finish[static_cast<std::size_t>(k)] = start + duration;
        device.stats.busy_ns += duration;
        device.stats.cells += cells;
        ++device.next_diag;
        progress = true;
      }
      if (device.next_diag == device.diags && !device.finished) {
        const base::SimTime tail =
            device.diag_finish[static_cast<std::size_t>(device.diags - 1)];
        if (d + 1 < device_count) {
          for (std::int64_t i = 0; i < nbr; ++i) {
            auto& sent = device.send_complete[static_cast<std::size_t>(i)];
            if (sent == base::kSimTimeNever) sent = tail;
          }
        }
        device.stats.start_ns = device.diag_start[0];
        device.stats.finish_ns = tail;
        device.finished = true;
        ++done;
        progress = true;
      }
    }
  }

  SimResult result;
  for (DiagTimeline& device : devices) {
    result.makespan_ns =
        std::max(result.makespan_ns, device.stats.finish_ns);
    result.total_cells += device.stats.cells;
    result.devices.push_back(device.stats);
  }
  return result;
}

}  // namespace

std::int64_t find_crossover_length(SimConfig config, double margin,
                                   std::int64_t max_length) {
  MGPUSW_REQUIRE(margin > 0.0, "margin must be positive");
  MGPUSW_REQUIRE(!config.devices.empty(), "need at least one device");

  SimConfig solo = config;
  solo.devices = {config.devices.front()};
  for (const vgpu::DeviceSpec& spec : config.devices) {
    if (spec.sw_gcups > solo.devices[0].sw_gcups) solo.devices[0] = spec;
  }
  solo.weights.clear();

  auto beats = [&](std::int64_t length) {
    config.rows = config.cols = length;
    solo.rows = solo.cols = length;
    // The matrix must be wide enough to give every device a block column.
    const std::int64_t min_cols =
        config.block_cols * static_cast<std::int64_t>(config.devices.size());
    if (length < min_cols) return false;
    const double multi = simulate_pipeline(config).gcups();
    const double single = simulate_pipeline(solo).gcups();
    return multi >= single * margin;
  };

  std::int64_t hi = config.block_cols *
                    static_cast<std::int64_t>(config.devices.size());
  while (hi <= max_length && !beats(hi)) hi *= 2;
  if (hi > max_length) return -1;
  std::int64_t lo = hi / 2;
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (beats(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double aggregate_gcups(const std::vector<vgpu::DeviceSpec>& devices) {
  double total = 0.0;
  for (const vgpu::DeviceSpec& spec : devices) total += spec.sw_gcups;
  return total;
}

SimResult simulate_pipeline(const SimConfig& config,
                            const core::AlignmentPlan& plan) {
  MGPUSW_REQUIRE(!config.devices.empty(), "need at least one device");
  MGPUSW_REQUIRE(plan.device_count() == config.devices.size(),
                 "plan has " << plan.device_count() << " slices for "
                             << config.devices.size() << " devices");
  for (const vgpu::DeviceSpec& spec : config.devices) {
    MGPUSW_REQUIRE(spec.sw_gcups > 0, spec.name << " has non-positive rate");
  }

  if (config.schedule == SimSchedule::kDiagonalBarrier) {
    SimResult result = simulate_diagonal(config, plan);
    MGPUSW_CHECK(result.total_cells == plan.rows * plan.cols);
    return result;
  }

  const auto device_count = config.devices.size();
  const std::int64_t nbr = plan.block_row_count;

  std::vector<DeviceTimeline> devices(device_count);
  for (std::size_t d = 0; d < device_count; ++d) {
    DeviceTimeline& device = devices[d];
    device.spec = config.devices[d];
    device.slice = plan.devices[d].slice;
    device.nbr = nbr;
    device.nbc = plan.devices[d].block_columns;
    device.dispatch = config.dispatch_width > 0 ? config.dispatch_width
                                                : device.spec.sm_count;
    device.row_start.assign(static_cast<std::size_t>(nbr), 0);
    device.row_finish.assign(static_cast<std::size_t>(nbr), 0);
    device.send_complete.assign(static_cast<std::size_t>(nbr),
                                base::kSimTimeNever);
    device.stats.device_name = device.spec.name;
    device.stats.slice = device.slice;
  }

  // Round-robin relaxation: advance each device while its dependencies
  // are resolved. Dependencies: own previous row; upstream chunk i
  // (available at upstream's send_complete[i] + transfer); and the
  // circular buffer slot for the previous row's send (free when the
  // consumer pops chunk i - capacity, i.e. starts its row i - capacity).
  // With capacity >= 1 this graph is acyclic, so progress is guaranteed.
  bool progress = true;
  std::size_t done = 0;
  while (done < device_count) {
    MGPUSW_CHECK_MSG(progress, "pipeline simulation deadlocked");
    progress = false;
    for (std::size_t d = 0; d < device_count; ++d) {
      DeviceTimeline& device = devices[d];
      while (device.next_row < nbr) {
        const std::int64_t i = device.next_row;
        const std::int64_t bh =
            std::min(plan.block_rows, plan.rows - i * plan.block_rows);

        // Incoming chunk i from the left-hand neighbour.
        base::SimTime arrival = 0;
        if (d > 0) {
          const DeviceTimeline& up = devices[d - 1];
          const base::SimTime sent =
              up.send_complete[static_cast<std::size_t>(i)];
          if (sent == base::kSimTimeNever) break;  // upstream not there yet
          arrival = sent + transfer_ns(up.spec, device.spec, bh);
        }

        // The send of chunk i-1 must complete (possibly waiting for a
        // buffer slot) before the device proceeds to row i.
        base::SimTime send_release = 0;
        if (d + 1 < device_count && i > 0) {
          const std::int64_t chunk = i - 1;
          const DeviceTimeline& downstream = devices[d + 1];
          base::SimTime slot_free = 0;
          const std::int64_t slot_chunk = chunk - plan.buffer_capacity;
          if (slot_chunk >= 0) {
            if (downstream.next_row <= slot_chunk) break;  // not yet known
            slot_free =
                downstream.row_start[static_cast<std::size_t>(slot_chunk)];
          }
          const base::SimTime sent = std::max(
              device.row_finish[static_cast<std::size_t>(chunk)], slot_free);
          device.send_complete[static_cast<std::size_t>(chunk)] = sent;
          send_release = sent;
        }

        const base::SimTime prev_finish =
            i > 0 ? device.row_finish[static_cast<std::size_t>(i - 1)] : 0;
        const base::SimTime after_send =
            std::max(prev_finish, send_release);
        device.stats.send_wait_ns += after_send - prev_finish;
        const base::SimTime start = std::max(after_send, arrival);
        device.stats.recv_wait_ns += start - after_send;

        const std::int64_t cells = bh * device.slice.cols;
        const base::SimTime duration = row_duration(device, cells);
        device.row_start[static_cast<std::size_t>(i)] = start;
        device.row_finish[static_cast<std::size_t>(i)] = start + duration;
        device.stats.busy_ns += duration;
        device.stats.cells += cells;
        ++device.next_row;
        progress = true;
      }
      if (device.next_row == nbr && !device.finished) {
        // The final chunk ships right after the last row (the buffer has
        // room: the consumer drains strictly in order behind us).
        const base::SimTime tail =
            device.row_finish[static_cast<std::size_t>(nbr - 1)];
        if (d + 1 < device_count) {
          device.send_complete[static_cast<std::size_t>(nbr - 1)] =
              std::max(device.send_complete[static_cast<std::size_t>(nbr - 1)] ==
                               base::kSimTimeNever
                           ? 0
                           : device.send_complete[static_cast<std::size_t>(
                                 nbr - 1)],
                       tail);
        }
        device.stats.start_ns = device.row_start[0];
        device.stats.finish_ns = tail;
        device.finished = true;
        ++done;
        progress = true;
      }
    }
  }

  SimResult result;
  for (DeviceTimeline& device : devices) {
    result.makespan_ns =
        std::max(result.makespan_ns, device.stats.finish_ns);
    result.total_cells += device.stats.cells;
    result.devices.push_back(device.stats);
  }
  MGPUSW_CHECK(result.total_cells == plan.rows * plan.cols);
  return result;
}

SimResult simulate_pipeline(const SimConfig& config) {
  MGPUSW_REQUIRE(!config.devices.empty(), "need at least one device");
  core::PlanRequest request;
  request.rows = config.rows;
  request.cols = config.cols;
  request.block_rows = config.block_rows;
  request.block_cols = config.block_cols;
  request.buffer_capacity = config.buffer_capacity;
  request.weights = config.weights.empty()
                        ? core::profile_weights(config.devices)
                        : config.weights;
  MGPUSW_REQUIRE(request.weights.size() == config.devices.size(),
                 "one weight per device required");
  return simulate_pipeline(config, core::make_plan(request));
}

}  // namespace mgpusw::sim
