// Runner layer: executes one device's column slice of a planned
// alignment.
//
// A SliceRunner owns the O(m + n_slice) border state of one slice and
// drives the block wavefront over it. The cross-cutting concerns are
// split into named components with unit-testable seams:
//
//   * BorderExchange    — receive/send of border chunks over the
//                         neighbour channels, with sequencing checks
//                         and stall accounting;
//   * BlockPruner       — the CUDAlign-2.1 upper-bound pruning decision
//                         (pure arithmetic, no state);
//   * SpecialRowCapture — checkpoint rows saved every k-th block row.
//
// SliceRunner::run drives the paper's fine-grain pipeline: block rows in
// sequence, and the border chunk of row i ships the moment row i is
// done.
//
// The engine (core/engine.cpp) builds one runner per device from an
// AlignmentPlan and joins them; nothing in this layer knows about device
// fleets, balance modes or transports.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "core/plan.hpp"
#include "core/special_rows.hpp"
#include "obs/obs.hpp"
#include "obs/phase_profiler.hpp"
#include "seq/alphabet.hpp"
#include "sw/kernel.hpp"
#include "sw/scoring.hpp"
#include "vgpu/device.hpp"

namespace mgpusw::obs {
class Histogram;
}  // namespace mgpusw::obs

namespace mgpusw::core {

/// Progress notification, emitted by each device's driver thread after
/// every completed block row of its slice.
struct ProgressEvent {
  int device_index = 0;
  std::int64_t completed_units = 0;
  std::int64_t total_units = 0;
  std::int64_t device_cells_done = 0;
  /// Monotonic timestamp: steady-clock nanoseconds since the run's
  /// epoch (RunnerContext::run_epoch), so consumers can order events
  /// across device threads without reading the wall clock.
  std::int64_t t_ns = 0;
  /// Job label of the comparison this device is working on (the batch
  /// scheduler threads the item label through here; empty for plain
  /// engine runs).
  std::string job;
  /// How many recovery restarts preceded this event (0 on a clean run;
  /// stamped by run_with_recovery so consumers can tell attempts apart).
  int restarts = 0;
  /// How many devices participate in the attempt this event belongs to.
  /// A consumer that has collected events from `device_count` distinct
  /// devices of one attempt may take the minimum of their safe rows as
  /// globally settled.
  int device_count = 1;
  /// Highest matrix row fully settled from this device's point of view:
  /// every block row at or below it is computed (or was settled by the
  /// resume predecessor this attempt seeded from). -1 until the first
  /// unit completes. min() over an attempt's devices is crash-safe: a
  /// restart from that row plus `best` reproduces the final result.
  std::int64_t safe_row = -1;
  /// This device's running best (merged across its computed blocks this
  /// attempt). Valid whenever safe_row >= 0 or units completed.
  sw::ScoreResult best;
};

/// Per-device outcome of a run.
struct DeviceRunStats {
  std::string device_name;
  ColumnRange slice;
  std::int64_t blocks = 0;
  std::int64_t pruned_blocks = 0;
  std::int64_t cells = 0;          // actually computed (pruned excluded)
  std::int64_t pruned_cells = 0;   // skipped by block pruning
  std::int64_t busy_ns = 0;        // kernel time
  std::int64_t recv_stall_ns = 0;  // waiting for upstream border chunks
  std::int64_t send_stall_ns = 0;  // blocked on a full circular buffer
  std::int64_t wall_ns = 0;        // device thread total
  std::int64_t chunks_received = 0;
  std::int64_t chunks_sent = 0;
  std::int64_t bytes_sent = 0;
  /// Blocks a low-precision kernel re-ran at a wider precision after
  /// hitting its saturation watermark (kernel.overflow_reruns metric).
  std::int64_t overflow_reruns = 0;

  /// Driver-thread phase attribution (obs::PhaseProfiler). Filled only
  /// when phases_tracked; the five fields then partition wall_ns up to
  /// scheduling noise.
  bool phases_tracked = false;
  std::int64_t phase_compute_ns = 0;
  std::int64_t phase_recv_ns = 0;
  std::int64_t phase_send_ns = 0;
  std::int64_t phase_checkpoint_ns = 0;
  std::int64_t phase_idle_ns = 0;
};

/// The slice-level view of the engine configuration: exactly what a
/// runner needs, nothing about transports, balancing or kernel names
/// (those are plan/engine concerns).
struct RunnerContext {
  sw::ScoreScheme scheme;
  std::int64_t block_rows = 512;
  std::int64_t block_cols = 512;
  bool enable_pruning = false;
  std::int64_t special_row_interval = 0;
  SpecialRowStore* special_rows = nullptr;
  bool checkpoint_f = false;
  std::function<void(const ProgressEvent&)> progress;
  std::string job;  // threaded into every ProgressEvent
  /// Devices participating in the run; stamped into every ProgressEvent
  /// so durability consumers know when an attempt's picture is complete.
  int device_count = 1;

  /// Cooperative stop flag (EngineConfig::stop_request): polled at every
  /// block-row boundary; when raised, the runner throws
  /// InterruptedError so the run unwinds restartably. Null disables.
  std::atomic<bool>* stop_request = nullptr;

  /// Observability handles (null/disabled by default: every hook then
  /// costs one branch). The engine threads its EngineConfig scope here.
  obs::Scope obs;
  /// Timebase of ProgressEvent::t_ns; the engine stamps it at run start.
  std::chrono::steady_clock::time_point run_epoch =
      std::chrono::steady_clock::now();
};

/// Result of one kernel call — one block, or a fused run of a block
/// row's blocks — reduced into the runner's totals right after the call.
struct TaskOutcome {
  sw::BlockResult block;
  std::int64_t blocks = 1;  // block columns the call covered
  std::int64_t cells = 0;
  bool pruned = false;
  bool valid = false;
};

/// Largest incoming-border H value of a block: the seed of the pruning
/// upper bound.
[[nodiscard]] sw::Score border_max(sw::Score corner, const sw::Score* top,
                                   std::int64_t top_len,
                                   const sw::Score* left,
                                   std::int64_t left_len);

/// Block pruning (CUDAlign 2.1 technique): a block may be skipped when
/// even a perfect-match extension of its best incoming border value
/// cannot beat the globally best score already found. Pure arithmetic —
/// exact score, possibly different co-optimal end position.
class BlockPruner {
 public:
  BlockPruner(const sw::ScoreScheme& scheme, std::int64_t rows,
              std::int64_t cols)
      : match_(scheme.match), rows_(rows), cols_(cols) {}

  /// True when the block starting at (r0, c0_global) whose incoming
  /// border maximum is `border_in` cannot reach `global_best`.
  [[nodiscard]] bool can_prune(sw::Score border_in, std::int64_t r0,
                               std::int64_t c0_global,
                               sw::Score global_best) const {
    const std::int64_t reach =
        std::min(rows_ - r0, cols_ - c0_global);
    const sw::Score upper_bound =
        border_in + match_ * static_cast<sw::Score>(reach);
    return upper_bound <= global_best;
  }

 private:
  sw::Score match_;
  std::int64_t rows_;
  std::int64_t cols_;
};

/// Saves the H (and optionally F) row every `interval` block rows — the
/// special-row store feeding alignment retrieval and restart
/// checkpoints.
class SpecialRowCapture {
 public:
  SpecialRowCapture(std::int64_t interval, SpecialRowStore* store,
                    bool save_f)
      : interval_(interval), store_(store), save_f_(save_f) {}

  /// Attaches tracing/metrics and the runner's phase profiler (null when
  /// phase profiling is off); save() charges its time to kCheckpoint.
  void set_obs(const obs::Scope& scope, obs::PhaseProfiler* profiler) {
    scope_ = scope;
    profiler_ = profiler;
  }

  [[nodiscard]] bool due(std::int64_t block_row) const {
    return interval_ > 0 && (block_row + 1) % interval_ == 0;
  }

  /// Records the bottom border of block row `block_row` for the segment
  /// [c0_global, c0_global + width) whose last matrix row is `last_row`.
  void save(std::int64_t block_row, std::int64_t last_row,
            std::int64_t c0_global, std::int64_t width,
            const sw::Score* bottom_h, const sw::Score* bottom_f) const;

 private:
  std::int64_t interval_ = 0;
  SpecialRowStore* store_ = nullptr;
  bool save_f_ = false;
  obs::Scope scope_;
  obs::PhaseProfiler* profiler_ = nullptr;
};

/// Border chunk traffic with the two neighbour devices: validates the
/// sequencing invariants of the circular-buffer protocol and accounts
/// traffic/stall statistics.
class BorderExchange {
 public:
  /// `in`/`out` may be null (first/last device). col_h/col_e are the
  /// runner's full-height vertical border arrays the chunks read from
  /// and write into.
  BorderExchange(comm::BorderSource* in, comm::BorderSink* out,
                 std::int64_t block_rows, std::int64_t rows)
      : in_(in), out_(out), block_rows_(block_rows), rows_(rows) {}

  [[nodiscard]] bool has_upstream() const { return in_ != nullptr; }
  [[nodiscard]] bool has_downstream() const { return out_ != nullptr; }

  /// Attaches tracing (border-recv/send spans on the calling thread's
  /// track) and metrics (comm.border_wait_ms histogram).
  void set_obs(const obs::Scope& scope);

  /// Receives the chunk feeding block row `block_row`, scattering it
  /// into the vertical border arrays; stores the chunk's corner in
  /// `corner_out`. Checks sequence numbers and row coverage.
  void receive(std::int64_t block_row, sw::Score* col_h, sw::Score* col_e,
               sw::Score& corner_out);

  /// Ships the vertical border segment of block row `block_row`.
  /// `sent_corner` carries H(previous row, slice boundary) in and is
  /// updated to this chunk's last element for the next send.
  void send(std::int64_t block_row, const sw::Score* col_h,
            const sw::Score* col_e, sw::Score& sent_corner);

  /// Signals the downstream neighbour that no further chunks follow.
  void close_downstream();

  [[nodiscard]] std::int64_t chunks_received() const {
    return chunks_received_;
  }

  /// Folds channel statistics (stalls, traffic) into `stats`.
  void fill_stats(DeviceRunStats& stats) const;

 private:
  comm::BorderSource* in_ = nullptr;
  comm::BorderSink* out_ = nullptr;
  std::int64_t block_rows_ = 0;
  std::int64_t rows_ = 0;
  std::int64_t chunks_received_ = 0;
  obs::Scope scope_;
  obs::Histogram* border_wait_ms_ = nullptr;
};

/// Executes one device's column slice: owns the border state and
/// computes its blocks through the resolved kernel on the calling
/// thread.
class SliceRunner {
 public:
  /// `slice_plan` and `block_row_count` come from the AlignmentPlan;
  /// query/subject/seed pointers must outlive the runner.
  SliceRunner(const RunnerContext& context, sw::BlockKernelFn kernel,
              vgpu::Device& device, int device_index,
              const std::vector<seq::Nt>& query,
              const std::vector<seq::Nt>& subject,
              const SlicePlan& slice_plan, std::int64_t block_row_count,
              comm::BorderSource* in, comm::BorderSink* out,
              std::atomic<sw::Score>& global_best,
              std::int64_t start_block_row = 0,
              const sw::Score* seed_h = nullptr,
              const sw::Score* seed_f = nullptr);

  /// Runs the slice to completion. Called on the device's driver thread.
  /// Block rows run in sequence, and chunk i ships the moment row i
  /// completes (the paper's overlap behaviour). Without pruning, a block
  /// row of the slice is one kernel call over block_rows x slice.cols
  /// (compute_row); the block columns stay the unit of fault points,
  /// block counts and checkpoint segments. Pruning decides block by
  /// block, so it keeps one call per block (compute_one).
  void run();

  [[nodiscard]] const DeviceRunStats& stats() const { return stats_; }
  [[nodiscard]] const sw::ScoreResult& best() const { return best_; }

  void snapshot_initial_busy() { initial_busy_ns_ = device_.busy_ns(); }

 private:
  void init_borders();
  void compute_one(std::int64_t i, std::int64_t j, TaskOutcome& outcome);
  /// Block row `i` as one wide tile: fault points for every block column
  /// first, then one kernel call, then the per-block special-row
  /// segments.
  void compute_row(std::int64_t i, TaskOutcome& outcome);
  /// Blocks [0, j_end) of block row `i` in one kernel call.
  void compute_row_prefix(std::int64_t i, std::int64_t j_end,
                          TaskOutcome& outcome);
  void reduce_outcome(const TaskOutcome& outcome);
  void publish_best();
  /// `settled_block_rows` counts block rows of the matrix (from row 0,
  /// including rows settled by the resume predecessor) whose every block
  /// in this slice is complete — the progress cursor (completed_units of
  /// nbr) and the durability cursor behind ProgressEvent::safe_row.
  void notify_progress(std::int64_t settled_block_rows);

  /// Throws InterruptedError when the engine's cooperative stop flag is
  /// raised. run() calls it at block-row boundaries only, so every
  /// block (and checkpoint segment) completed so far stays intact.
  void throw_if_stop_requested() const;

  /// One-branch phase hook used by run().
  void phase(obs::Phase next) {
    if (profile_) profiler_.switch_to(next);
  }
  void flush_obs();  // phase totals into stats_, bulk metric adds

  const RunnerContext& context_;
  const sw::BlockKernelFn kernel_;
  const int device_index_ = 0;
  vgpu::Device& device_;
  const std::vector<seq::Nt>& query_;
  const std::vector<seq::Nt>& subject_;
  const ColumnRange slice_;
  const std::int64_t nbr_ = 0;  // block rows of the matrix
  const std::int64_t nbc_ = 0;  // block columns of the slice
  BorderExchange exchange_;
  BlockPruner pruner_;
  SpecialRowCapture special_rows_;
  std::atomic<sw::Score>& global_best_;
  const std::int64_t start_block_row_ = 0;  // > 0 when resuming
  const sw::Score* seed_h_ = nullptr;       // checkpoint row (full width)
  const sw::Score* seed_f_ = nullptr;

  std::vector<sw::Score> row_h_, row_f_;   // horizontal borders per column
  std::vector<sw::Score> col_h_, col_e_;   // vertical borders per row
  std::vector<sw::Score> corner_;          // per block column (compute_one)
  std::vector<sw::Score> chunk_corner_;    // per block row (device d > 0)
  sw::Score sent_corner_ = 0;              // corner of the next sent chunk

  DeviceRunStats stats_;
  sw::ScoreResult best_;
  std::int64_t initial_busy_ns_ = 0;

  const obs::Scope obs_;        // from RunnerContext
  const bool profile_ = false;  // obs_.profile_phases
  obs::PhaseProfiler profiler_;
};

}  // namespace mgpusw::core
