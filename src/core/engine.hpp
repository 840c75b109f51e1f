// The multi-device Smith-Waterman engine — the paper's contribution.
//
// One huge DP matrix is computed cooperatively by several (virtual) GPUs:
//
//   subject columns  ───────────────────────────────────────────►
//   ┌──────────────┬──────────────────────┬─────────────────────┐
//   │  device 0    │      device 1        │      device 2       │ query
//   │  (slice ∝    │                      │                     │ rows
//   │   speed_0)   │ ◄── border (H,E) ──  │ ◄── border (H,E) ── │   │
//   └──────────────┴──────────────────────┴─────────────────────┘   ▼
//
// Each device sweeps its slice one block row at a time. When block row
// i of the slice finishes, the (H, E) cells of its right edge are pushed
// into a bounded circular buffer; the right-hand neighbour pops them to
// seed block row i of its first block column. The buffer capacity bounds how far a device can run ahead —
// the paper's mechanism for overlapping communication with computation.
//
// The engine is the thin top of a three-layer core (see DESIGN.md):
//   plan   (core/plan.hpp)         — what to compute, decided up front;
//   runner (core/slice_runner.hpp) — one device's slice execution;
//   engine (this file)             — plan → build runners → join →
//                                    reduce.
// Execution is real: every matrix cell is computed with the Gotoh
// recurrences on one host thread per device, and the result provably
// equals the serial scan (see tests/core).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/time.hpp"
#include "comm/channel.hpp"
#include "core/partition.hpp"
#include "core/plan.hpp"
#include "core/slice_runner.hpp"
#include "core/special_rows.hpp"
#include "seq/sequence.hpp"
#include "sw/kernel.hpp"
#include "sw/scoring.hpp"
#include "vgpu/device.hpp"

namespace mgpusw::core {

struct EngineConfig {
  sw::ScoreScheme scheme;
  std::int64_t block_rows = 512;   // block height (query direction)
  std::int64_t block_cols = 512;   // block width (subject direction)
  std::int64_t buffer_capacity = 16;  // circular buffer size, in chunks
  Transport transport = Transport::kInProcess;

  /// Block kernel every device runs, by registry name
  /// (sw::kernel_registry(); e.g. "row", "simd", "simd16", "auto"). Every
  /// kernel produces bit-identical results; they differ in traversal,
  /// lane width and speed.
  std::string kernel{sw::kDefaultKernel};

  /// Block pruning (extension, CUDAlign 2.1 technique): skip blocks whose
  /// upper bound cannot beat the best score seen so far. Exact score,
  /// possibly different co-optimal end position.
  bool enable_pruning = false;

  /// Save the H row every `special_row_interval` block rows into
  /// `special_rows` (0 = off). Extension used by alignment retrieval.
  std::int64_t special_row_interval = 0;
  SpecialRowStore* special_rows = nullptr;

  /// Also save the F (vertical gap) values with each special row, making
  /// the rows usable as restart checkpoints (doubles their size) — the
  /// incremental-execution feature of the CUDAlign lineage.
  bool checkpoint_f = false;

  /// Progress callback; called concurrently from device threads (must be
  /// thread-safe). Null disables reporting.
  std::function<void(const ProgressEvent&)> progress;

  /// Label identifying this comparison in ProgressEvents (the batch
  /// scheduler sets it to the item label; empty otherwise).
  std::string job;

  /// Fault injector (vgpu/fault.hpp) armed on every device and channel
  /// for the duration of each run; null disables injection. Borrowed —
  /// must outlive the engine's runs.
  vgpu::FaultInjector* fault = nullptr;

  /// Injector ordinal per device (parallel to the engine's device list).
  /// Empty = use pool indices. The recovery layer pins these to the
  /// *original* pool indices so a `dev<N>` fault spec keeps naming the
  /// same physical device after deaths shrink the pool.
  std::vector<int> fault_ordinals;

  /// TCP transport only: bounds connection setup and every blocking
  /// socket read/write; a silent peer surfaces as TransientError instead
  /// of hanging the wavefront. 0 = block forever (historical behaviour).
  std::int64_t comm_timeout_ms = 0;

  /// Observability (obs/obs.hpp): tracer + metrics registry + phase
  /// profiling switch, threaded through every runner, channel and fault
  /// hook of each run. Default-disabled; the referenced tracer/registry
  /// are borrowed and must outlive the engine's runs.
  obs::Scope obs;

  /// Cooperative cancel flag, polled by every runner at scheduling-unit
  /// boundaries; raising it makes the run fail with InterruptedError,
  /// which run_with_recovery rethrows without restarting. Borrowed;
  /// null disables the check.
  std::atomic<bool>* stop_request = nullptr;
};

/// One device's contribution to a failed run.
struct DeviceFault {
  int device_index = -1;
  std::string device_name;
  std::exception_ptr error;
};

/// Post-mortem of a failed run, captured before the engine rethrows:
/// which devices failed with what, plus the best score-result over every
/// block that *did* complete. The recovery layer carries that partial
/// best forward so a restarted run's merged answer is bit-identical to
/// an unfailed run (the completed and resumed block sets together cover
/// every matrix cell, and sw::improves is a total order).
struct RunFailure {
  std::vector<DeviceFault> faults;
  sw::ScoreResult partial_best;
  bool valid = false;  // true only directly after a failed run
};

struct EngineResult {
  sw::ScoreResult best;
  std::string kernel;    // kernel the run used
  std::string simd_isa;  // strongest SIMD ISA detected on the host
  std::int64_t matrix_cells = 0;  // rows * cols of the full matrix
  std::int64_t computed_cells = 0;  // < matrix_cells when pruning fired
  double wall_seconds = 0.0;
  std::vector<DeviceRunStats> devices;

  /// Billions of matrix cells per wall second — the paper's metric.
  /// Pruned cells count as processed (they were resolved, just not
  /// recomputed), matching how CUDAlign reports GCUPS.
  [[nodiscard]] double gcups() const {
    return base::gcups(matrix_cells, wall_seconds);
  }
};

class MultiDeviceEngine {
 public:
  /// Devices are borrowed; they must outlive the engine. (Use
  /// core::DeviceFleet to own a device set and lease disjoint subsets to
  /// concurrent engines.)
  MultiDeviceEngine(EngineConfig config,
                    std::vector<vgpu::Device*> devices);

  /// Computes the optimal local alignment score of query vs subject.
  /// Thread-safe for distinct engines; one engine runs one comparison at
  /// a time.
  [[nodiscard]] EngineResult run(const seq::Sequence& query,
                                 const seq::Sequence& subject);

  /// Resumes an interrupted comparison from a checkpoint row previously
  /// saved with checkpoint_f = true: recomputes only matrix rows
  /// (checkpoint_row, end). The returned best covers the *resumed region
  /// only*; combine it with the best recorded before the interruption
  /// using sw::improves. checkpoint_row must lie on a block-row boundary
  /// ((row + 1) % block_rows == 0).
  [[nodiscard]] EngineResult resume(const seq::Sequence& query,
                                    const seq::Sequence& subject,
                                    const SpecialRowStore& checkpoints,
                                    std::int64_t checkpoint_row);

  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Post-mortem of the most recent failed run (valid == false when the
  /// last run succeeded or nothing ran yet). Read it after catching the
  /// exception run()/resume() rethrew.
  [[nodiscard]] const RunFailure& last_failure() const {
    return last_failure_;
  }

  /// The full pre-execution plan for a rows x cols comparison on this
  /// engine's devices — the same value run() executes and
  /// sim::simulate_pipeline projects (the engine–simulator shared-plan
  /// contract). Slices are proportional to the devices' measured rates
  /// (estimate_rates over their rate windows) once every window holds
  /// kTrustedBusyNs, and to their profiles (profile_weights) until then.
  /// The split reads the windows, so it holds until the devices' next
  /// kernel.
  [[nodiscard]] AlignmentPlan plan(std::int64_t rows, std::int64_t cols,
                                   std::int64_t start_block_row = 0) const;

 private:
  struct ResumeSeed;
  [[nodiscard]] EngineResult run_internal(const seq::Sequence& query,
                                          const seq::Sequence& subject,
                                          const ResumeSeed* seed);
  [[nodiscard]] std::vector<double> balance_weights() const;

  EngineConfig config_;
  std::vector<vgpu::Device*> devices_;
  sw::BlockKernelFn kernel_ = nullptr;  // config_.kernel, resolved once
  RunFailure last_failure_;
};

}  // namespace mgpusw::core
