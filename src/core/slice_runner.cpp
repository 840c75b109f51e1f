#include "core/slice_runner.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "base/error.hpp"
#include "base/math.hpp"
#include "base/time.hpp"
#include "comm/border.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgpusw::core {

namespace {

/// Atomically raises `target` to at least `value`.
void atomic_max(std::atomic<sw::Score>& target, sw::Score value) {
  sw::Score current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// components

void SpecialRowCapture::save(std::int64_t block_row, std::int64_t last_row,
                             std::int64_t c0_global, std::int64_t width,
                             const sw::Score* bottom_h,
                             const sw::Score* bottom_f) const {
  if (!due(block_row)) return;
  const obs::ScopedPhase phase(profiler_, obs::Phase::kCheckpoint);
  obs::TraceSpan span(scope_.tracer, "checkpoint", "save_row");
  span.arg("row", last_row).arg("col", c0_global).arg("width", width);
  store_->save_segment(
      last_row, c0_global,
      std::vector<sw::Score>(bottom_h, bottom_h + width),
      save_f_ ? std::vector<sw::Score>(bottom_f, bottom_f + width)
              : std::vector<sw::Score>{});
  if (scope_.metrics != nullptr) {
    scope_.metrics->counter("checkpoint.segments_saved").increment();
    scope_.metrics->counter("checkpoint.bytes")
        .add(static_cast<std::int64_t>((save_f_ ? 2 : 1) * width *
                                       sizeof(sw::Score)));
  }
}

sw::Score border_max(sw::Score corner, const sw::Score* top,
                     std::int64_t top_len, const sw::Score* left,
                     std::int64_t left_len) {
  sw::Score best = corner;
  for (std::int64_t k = 0; k < top_len; ++k) {
    best = std::max(best, top[k]);
  }
  for (std::int64_t k = 0; k < left_len; ++k) {
    best = std::max(best, left[k]);
  }
  return best;
}

void BorderExchange::set_obs(const obs::Scope& scope) {
  scope_ = scope;
  if (scope.metrics != nullptr) {
    border_wait_ms_ = &scope.metrics->histogram("comm.border_wait_ms");
  }
}

void BorderExchange::receive(std::int64_t block_row, sw::Score* col_h,
                             sw::Score* col_e, sw::Score& corner_out) {
  obs::TraceSpan span(scope_.tracer, "comm", "border_recv");
  span.arg("row", block_row);
  base::WallTimer wait;
  // Protocol violations (lost, reordered or damaged chunks) are
  // transient: the run can be restarted from the last checkpoint with a
  // fresh channel, so they throw ProtocolError rather than the fatal
  // InternalError a CHECK raises.
  std::optional<comm::BorderChunk> chunk = in_->recv();
  if (!chunk.has_value()) {
    throw ProtocolError("upstream closed before chunk " +
                        std::to_string(block_row));
  }
  const std::int64_t r0 = block_row * block_rows_;
  const std::int64_t bh = std::min(block_rows_, rows_ - r0);
  if (chunk->sequence_number != block_row) {
    std::ostringstream message;
    message << "expected chunk " << block_row << ", got "
            << chunk->sequence_number;
    throw ProtocolError(message.str());
  }
  if (chunk->first_row != r0 || chunk->rows() != bh) {
    std::ostringstream message;
    message << "chunk " << block_row << " covers rows ["
            << chunk->first_row << ", " << chunk->first_row + chunk->rows()
            << "), expected [" << r0 << ", " << r0 + bh << ")";
    throw ProtocolError(message.str());
  }
  std::copy(chunk->h.begin(), chunk->h.end(),
            col_h + static_cast<std::ptrdiff_t>(r0));
  std::copy(chunk->e.begin(), chunk->e.end(),
            col_e + static_cast<std::ptrdiff_t>(r0));
  corner_out = static_cast<sw::Score>(chunk->corner_h);
  ++chunks_received_;
  if (border_wait_ms_ != nullptr) {
    border_wait_ms_->observe(wait.elapsed_seconds() * 1e3);
  }
}

void BorderExchange::send(std::int64_t block_row, const sw::Score* col_h,
                          const sw::Score* col_e, sw::Score& sent_corner) {
  obs::TraceSpan span(scope_.tracer, "comm", "border_send");
  span.arg("row", block_row);
  const std::int64_t r0 = block_row * block_rows_;
  const std::int64_t bh = std::min(block_rows_, rows_ - r0);
  comm::BorderChunk chunk;
  chunk.sequence_number = block_row;
  chunk.first_row = r0;
  chunk.corner_h = sent_corner;
  chunk.h.assign(col_h + static_cast<std::ptrdiff_t>(r0),
                 col_h + static_cast<std::ptrdiff_t>(r0 + bh));
  chunk.e.assign(col_e + static_cast<std::ptrdiff_t>(r0),
                 col_e + static_cast<std::ptrdiff_t>(r0 + bh));
  sent_corner = chunk.h.back();
  out_->send(std::move(chunk));
}

void BorderExchange::close_downstream() {
  if (out_ != nullptr) out_->close();
}

void BorderExchange::fill_stats(DeviceRunStats& stats) const {
  stats.chunks_received = chunks_received_;
  if (in_ != nullptr) {
    stats.recv_stall_ns = in_->stats().consumer_stall_ns;
  }
  if (out_ != nullptr) {
    const comm::ChannelStats out_stats = out_->stats();
    stats.send_stall_ns = out_stats.producer_stall_ns;
    stats.chunks_sent = out_stats.chunks_sent;
    stats.bytes_sent = out_stats.bytes_sent;
  }
}

// ---------------------------------------------------------------------------
// SliceRunner

SliceRunner::SliceRunner(const RunnerContext& context,
                         sw::BlockKernelFn kernel, vgpu::Device& device,
                         int device_index,
                         const std::vector<seq::Nt>& query,
                         const std::vector<seq::Nt>& subject,
                         const SlicePlan& slice_plan,
                         std::int64_t block_row_count,
                         comm::BorderSource* in, comm::BorderSink* out,
                         std::atomic<sw::Score>& global_best,
                         std::int64_t start_block_row,
                         const sw::Score* seed_h, const sw::Score* seed_f)
    : context_(context),
      kernel_(kernel),
      device_index_(device_index),
      device_(device),
      query_(query),
      subject_(subject),
      slice_(slice_plan.slice),
      nbr_(block_row_count),
      nbc_(slice_plan.block_columns),
      exchange_(in, out, context.block_rows,
                static_cast<std::int64_t>(query.size())),
      pruner_(context.scheme, static_cast<std::int64_t>(query.size()),
              static_cast<std::int64_t>(subject.size())),
      special_rows_(context.special_row_interval, context.special_rows,
                    context.checkpoint_f),
      global_best_(global_best),
      start_block_row_(start_block_row),
      seed_h_(seed_h),
      seed_f_(seed_f),
      obs_(context.obs),
      profile_(context.obs.profile_phases) {
  exchange_.set_obs(obs_);
  special_rows_.set_obs(obs_, profile_ ? &profiler_ : nullptr);
}

void SliceRunner::init_borders() {
  const std::int64_t rows = static_cast<std::int64_t>(query_.size());

  // Border storage: one (H,F) row segment per block column, one (H,E)
  // column segment per block row, one corner per block column. Initial
  // values encode the local-alignment matrix boundary. This is the
  // device's O(m + n_slice) memory — the linear-memory property the
  // paper relies on to fit megabase matrices on GPUs.
  row_h_.assign(static_cast<std::size_t>(slice_.cols), 0);
  row_f_.assign(static_cast<std::size_t>(slice_.cols), sw::kNegInf);
  col_h_.assign(static_cast<std::size_t>(rows), 0);
  col_e_.assign(static_cast<std::size_t>(rows), sw::kNegInf);
  corner_.assign(static_cast<std::size_t>(nbc_), 0);
  chunk_corner_.assign(static_cast<std::size_t>(nbr_), 0);

  // Restarting from a checkpoint: the top borders of the first computed
  // block row come from the saved (H, F) row instead of the matrix
  // boundary, and the per-column corners come from the same row.
  sent_corner_ = 0;
  if (seed_h_ != nullptr) {
    std::copy(seed_h_ + slice_.first_col,
              seed_h_ + slice_.first_col + slice_.cols, row_h_.begin());
    std::copy(seed_f_ + slice_.first_col,
              seed_f_ + slice_.first_col + slice_.cols, row_f_.begin());
    for (std::int64_t j = 1; j < nbc_; ++j) {
      corner_[static_cast<std::size_t>(j)] =
          seed_h_[slice_.first_col + j * context_.block_cols - 1];
    }
    // corner_[0] stays untouched: device 0's first-column corner is the
    // matrix boundary (H = 0), and downstream devices take theirs from
    // the incoming chunks, whose corners derive from sent_corner_.
    sent_corner_ = seed_h_[slice_.end_col() - 1];
  }
}

void SliceRunner::run() {
  base::WallTimer wall;
  obs::TraceSpan slice_span;
  if (obs_.tracer != nullptr) {
    obs_.tracer->name_this_thread("dev" + std::to_string(device_index_) +
                                  " " + device_.spec().name);
    slice_span = obs::TraceSpan(obs_.tracer, "engine", "slice");
    slice_span.arg("device", device_index_)
        .arg("first_col", slice_.first_col)
        .arg("cols", slice_.cols);
  }
  init_borders();

  // Track the footprint against the device's memory capacity, as the
  // CUDA implementation's cudaMallocs would.
  const std::int64_t border_bytes = static_cast<std::int64_t>(
      (row_h_.size() + row_f_.size() + col_h_.size() + col_e_.size() +
       corner_.size()) *
      sizeof(sw::Score));
  vgpu::DeviceBuffer buffer = device_.allocate(border_bytes);

  for (std::int64_t i = start_block_row_; i < nbr_; ++i) {
    throw_if_stop_requested();
    if (exchange_.has_upstream()) {
      phase(obs::Phase::kBorderRecv);
      exchange_.receive(i, col_h_.data(), col_e_.data(),
                        chunk_corner_[static_cast<std::size_t>(i)]);
    }
    phase(obs::Phase::kCompute);
    if (context_.enable_pruning) {
      for (std::int64_t j = 0; j < nbc_; ++j) {
        TaskOutcome outcome;
        compute_one(i, j, outcome);
        reduce_outcome(outcome);
      }
    } else {
      TaskOutcome outcome;
      compute_row(i, outcome);
      reduce_outcome(outcome);
    }
    publish_best();
    if (exchange_.has_downstream()) {
      phase(obs::Phase::kBorderSend);
      exchange_.send(i, col_h_.data(), col_e_.data(), sent_corner_);
    }
    phase(obs::Phase::kIdle);
    notify_progress(i + 1);
  }

  phase(obs::Phase::kBorderSend);
  exchange_.close_downstream();
  phase(obs::Phase::kIdle);

  stats_.wall_ns = wall.elapsed_ns();
  stats_.device_name = device_.spec().name;
  stats_.slice = slice_;
  stats_.busy_ns = device_.busy_ns() - initial_busy_ns_;
  exchange_.fill_stats(stats_);
  flush_obs();
}

void SliceRunner::flush_obs() {
  if (profile_) {
    profiler_.stop();
    stats_.phases_tracked = true;
    stats_.phase_compute_ns = profiler_.ns(obs::Phase::kCompute);
    stats_.phase_recv_ns = profiler_.ns(obs::Phase::kBorderRecv);
    stats_.phase_send_ns = profiler_.ns(obs::Phase::kBorderSend);
    stats_.phase_checkpoint_ns = profiler_.ns(obs::Phase::kCheckpoint);
    stats_.phase_idle_ns = profiler_.ns(obs::Phase::kIdle);
  }
  if (obs_.metrics != nullptr) {
    obs::MetricsRegistry& m = *obs_.metrics;
    m.counter("engine.blocks_computed")
        .add(stats_.blocks - stats_.pruned_blocks);
    m.counter("engine.blocks_pruned").add(stats_.pruned_blocks);
    m.counter("engine.cells_computed").add(stats_.cells);
    m.counter("engine.cells_pruned").add(stats_.pruned_cells);
    m.counter("comm.chunks_sent").add(stats_.chunks_sent);
    m.counter("comm.chunks_received").add(stats_.chunks_received);
    m.counter("comm.bytes_sent").add(stats_.bytes_sent);
    m.counter("kernel.overflow_reruns").add(stats_.overflow_reruns);
  }
}

void SliceRunner::reduce_outcome(const TaskOutcome& outcome) {
  MGPUSW_CHECK(outcome.valid);
  stats_.blocks += outcome.blocks;
  if (outcome.pruned) {
    stats_.pruned_blocks += outcome.blocks;
    stats_.pruned_cells += outcome.cells;
  } else {
    stats_.cells += outcome.cells;
    stats_.overflow_reruns += outcome.block.overflow_reruns;
  }
  if (sw::improves(outcome.block.best, best_)) {
    best_ = outcome.block.best;
  }
}

void SliceRunner::publish_best() { atomic_max(global_best_, best_.score); }

void SliceRunner::notify_progress(std::int64_t settled_block_rows) {
  if (obs_.tracer != nullptr) {
    // ProgressEvent re-expressed as a trace counter: one series per
    // device, plotting completed block rows over time.
    obs_.tracer->counter("engine",
                         "progress dev" + std::to_string(device_index_),
                         settled_block_rows);
  }
  if (!context_.progress) return;
  ProgressEvent event;
  event.device_index = device_index_;
  event.completed_units = settled_block_rows;
  event.total_units = nbr_;
  event.device_cells_done = stats_.cells;
  event.t_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - context_.run_epoch)
                   .count();
  event.job = context_.job;
  event.device_count = context_.device_count;
  const std::int64_t rows = static_cast<std::int64_t>(query_.size());
  event.safe_row =
      std::min(settled_block_rows * context_.block_rows, rows) - 1;
  event.best = best_;
  context_.progress(event);
}

void SliceRunner::throw_if_stop_requested() const {
  if (context_.stop_request == nullptr ||
      !context_.stop_request->load(std::memory_order_acquire)) {
    return;
  }
  throw InterruptedError("device " + std::to_string(device_index_) +
                         " stopped cooperatively (cancel requested)");
}

void SliceRunner::compute_one(std::int64_t i, std::int64_t j,
                              TaskOutcome& outcome) {
  // Fault-injection hook: an armed FaultInjector may throw here to
  // simulate a failed kernel launch or a dying device.
  device_.fault_point(i, j);
  const std::int64_t rows = static_cast<std::int64_t>(query_.size());
  const std::int64_t r0 = i * context_.block_rows;
  const std::int64_t bh = std::min(context_.block_rows, rows - r0);
  const std::int64_t c0 = j * context_.block_cols;  // slice-local
  const std::int64_t bw = std::min(context_.block_cols, slice_.cols - c0);
  const std::int64_t c0_global = slice_.first_col + c0;

  sw::Score* const top_h = row_h_.data() + c0;
  sw::Score* const top_f = row_f_.data() + c0;
  sw::Score* const left_h = col_h_.data() + r0;
  sw::Score* const left_e = col_e_.data() + r0;

  const sw::Score corner_in =
      j == 0 ? (exchange_.has_upstream()
                    ? chunk_corner_[static_cast<std::size_t>(i)]
                    : sw::Score{0})
             : corner_[static_cast<std::size_t>(j)];
  // The corner for block (i+1, j) is this block's left border's last
  // element; capture it before the kernel overwrites the segment.
  corner_[static_cast<std::size_t>(j)] = left_h[bh - 1];

  if (context_.enable_pruning &&
      pruner_.can_prune(border_max(corner_in, top_h, bw, left_h, bh), r0,
                        c0_global,
                        global_best_.load(std::memory_order_relaxed))) {
    std::fill(top_h, top_h + bw, sw::Score{0});
    std::fill(top_f, top_f + bw, sw::kNegInf);
    std::fill(left_h, left_h + bh, sw::Score{0});
    std::fill(left_e, left_e + bh, sw::kNegInf);
    outcome.cells = sw::block_cells(bh, bw);
    outcome.pruned = true;
    outcome.valid = true;
    // Special rows must stay gap-free even through pruned regions: the
    // zeroed borders are exactly the values this run propagated, so a
    // resume seeded from them reproduces the same (exact) final score.
    special_rows_.save(i, r0 + bh - 1, c0_global, bw, top_h, top_f);
    return;
  }

  sw::BlockArgs args;
  args.query = query_.data() + r0;
  args.subject = subject_.data() + c0_global;
  args.rows = bh;
  args.cols = bw;
  args.global_row = r0;
  args.global_col = c0_global;
  args.top_h = top_h;
  args.top_f = top_f;
  args.left_h = left_h;
  args.left_e = left_e;
  args.corner_h = corner_in;
  args.bottom_h = top_h;
  args.bottom_f = top_f;
  args.right_h = left_h;
  args.right_e = left_e;

  obs::TraceSpan span(obs_.tracer, "engine", "block");
  span.arg("i", i).arg("j", j);
  base::WallTimer timer;
  outcome.block = kernel_(context_.scheme, args);
  device_.account_kernel(timer.elapsed_ns(), sw::block_cells(bh, bw));
  span.finish();
  outcome.cells = sw::block_cells(bh, bw);
  outcome.valid = true;

  // After the kernel, top_h/top_f alias the block's bottom borders.
  special_rows_.save(i, r0 + bh - 1, c0_global, bw, top_h, top_f);
}

void SliceRunner::compute_row(std::int64_t i, TaskOutcome& outcome) {
  // A fault at block j still computes blocks [0, j) before it
  // propagates, so a failed attempt leaves the same borders, checkpoint
  // segments and stats as the per-block loop.
  std::int64_t j = 0;
  try {
    for (; j < nbc_; ++j) device_.fault_point(i, j);
  } catch (...) {
    if (j > 0) {
      compute_row_prefix(i, j, outcome);
      reduce_outcome(outcome);
    }
    throw;
  }
  compute_row_prefix(i, nbc_, outcome);
}

void SliceRunner::compute_row_prefix(std::int64_t i, std::int64_t j_end,
                                     TaskOutcome& outcome) {
  const std::int64_t rows = static_cast<std::int64_t>(query_.size());
  const std::int64_t r0 = i * context_.block_rows;
  const std::int64_t bh = std::min(context_.block_rows, rows - r0);
  const std::int64_t width =
      std::min(j_end * context_.block_cols, slice_.cols);

  // bottom_h/right_h alias top_h/left_h exactly as in compute_one, so
  // the wide tile leaves the borders the per-block loop would leave;
  // its inner block corners never leave the kernel.
  sw::BlockArgs args;
  args.query = query_.data() + r0;
  args.subject = subject_.data() + slice_.first_col;
  args.rows = bh;
  args.cols = width;
  args.global_row = r0;
  args.global_col = slice_.first_col;
  args.top_h = row_h_.data();
  args.top_f = row_f_.data();
  args.left_h = col_h_.data() + r0;
  args.left_e = col_e_.data() + r0;
  args.corner_h = exchange_.has_upstream()
                      ? chunk_corner_[static_cast<std::size_t>(i)]
                      : sw::Score{0};
  args.bottom_h = row_h_.data();
  args.bottom_f = row_f_.data();
  args.right_h = col_h_.data() + r0;
  args.right_e = col_e_.data() + r0;

  obs::TraceSpan span(obs_.tracer, "engine", "block");
  span.arg("i", i).arg("j0", 0).arg("j1", j_end);
  base::WallTimer timer;
  outcome.block = kernel_(context_.scheme, args);
  device_.account_kernel(timer.elapsed_ns(), sw::block_cells(bh, width));
  span.finish();
  outcome.blocks = j_end;
  outcome.cells = sw::block_cells(bh, width);
  outcome.valid = true;

  for (std::int64_t j = 0; j < j_end; ++j) {
    const std::int64_t c0 = j * context_.block_cols;
    special_rows_.save(i, r0 + bh - 1, slice_.first_col + c0,
                       std::min(context_.block_cols, width - c0),
                       row_h_.data() + c0, row_f_.data() + c0);
  }
}

}  // namespace mgpusw::core
