#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "base/log.hpp"
#include "base/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sw/block_simd.hpp"
#include "vgpu/fault.hpp"

namespace mgpusw::core {

namespace {

std::vector<seq::Nt> unpack(const seq::Sequence& s) {
  std::vector<seq::Nt> out(static_cast<std::size_t>(s.size()));
  if (s.size() > 0) s.extract(0, s.size(), out.data());
  return out;
}

}  // namespace

MultiDeviceEngine::MultiDeviceEngine(EngineConfig config,
                                     std::vector<vgpu::Device*> devices)
    : config_(std::move(config)), devices_(std::move(devices)) {
  config_.scheme.validate();
  MGPUSW_REQUIRE(!devices_.empty(), "engine needs at least one device");
  for (vgpu::Device* device : devices_) {
    MGPUSW_REQUIRE(device != nullptr, "device pointer is null");
  }
  MGPUSW_REQUIRE(config_.block_rows > 0, "block_rows must be positive");
  MGPUSW_REQUIRE(config_.block_cols > 0, "block_cols must be positive");
  MGPUSW_REQUIRE(config_.buffer_capacity > 0,
                 "buffer_capacity must be positive");
  if (config_.special_row_interval > 0) {
    MGPUSW_REQUIRE(config_.special_rows != nullptr,
                   "special_row_interval set but special_rows is null");
  }
  // Resolve the kernel once (find_kernel throws on unknown names), so a
  // typo fails at construction instead of mid-run and run_internal never
  // repeats the lookup.
  kernel_ = sw::find_kernel(config_.kernel);
  MGPUSW_LOG(kInfo) << "engine kernel=" << config_.kernel
                    << " simd_isa=" << sw::simd_isa_name(sw::detected_simd_isa())
                    << " simd_backend=" << sw::active_simd_backend();
}

std::vector<double> MultiDeviceEngine::balance_weights() const {
  // Measured cells/s only when every device has a trusted window: one
  // cold device would otherwise put GCUPS ratings and host cell rates
  // into the same split.
  std::vector<vgpu::RateSample> windows;
  windows.reserve(devices_.size());
  for (const vgpu::Device* device : devices_) {
    windows.push_back(device->rate_window());
  }
  if (std::all_of(windows.begin(), windows.end(),
                  [](const vgpu::RateSample& window) {
                    return window.busy_ns >= kTrustedBusyNs;
                  })) {
    std::vector<double> rates = estimate_rates(windows);
    if (!rates.empty()) return rates;
  }
  std::vector<vgpu::DeviceSpec> specs;
  specs.reserve(devices_.size());
  for (const vgpu::Device* device : devices_) specs.push_back(device->spec());
  return profile_weights(specs);
}

AlignmentPlan MultiDeviceEngine::plan(std::int64_t rows, std::int64_t cols,
                                      std::int64_t start_block_row) const {
  PlanRequest request;
  request.rows = rows;
  request.cols = cols;
  request.block_rows = config_.block_rows;
  request.block_cols = config_.block_cols;
  request.buffer_capacity = config_.buffer_capacity;
  request.transport = config_.transport;
  request.weights = balance_weights();
  request.start_block_row = start_block_row;
  return make_plan(request);
}

/// Assembled checkpoint row used to seed a resumed run.
struct MultiDeviceEngine::ResumeSeed {
  std::int64_t checkpoint_row = -1;
  std::vector<sw::Score> h;
  std::vector<sw::Score> f;
};

EngineResult MultiDeviceEngine::run(const seq::Sequence& query,
                                    const seq::Sequence& subject) {
  return run_internal(query, subject, nullptr);
}

EngineResult MultiDeviceEngine::resume(const seq::Sequence& query,
                                       const seq::Sequence& subject,
                                       const SpecialRowStore& checkpoints,
                                       std::int64_t checkpoint_row) {
  MGPUSW_REQUIRE((checkpoint_row + 1) % config_.block_rows == 0,
                 "checkpoint row " << checkpoint_row
                                   << " is not a block-row boundary for "
                                      "block_rows = "
                                   << config_.block_rows);
  MGPUSW_REQUIRE(checkpoint_row + 1 < query.size(),
                 "checkpoint row " << checkpoint_row
                                   << " leaves nothing to resume");
  ResumeSeed seed;
  seed.checkpoint_row = checkpoint_row;
  seed.h = checkpoints.assemble_row(checkpoint_row, subject.size());
  seed.f = checkpoints.assemble_row_f(checkpoint_row, subject.size());
  return run_internal(query, subject, &seed);
}

EngineResult MultiDeviceEngine::run_internal(const seq::Sequence& query,
                                             const seq::Sequence& subject,
                                             const ResumeSeed* seed) {
  MGPUSW_REQUIRE(!query.empty(), "query sequence is empty");
  MGPUSW_REQUIRE(!subject.empty(), "subject sequence is empty");

  last_failure_ = RunFailure{};

  obs::TraceSpan run_span(config_.obs.tracer, "engine",
                          seed == nullptr ? "run" : "resume");
  if (run_span.active()) {
    config_.obs.tracer->name_this_thread("engine");
    run_span.arg("rows", query.size())
        .arg("cols", subject.size())
        .arg("devices", static_cast<std::int64_t>(devices_.size()));
    if (!config_.job.empty()) run_span.arg("job", config_.job);
  }

  const std::vector<seq::Nt> query_bases = unpack(query);
  const std::vector<seq::Nt> subject_bases = unpack(subject);

  // 1. Plan: everything decided before execution, in one value.
  const std::int64_t start_block_row =
      seed == nullptr ? 0 : (seed->checkpoint_row + 1) / config_.block_rows;
  const AlignmentPlan plan =
      this->plan(query.size(), subject.size(), start_block_row);

  // Arm the fault injector (when configured) on every device for the
  // duration of this run; the guard disarms on every exit path so a
  // later run on the same devices starts clean.
  struct FaultArmGuard {
    std::vector<vgpu::Device*>* devices = nullptr;
    vgpu::FaultInjector* injector = nullptr;
    ~FaultArmGuard() {
      if (devices == nullptr) return;
      for (vgpu::Device* device : *devices) device->clear_fault_injector();
      if (injector != nullptr) injector->set_obs({});
    }
  } fault_guard;
  if (config_.fault != nullptr) {
    config_.fault->set_obs(config_.obs);
    fault_guard.injector = config_.fault;
    MGPUSW_REQUIRE(config_.fault_ordinals.empty() ||
                       config_.fault_ordinals.size() == devices_.size(),
                   "fault_ordinals must be empty or one per device");
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      const int ordinal = config_.fault_ordinals.empty()
                              ? static_cast<int>(d)
                              : config_.fault_ordinals[d];
      devices_[d]->set_fault_injector(config_.fault, ordinal);
    }
    fault_guard.devices = &devices_;
  }

  // 2. Channels between consecutive devices, per the plan's topology.
  std::vector<comm::ChannelPair> channels;
  channels.reserve(plan.channel_count());
  for (std::size_t c = 0; c < plan.channel_count(); ++c) {
    comm::ChannelPair pair =
        plan.transport == Transport::kTcp
            ? comm::make_tcp_channel(
                  static_cast<std::size_t>(plan.buffer_capacity),
                  config_.comm_timeout_ms, config_.obs)
            : comm::make_ring_channel(
                  static_cast<std::size_t>(plan.buffer_capacity),
                  config_.obs);
    if (config_.fault != nullptr) {
      vgpu::FaultInjector* injector = config_.fault;
      const int channel_index = static_cast<int>(c);
      pair.sink = comm::make_faulty_sink(
          std::move(pair.sink),
          [injector, channel_index](std::int64_t sequence) {
            const vgpu::FaultInjector::ChunkFault fate =
                injector->on_chunk(channel_index, sequence);
            return comm::ChunkFault{fate.drop, fate.corrupt, fate.delay_ms};
          },
          config_.obs);
    }
    channels.push_back(std::move(pair));
  }

  // 3. Build one runner per device slice.
  RunnerContext context;
  context.scheme = config_.scheme;
  context.block_rows = config_.block_rows;
  context.block_cols = config_.block_cols;
  context.enable_pruning = config_.enable_pruning;
  context.special_row_interval = config_.special_row_interval;
  context.special_rows = config_.special_rows;
  context.checkpoint_f = config_.checkpoint_f;
  context.progress = config_.progress;
  context.job = config_.job;
  context.device_count = static_cast<int>(plan.device_count());
  context.stop_request = config_.stop_request;
  context.obs = config_.obs;
  context.run_epoch = std::chrono::steady_clock::now();

  std::atomic<sw::Score> global_best{0};
  std::vector<std::unique_ptr<SliceRunner>> runners;
  runners.reserve(plan.device_count());
  for (std::size_t d = 0; d < plan.device_count(); ++d) {
    comm::BorderSource* in =
        plan.devices[d].has_upstream ? channels[d - 1].source.get() : nullptr;
    comm::BorderSink* out =
        plan.devices[d].has_downstream ? channels[d].sink.get() : nullptr;
    runners.push_back(std::make_unique<SliceRunner>(
        context, kernel_, *devices_[d], static_cast<int>(d),
        query_bases, subject_bases, plan.devices[d], plan.block_row_count,
        in, out, global_best, plan.start_block_row,
        seed == nullptr ? nullptr : seed->h.data(),
        seed == nullptr ? nullptr : seed->f.data()));
    runners.back()->snapshot_initial_busy();
  }

  // 4. Join the device threads; reduce.
  base::WallTimer wall;
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(plan.device_count());
  threads.reserve(plan.device_count());
  for (std::size_t d = 0; d < plan.device_count(); ++d) {
    threads.emplace_back([&, d] {
      try {
        runners[d]->run();
      } catch (...) {
        errors[d] = std::current_exception();
        // Unblock neighbours so every thread can exit, whatever the
        // transport: close the downstream channel (consumer sees EOF)
        // and the upstream one from the consumer side (a producer
        // blocked on a full buffer or an exhausted ack window gets an
        // error instead of hanging). A close can itself throw — e.g.
        // EPIPE on the TCP sentinel when the peer died first — and must
        // not escape this catch block.
        if (d + 1 < plan.device_count()) {
          try {
            channels[d].sink->close();
          } catch (...) {  // NOLINT(bugprone-empty-catch)
          }
        }
        if (d > 0) {
          try {
            channels[d - 1].source->close();
          } catch (...) {  // NOLINT(bugprone-empty-catch)
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_seconds = wall.elapsed_seconds();

  std::exception_ptr first_error;
  for (std::size_t d = 0; d < errors.size(); ++d) {
    if (!errors[d]) continue;
    if (!first_error) first_error = errors[d];
    last_failure_.faults.push_back(DeviceFault{
        static_cast<int>(d), devices_[d]->spec().name, errors[d]});
  }
  if (first_error) {
    if (config_.obs.metrics != nullptr) {
      config_.obs.metrics->counter("engine.runs_failed").increment();
    }
    if (config_.obs.tracer != nullptr) {
      config_.obs.tracer->instant(
          "engine", "run_failed",
          {obs::TraceArg::number(
              "failed_devices",
              static_cast<std::int64_t>(last_failure_.faults.size()))});
    }
    // Post-mortem for the recovery layer: every block a runner reduced
    // before its thread stopped is complete, so folding the runners'
    // bests gives the exact best over the completed region.
    last_failure_.valid = true;
    for (const auto& runner : runners) {
      if (sw::improves(runner->best(), last_failure_.partial_best)) {
        last_failure_.partial_best = runner->best();
      }
    }
    std::rethrow_exception(first_error);
  }

  EngineResult result;
  result.kernel = config_.kernel;
  result.simd_isa = sw::simd_isa_name(sw::detected_simd_isa());
  const std::int64_t resumed_rows =
      seed == nullptr ? query.size()
                      : query.size() - (seed->checkpoint_row + 1);
  result.matrix_cells = resumed_rows * subject.size();
  result.wall_seconds = wall_seconds;
  for (const auto& runner : runners) {
    if (sw::improves(runner->best(), result.best)) {
      result.best = runner->best();
    }
    result.devices.push_back(runner->stats());
    result.computed_cells += runner->stats().cells;
  }
  return result;
}

}  // namespace mgpusw::core
