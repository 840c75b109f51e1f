#include "core/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "base/error.hpp"
#include "base/math.hpp"
#include "base/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sw/batch_simd.hpp"
#include "sw/block_simd.hpp"

namespace mgpusw::core {

namespace {

/// Runs every item short enough for the inter-sequence kernel through
/// sw::batch_align_scores (many pairs per vector) and fills its batch
/// entry; marks those items handled so the item threads skip them.
void run_interseq_prepass(const BatchConfig& config,
                          const std::vector<BatchItem>& items,
                          BatchResult& batch, std::vector<char>& handled) {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].query.size() <= config.interseq_max_len &&
        items[i].subject.size() <= config.interseq_max_len) {
      selected.push_back(i);
    }
  }
  if (selected.empty()) return;

  // Unpack all selected pairs into one contiguous code buffer; PairViews
  // point into it.
  std::int64_t total_bases = 0;
  for (const std::size_t i : selected) {
    total_bases += items[i].query.size() + items[i].subject.size();
  }
  std::vector<seq::Nt> codes(static_cast<std::size_t>(total_bases));
  std::vector<sw::PairView> pairs(selected.size());
  std::int64_t offset = 0;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const BatchItem& item = items[selected[k]];
    sw::PairView& pair = pairs[k];
    pair.query = codes.data() + offset;
    pair.query_len = item.query.size();
    item.query.extract(0, pair.query_len, codes.data() + offset);
    offset += pair.query_len;
    pair.subject = codes.data() + offset;
    pair.subject_len = item.subject.size();
    item.subject.extract(0, pair.subject_len, codes.data() + offset);
    offset += pair.subject_len;
  }

  const obs::Scope& obs = config.engine.obs;
  obs::TraceSpan span(obs.tracer, "batch",
                      "interseq x" + std::to_string(selected.size()));
  base::WallTimer timer;
  sw::BatchStats stats;
  const std::vector<sw::ScoreResult> scores = sw::batch_align_scores(
      config.engine.scheme, pairs, config.interseq_kernel, &stats);
  const double seconds = timer.elapsed_seconds();

  std::int64_t total_cells = 0;
  for (const sw::PairView& pair : pairs) {
    total_cells += pair.query_len * pair.subject_len;
  }
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const std::size_t index = selected[k];
    BatchItemResult& entry = batch.items[index];
    entry.label = items[index].label;
    entry.result.best = scores[k];
    entry.result.kernel = config.interseq_kernel;
    entry.result.simd_isa = sw::simd_isa_name(sw::detected_simd_isa());
    entry.result.matrix_cells =
        pairs[k].query_len * pairs[k].subject_len;
    entry.result.computed_cells = entry.result.matrix_cells;
    // Per-item share of the pre-pass wall time, proportional to cells.
    entry.result.wall_seconds =
        total_cells > 0 ? seconds * static_cast<double>(
                                        entry.result.matrix_cells) /
                              static_cast<double>(total_cells)
                        : seconds / static_cast<double>(selected.size());
    handled[index] = 1;
  }
  if (obs.metrics != nullptr) {
    obs.metrics->counter("kernel.overflow_reruns")
        .add(stats.overflow_reruns);
    obs.metrics->counter("batch.items_completed")
        .add(static_cast<std::int64_t>(selected.size()));
    obs.metrics->counter("batch.interseq_items")
        .add(static_cast<std::int64_t>(selected.size()));
  }
}

}  // namespace

void run_batch_item(const BatchConfig& config, DeviceFleet& fleet,
                    const BatchItem& item, BatchItemResult& entry) {
  MGPUSW_REQUIRE(config.devices_per_item >= 0,
                 "devices_per_item must be non-negative");
  MGPUSW_REQUIRE(config.engine.block_cols > 0,
                 "block_cols must be positive");
  const std::size_t requested = config.devices_per_item == 0
                                    ? fleet.size()
                                    : static_cast<std::size_t>(
                                          config.devices_per_item);
  MGPUSW_REQUIRE(requested <= fleet.size(),
                 "devices_per_item exceeds fleet size");
  // Every leased device needs at least one block column of its own, so
  // a short subject leases fewer devices than asked for.
  const auto block_columns = static_cast<std::size_t>(base::div_ceil(
      static_cast<std::int64_t>(item.subject.size()),
      config.engine.block_cols));
  const std::size_t per_item =
      std::max<std::size_t>(1, std::min(requested, block_columns));
  entry.label = item.label;
  // Item lifetime span: covers the lease wait, the run(s) and any
  // recovery retries, on the calling thread's track.
  const obs::Scope& obs = config.engine.obs;
  obs::TraceSpan item_span(obs.tracer, "batch", "item " + item.label);
  if (obs.metrics != nullptr) {
    obs.metrics->gauge("batch.in_flight").add(1);
  }
  MGPUSW_REQUIRE(item.checkpoints == nullptr || config.enable_recovery,
                 "durable checkpoints need enable_recovery");
  try {
    if (!config.enable_recovery) {
      DeviceLease lease = fleet.acquire(per_item);
      EngineConfig engine_config = config.engine;
      engine_config.job = item.label;
      if (item.cancel != nullptr) engine_config.stop_request = item.cancel;
      MultiDeviceEngine engine(engine_config, lease.devices());
      entry.result = engine.run(item.query, item.subject);
    } else {
      // Degraded-pool retry loop: each pass leases what the fleet
      // can still grant (devices that died under other items shrink
      // the request) and runs the item under recovery. A pass whose
      // whole lease died retries on a fresh lease; bounded so a
      // cascade of deaths cannot loop forever.
      int lease_attempts = 0;
      // Fault-plan ordinals name devices of the lease they were armed
      // against. After an exhausted lease the retry runs on different
      // physical devices; re-arming the plan would remap its ordinals
      // onto healthy hardware and kill the replacements too.
      bool fault_spent = false;
      for (;;) {
        const std::size_t healthy = fleet.healthy_count();
        if (healthy == 0) {
          throw Error("batch item \"" + item.label +
                      "\": no healthy devices left");
        }
        const std::size_t want =
            std::max<std::size_t>(1, std::min(per_item, healthy));
        DeviceLease lease;
        try {
          lease = fleet.acquire(want);
        } catch (const Error&) {
          // The fleet degraded between the snapshot and the
          // acquire; re-evaluate with the smaller pool.
          if (++lease_attempts > config.recovery.max_restarts + 1) {
            throw;
          }
          continue;
        }
        EngineConfig engine_config = config.engine;
        engine_config.job = item.label;
        if (fault_spent) engine_config.fault = nullptr;
        if (item.cancel != nullptr) {
          engine_config.stop_request = item.cancel;
        }
        if (item.checkpoints != nullptr) {
          // Durable store (service journal): the engine checkpoints
          // where a restarted *process* can find them.
          engine_config.special_rows = item.checkpoints;
          engine_config.special_row_interval =
              config.recovery.checkpoint_interval;
          engine_config.checkpoint_f = true;
        }
        try {
          RecoveryResult recovered = run_with_recovery(
              engine_config, lease.devices(), item.query,
              item.subject, config.recovery, &fleet,
              item.checkpoints != nullptr ? &item.resume : nullptr,
              item.on_restart);
          entry.result = std::move(recovered.result);
          entry.restarts += recovered.restarts;
          entry.lost_devices.insert(
              entry.lost_devices.end(),
              recovered.lost_devices.begin(),
              recovered.lost_devices.end());
          break;
        } catch (const RecoveryExhaustedError& e) {
          entry.restarts += e.restarts();
          entry.lost_devices.insert(entry.lost_devices.end(),
                                    e.lost_devices().begin(),
                                    e.lost_devices().end());
          lease.release();
          if (fleet.healthy_count() == 0 ||
              ++lease_attempts > config.recovery.max_restarts + 1) {
            throw;
          }
          fault_spent = true;
          // The fresh-lease rerun replays the item from scratch: count
          // it with the restarts it recovers from. run_with_recovery
          // threw before booking its own counters, so the retry books
          // them here — a death must show up as recovery.* whichever
          // path survives it.
          ++entry.restarts;
          if (obs.metrics != nullptr) {
            obs.metrics->counter("recovery.restarts").increment();
            obs.metrics->counter("recovery.devices_lost")
                .add(static_cast<std::int64_t>(e.lost_devices().size()));
          }
        }
      }
    }
  } catch (...) {
    if (obs.metrics != nullptr) {
      obs.metrics->gauge("batch.in_flight").add(-1);
      obs.metrics->counter("batch.items_failed").increment();
    }
    throw;
  }
  if (obs.metrics != nullptr) {
    obs.metrics->gauge("batch.in_flight").add(-1);
    obs.metrics->counter("batch.items_completed").increment();
  }
}

BatchResult run_batch(const BatchConfig& config, DeviceFleet& fleet,
                      const std::vector<BatchItem>& items) {
  MGPUSW_REQUIRE(!items.empty(), "batch needs at least one item");
  MGPUSW_REQUIRE(config.devices_per_item >= 0,
                 "devices_per_item must be non-negative");
  MGPUSW_REQUIRE(config.max_in_flight >= 1,
                 "max_in_flight must be at least 1");
  const std::size_t per_item = config.devices_per_item == 0
                                   ? fleet.size()
                                   : static_cast<std::size_t>(
                                         config.devices_per_item);
  MGPUSW_REQUIRE(per_item <= fleet.size(),
                 "devices_per_item exceeds fleet size");

  BatchResult batch;
  batch.items.resize(items.size());

  base::WallTimer wall;
  std::vector<char> handled(items.size(), 0);
  if (config.interseq_max_len > 0) {
    run_interseq_prepass(config, items, batch, handled);
    if (config.on_item_done) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (handled[i] != 0) {
          config.on_item_done(i, batch.items[i], nullptr);
        }
      }
    }
  }

  // Admission order: priority descending, ties in submission order.
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&items](std::size_t a, std::size_t b) {
                     return items[a].priority > items[b].priority;
                   });

  const std::size_t thread_count = std::min<std::size_t>(
      static_cast<std::size_t>(config.max_in_flight), items.size());

  std::atomic<std::size_t> next_slot{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      const std::size_t slot =
          next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= order.size()) return;
      const std::size_t index = order[slot];
      if (handled[index] != 0) continue;  // solved by the interseq pass
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error) return;  // abort: stop admitting items
      }
      const BatchItem& item = items[index];
      BatchItemResult& entry = batch.items[index];
      try {
        run_batch_item(config, fleet, item, entry);
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        if (config.on_item_done) config.on_item_done(index, entry, error);
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = error;
        return;
      }
      if (config.on_item_done) config.on_item_done(index, entry, nullptr);
    }
  };

  if (thread_count == 1) {
    worker();  // sequential mode: no thread overhead, same code path
  } else {
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (std::size_t i = 0; i < thread_count; ++i) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) thread.join();
  }
  batch.wall_seconds = wall.elapsed_seconds();

  if (first_error) std::rethrow_exception(first_error);

  for (const BatchItemResult& entry : batch.items) {
    batch.total_seconds += entry.result.wall_seconds;
    batch.total_cells += entry.result.matrix_cells;
  }
  return batch;
}

}  // namespace mgpusw::core
