// R-C1 (extension): the price of surviving a failure.
//
// Checkpointing special rows is what makes restart-after-death possible,
// and it is pure overhead while nothing fails. This bench quantifies both
// sides: GCUPS with checkpointing off, with checkpointing on, and with
// checkpointing on plus one injected mid-run device death (the run
// finishes on the surviving devices, restarted from the last checkpoint).
// All three modes compute the same matrix; the death mode must still
// produce a bit-identical score. Records all modes in BENCH_recovery.json.
#include <cstdio>
#include <memory>

#include "bench/bench_util.hpp"
#include "core/recovery.hpp"
#include "vgpu/fault.hpp"

namespace {

using namespace mgpusw;

struct ModeResult {
  std::string name;
  core::EngineResult run;
  int restarts = 0;
  std::vector<std::string> lost_devices{};
};

void write_recovery_json(const std::string& path, std::int64_t scale,
                         std::int64_t interval,
                         const std::string& fault_plan,
                         const std::vector<ModeResult>& modes) {
  base::JsonWriter w;
  w.begin_object();
  w.key("bench").value("recovery_overhead");
  w.key("scale").value(scale);
  w.key("checkpoint_interval").value(interval);
  w.key("fault").value(fault_plan);
  w.key("modes").begin_array();
  for (const ModeResult& mode : modes) {
    w.begin_object();
    w.key("name").value(mode.name);
    w.key("wall_seconds").value_fixed(mode.run.wall_seconds, 6);
    w.key("gcups").value_fixed(mode.run.gcups(), 4);
    w.key("score").value(mode.run.best.score);
    w.key("restarts").value(mode.restarts);
    w.key("lost_devices").begin_array(base::JsonWriter::kCompact);
    for (const std::string& name : mode.lost_devices) {
      w.value(name);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  if (!bench::write_json_file(path, w.str())) return;
  std::printf("(recovery results written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  base::FlagSet flags = bench::standard_flags(
      "R-C1: checkpointing and recovery overhead");
  flags.add_int("interval", 4, "checkpoint every this many block rows");
  flags.add_string("fault", "",
                   "fault plan for the death mode (default: kill device 1 "
                   "halfway through its blocks); " +
                       vgpu::fault_plan_grammar());
  flags.add_string("recovery_json", "BENCH_recovery.json",
                   "write all modes to this JSON file (empty disables)");
  if (!flags.parse(argc, argv)) return 0;

  bench::print_header(
      "R-C1  Recovery overhead: checkpointing off / on / on + device death",
      "special-row checkpointing costs a few percent of GCUPS and buys "
      "restart-after-death with a bit-identical result");

  const std::int64_t scale = flags.get_int("scale");
  const std::int64_t interval = flags.get_int("interval");
  const seq::HomologPair homologs = seq::make_homolog_pair(
      seq::scaled_pair(seq::paper_chromosome_pairs()[2], scale), 7);

  // The paper's setting: a small heterogeneous pool.
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(16.0));
  vgpu::Device d2(vgpu::toy_device(22.0));
  const std::vector<vgpu::Device*> pool = {&d0, &d1, &d2};

  core::EngineConfig config;
  config.kernel = flags.get_string("kernel");
  config.block_rows = 128;
  config.block_cols = 128;

  std::vector<ModeResult> modes;

  // Mode 1: checkpointing off (the raw engine).
  {
    core::MultiDeviceEngine engine(config, pool);
    modes.push_back(
        {"checkpoint-off", engine.run(homologs.query, homologs.subject)});
  }

  // Mode 2: checkpointing on, nothing fails.
  core::EngineConfig checkpointed = config;
  core::SpecialRowStore store;
  checkpointed.special_rows = &store;
  checkpointed.special_row_interval = interval;
  checkpointed.checkpoint_f = true;
  {
    core::MultiDeviceEngine engine(checkpointed, pool);
    modes.push_back(
        {"checkpoint-on", engine.run(homologs.query, homologs.subject)});
    store.clear();
  }

  // Mode 3: checkpointing on + one injected device death; the run
  // restarts from the last checkpoint on the surviving two devices.
  std::string fault_plan = flags.get_string("fault");
  if (fault_plan.empty()) {
    // Kill device 1 halfway through its share of blocks.
    core::MultiDeviceEngine probe(checkpointed, pool);
    const core::AlignmentPlan plan =
        probe.plan(homologs.query.size(), homologs.subject.size());
    const std::int64_t launches =
        plan.block_row_count * plan.devices[1].block_columns;
    fault_plan = "dev1:die@kernel=" + std::to_string(launches / 2);
  }
  {
    vgpu::FaultInjector injector(vgpu::parse_fault_plan(fault_plan));
    core::EngineConfig faulted = checkpointed;
    faulted.fault = &injector;
    core::RecoveryPolicy policy;
    policy.max_restarts = 2;
    policy.checkpoint_interval = interval;
    const core::RecoveryResult recovered = core::run_with_recovery(
        faulted, pool, homologs.query, homologs.subject, policy);
    modes.push_back({"checkpoint-on+death", recovered.result,
                     recovered.restarts, recovered.lost_devices});
    store.clear();
  }

  bool identical = true;
  for (const ModeResult& mode : modes) {
    identical = identical && mode.run.best == modes[0].run.best;
  }

  base::TextTable table(
      {"mode", "wall time", "GCUPS", "restarts", "devices at finish"});
  for (const ModeResult& mode : modes) {
    table.add_row({
        mode.name,
        base::human_duration(mode.run.wall_seconds),
        bench::gcups_str(mode.run.gcups()),
        std::to_string(mode.restarts),
        std::to_string(mode.run.devices.size()),
    });
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("fault plan (death mode): %s\n", fault_plan.c_str());
  std::printf("scores bit-identical across all modes: %s\n",
              identical ? "yes" : "NO (bug!)");

  const std::string json_path = flags.get_string("recovery_json");
  if (!json_path.empty()) {
    write_recovery_json(json_path, scale, interval, fault_plan, modes);
  }

  bench::print_shape_check({
      "all three modes produce bit-identical scores: checkpointing and "
      "recovery are invisible in the result",
      "checkpoint-on GCUPS trails checkpoint-off by only a few percent "
      "(one border row copied every `interval` block rows)",
      "the death mode recomputes the rows after the last checkpoint on "
      "one fewer device yet still finishes; shrinking --interval shrinks "
      "the recomputed region (virtual devices time-share host cores, so "
      "its wall time understates what real GPUs would pay)",
  });
  return identical ? 0 : 1;
}
