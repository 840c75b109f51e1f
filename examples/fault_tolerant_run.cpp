// Fault tolerance — kill a device mid-run and recover automatically.
//
// Stage 1 of a chromosome comparison can run for hours; the CUDAlign
// lineage checkpoints "special rows" to disk so a crashed run restarts
// from the last checkpoint instead of from scratch. This example injects
// a deterministic fault (a device death by default, configurable with
// --fault) into a comparison running with disk checkpoints and lets
// core::run_with_recovery handle it: classify the failure, drop the dead
// device, re-split the columns over the survivors, and restart from the
// newest intact checkpoint. The recovered result is bit-identical to an
// unfailed run.
//
//   $ ./fault_tolerant_run --scale=8192
//   $ ./fault_tolerant_run --fault="dev0:die@kernel=100" --tcp
//   $ ./fault_tolerant_run --fault="chan0:drop@chunk=7"
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "base/error.hpp"
#include "base/flags.hpp"
#include "base/format.hpp"
#include "core/engine.hpp"
#include "core/recovery.hpp"
#include "core/report.hpp"
#include "core/special_rows.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "seq/synth.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/spec.hpp"

int main(int argc, char** argv) {
  using namespace mgpusw;
  base::FlagSet flags("Kill a device mid-run and recover automatically");
  flags.add_int("scale", 8192, "divide chr21 lengths by this factor");
  flags.add_int("block_rows", 64, "block height (checkpoint granularity)");
  flags.add_int("interval", 4, "checkpoint every this many block rows");
  flags.add_string("fault", "dev1:die@kernel=40",
                   "fault plan; " + vgpu::fault_plan_grammar());
  flags.add_bool("tcp", false, "use loopback TCP for border traffic");
  flags.add_int("comm_timeout_ms", 2000,
                "TCP read/write timeout (0 = block forever)");
  flags.add_int("max_restarts", 3, "RecoveryPolicy restart budget");
  flags.add_string("trace-out", "",
                   "write a Chrome/Perfetto trace of the faulted run here");
  flags.add_string("metrics-json", "",
                   "write the metrics registry snapshot as JSON here");
  if (!flags.parse(argc, argv)) return 0;

  const auto homologs = seq::make_homolog_pair(
      seq::scaled_pair(seq::paper_chromosome_pairs()[2],
                       flags.get_int("scale")),
      42);

  // The paper's setting: a small heterogeneous pool.
  vgpu::Device d0(vgpu::gtx_580());
  vgpu::Device d1(vgpu::gtx_680());
  vgpu::Device d2(vgpu::gtx_560_ti());
  const std::vector<vgpu::Device*> pool = {&d0, &d1, &d2};

  core::EngineConfig config;
  config.block_rows = flags.get_int("block_rows");
  config.block_cols = 64;
  if (flags.get_bool("tcp")) {
    config.transport = core::Transport::kTcp;
    config.comm_timeout_ms = flags.get_int("comm_timeout_ms");
  }

  // Ground truth: the same comparison with nothing going wrong.
  core::MultiDeviceEngine reference(config, pool);
  const core::EngineResult expected =
      reference.run(homologs.query, homologs.subject);
  std::printf("unfailed run   : score %d at (%lld, %lld) on %zu devices\n",
              expected.best.score,
              static_cast<long long>(expected.best.end.row),
              static_cast<long long>(expected.best.end.col),
              expected.devices.size());

  // The faulted run: checkpoints spill to disk, the injector arms the
  // plan on every device and channel, and recovery does the rest.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mgpusw_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  core::SpecialRowStore checkpoints(dir.string());
  config.special_rows = &checkpoints;
  config.special_row_interval = flags.get_int("interval");
  config.checkpoint_f = true;  // rows double as restart checkpoints

  vgpu::FaultInjector injector(
      vgpu::parse_fault_plan(flags.get_string("fault")));
  config.fault = &injector;

  // Observability covers the faulted run only (not the reference run),
  // so the trace shows exactly what recovery did.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const bool want_trace = !flags.get_string("trace-out").empty();
  const bool want_metrics = !flags.get_string("metrics-json").empty();
  if (want_trace) config.obs.tracer = &tracer;
  if (want_trace || want_metrics) config.obs.metrics = &metrics;

  core::RecoveryPolicy policy;
  policy.max_restarts = static_cast<int>(flags.get_int("max_restarts"));

  std::printf("injected fault : %s\n", flags.get_string("fault").c_str());
  int recovered_ok = 1;
  try {
    const core::RecoveryResult recovered = core::run_with_recovery(
        config, pool, homologs.query, homologs.subject, policy);
    std::printf("recovered run  : score %d at (%lld, %lld) on %zu "
                "device(s), %d restart(s)\n",
                recovered.result.best.score,
                static_cast<long long>(recovered.result.best.end.row),
                static_cast<long long>(recovered.result.best.end.col),
                recovered.result.devices.size(), recovered.restarts);
    for (const std::string& name : recovered.lost_devices) {
      std::printf("lost device    : %s\n", name.c_str());
    }
    std::printf("checkpoints    : %s on disk (%s)\n",
                base::human_bytes(checkpoints.bytes()).c_str(),
                dir.c_str());
    std::printf("verdict        : %s\n",
                recovered.result.best == expected.best
                    ? "bit-identical to the unfailed run"
                    : "MISMATCH (bug!)");
    std::printf("\nJSON report:\n%s",
                core::to_json(recovered, config.obs.metrics).c_str());
    recovered_ok = recovered.result.best == expected.best ? 0 : 1;
  } catch (const core::RecoveryExhaustedError& e) {
    // Structured surrender: the policy ran out of restarts or devices.
    std::printf("recovery gave up after %d restart(s): %s\n", e.restarts(),
                e.what());
  }

  if (want_trace) {
    obs::write_chrome_trace(flags.get_string("trace-out"), tracer);
    std::printf("trace  : %s (%zu events; open in ui.perfetto.dev)\n",
                flags.get_string("trace-out").c_str(),
                tracer.event_count());
  }
  if (want_metrics) {
    std::FILE* file =
        std::fopen(flags.get_string("metrics-json").c_str(), "w");
    MGPUSW_REQUIRE(file != nullptr,
                   "cannot open " << flags.get_string("metrics-json"));
    std::fputs((metrics.to_json() + "\n").c_str(), file);
    std::fclose(file);
    std::printf("metrics: %s\n", flags.get_string("metrics-json").c_str());
  }

  checkpoints.clear();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return recovered_ok;
}
