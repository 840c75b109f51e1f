// Chromosome comparison driver — the paper's workload as a CLI tool.
//
// Compares a human/chimp homologous chromosome pair (synthetic, scaled)
// or two user-provided FASTA files on a configurable set of virtual
// devices, printing the paper's metrics: score, position, GCUPS, and the
// per-device communication/computation breakdown.
//
//   $ ./chromosome_compare --pair=chr21 --scale=4096 --devices=3
//   $ ./chromosome_compare --query=a.fa --subject=b.fa --devices=2
//   $ ./chromosome_compare --pair=chr22 --hetero --transport=tcp
#include <cstdio>
#include <memory>

#include "base/error.hpp"
#include "base/flags.hpp"
#include "base/format.hpp"
#include "base/log.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "seq/fasta.hpp"
#include "seq/synth.hpp"
#include "sw/kernel.hpp"
#include "sw/linear.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

int main(int argc, char** argv) {
  using namespace mgpusw;
  base::FlagSet flags(
      "Compare megabase sequences on multiple virtual GPUs");
  flags.add_string("pair", "chr21",
                   "chromosome pair: chr19, chr20, chr21 or chr22");
  flags.add_int("scale", 4096, "divide paper lengths by this factor");
  flags.add_string("query", "", "FASTA file for the query (overrides --pair)");
  flags.add_string("subject", "",
                   "FASTA file for the subject (overrides --pair)");
  flags.add_int("devices", 3, "number of virtual devices");
  flags.add_bool("hetero", true,
                 "heterogeneous device mix (cycles env-1 GPU profiles); "
                 "the devices start with no measured rate, so the "
                 "profiles' GCUPS size this run's slices");
  flags.add_int("block_rows", 128, "block height");
  flags.add_int("block_cols", 128,
                "block width: the unit of the column split, checkpoint "
                "segments and fault coordinates (the row-major schedule "
                "without pruning computes a whole block row of a slice "
                "in one kernel call)");
  flags.add_int("buffer", 16, "circular buffer capacity (chunks)");
  flags.add_string("transport", "ring", "border transport: ring or tcp");
  {
    std::vector<std::string> kernels;
    for (const sw::KernelInfo& info : sw::kernel_registry()) {
      kernels.push_back(info.name);
    }
    flags.add_choice("kernel", std::string(sw::kDefaultKernel),
                     std::move(kernels),
                     "block kernel (simd uses the strongest CPU ISA; cap "
                     "with MGPUSW_SIMD=scalar|sse4.2)");
  }
  flags.add_bool("pruning", false, "enable block pruning");
  flags.add_bool("verbose", false,
                 "info-level logs (kernel dispatch, engine startup)");
  flags.add_bool("verify", true, "cross-check against the serial scan");
  flags.add_int("seed", 42, "synthetic genome seed");
  flags.add_string("json", "", "write the run report as JSON here");
  flags.add_string("trace-out", "",
                   "write a Chrome/Perfetto trace of the run here "
                   "(open in ui.perfetto.dev or chrome://tracing)");
  flags.add_string("metrics-json", "",
                   "write the metrics registry snapshot as JSON here");
  flags.add_bool("phases", false,
                 "profile per-device phase times (implied by --trace-out "
                 "and --metrics-json)");
  if (!flags.parse(argc, argv)) return 0;
  if (flags.get_bool("verbose")) base::set_log_level(base::LogLevel::kInfo);

  // --- sequences -----------------------------------------------------
  seq::Sequence query;
  seq::Sequence subject;
  if (!flags.get_string("query").empty()) {
    const auto q = seq::read_fasta_file(flags.get_string("query"));
    const auto s = seq::read_fasta_file(flags.get_string("subject"));
    MGPUSW_REQUIRE(!q.empty() && !s.empty(), "FASTA files must be non-empty");
    query = q.front();
    subject = s.front();
  } else {
    const auto& pairs = seq::paper_chromosome_pairs();
    const seq::ChromosomePair* chosen = nullptr;
    for (const auto& pair : pairs) {
      if (pair.id == flags.get_string("pair")) chosen = &pair;
    }
    MGPUSW_REQUIRE(chosen != nullptr,
                   "unknown pair " << flags.get_string("pair"));
    const seq::HomologPair homologs = seq::make_homolog_pair(
        seq::scaled_pair(*chosen, flags.get_int("scale")),
        static_cast<std::uint64_t>(flags.get_int("seed")));
    query = homologs.query;
    subject = homologs.subject;
  }
  std::printf("query  : %-14s %12s\n", query.name().c_str(),
              base::human_bp(query.size()).c_str());
  std::printf("subject: %-14s %12s\n", subject.name().c_str(),
              base::human_bp(subject.size()).c_str());
  std::printf("matrix : %s cells\n\n",
              base::with_thousands(query.size() * subject.size()).c_str());

  // --- devices ---------------------------------------------------------
  const auto env = vgpu::environment1();
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  std::vector<vgpu::Device*> pointers;
  const auto device_count = static_cast<int>(flags.get_int("devices"));
  for (int d = 0; d < device_count; ++d) {
    const vgpu::DeviceSpec spec =
        flags.get_bool("hetero")
            ? env[static_cast<std::size_t>(d) % env.size()]
            : vgpu::tesla_m2090();
    devices.push_back(std::make_unique<vgpu::Device>(spec));
    pointers.push_back(devices.back().get());
  }

  // --- engine ----------------------------------------------------------
  core::EngineConfig config;
  config.block_rows = flags.get_int("block_rows");
  config.block_cols = flags.get_int("block_cols");
  config.buffer_capacity = flags.get_int("buffer");
  config.enable_pruning = flags.get_bool("pruning");
  config.kernel = flags.get_string("kernel");
  config.transport = flags.get_string("transport") == "tcp"
                         ? core::Transport::kTcp
                         : core::Transport::kInProcess;

  // --- observability ---------------------------------------------------
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const bool want_trace = !flags.get_string("trace-out").empty();
  const bool want_metrics = !flags.get_string("metrics-json").empty();
  const bool want_phases =
      flags.get_bool("phases") || want_trace || want_metrics;
  if (want_trace) config.obs.tracer = &tracer;
  if (want_metrics || want_phases) config.obs.metrics = &metrics;
  config.obs.profile_phases = want_phases;

  core::MultiDeviceEngine engine(config, pointers);
  const core::EngineResult result = engine.run(query, subject);

  // --- report ----------------------------------------------------------
  std::printf("optimal score : %d at (%lld, %lld)\n", result.best.score,
              static_cast<long long>(result.best.end.row),
              static_cast<long long>(result.best.end.col));
  std::printf("wall time     : %s  (%.3f GCUPS on this host)\n",
              base::human_duration(result.wall_seconds).c_str(),
              result.gcups());

  base::TextTable table({"device", "columns", "blocks", "pruned", "busy",
                         "recv stall", "send stall"});
  for (const core::DeviceRunStats& stats : result.devices) {
    table.add_row({
        stats.device_name,
        base::with_thousands(stats.slice.cols),
        base::with_thousands(stats.blocks),
        base::with_thousands(stats.pruned_blocks),
        base::human_duration(static_cast<double>(stats.busy_ns) * 1e-9),
        base::human_duration(static_cast<double>(stats.recv_stall_ns) *
                             1e-9),
        base::human_duration(static_cast<double>(stats.send_stall_ns) *
                             1e-9),
    });
  }
  std::fputs(table.str().c_str(), stdout);

  if (want_phases) {
    // Per-phase wall-time split per device; the five columns partition
    // each driver thread's run() wall time (obs::PhaseProfiler).
    base::TextTable phase_table({"device", "compute", "border recv",
                                 "border send", "checkpoint", "idle"});
    for (const core::DeviceRunStats& stats : result.devices) {
      if (!stats.phases_tracked) continue;
      const auto cell = [](std::int64_t ns) {
        return base::human_duration(static_cast<double>(ns) * 1e-9);
      };
      phase_table.add_row({stats.device_name, cell(stats.phase_compute_ns),
                           cell(stats.phase_recv_ns),
                           cell(stats.phase_send_ns),
                           cell(stats.phase_checkpoint_ns),
                           cell(stats.phase_idle_ns)});
    }
    std::printf("\nper-device phase breakdown:\n");
    std::fputs(phase_table.str().c_str(), stdout);
  }

  if (!flags.get_string("json").empty()) {
    std::FILE* file = std::fopen(flags.get_string("json").c_str(), "w");
    MGPUSW_REQUIRE(file != nullptr,
                   "cannot open " << flags.get_string("json"));
    std::fputs(core::to_json(result, config.obs.metrics).c_str(), file);
    std::fclose(file);
    std::printf("report: %s\n", flags.get_string("json").c_str());
  }
  if (want_trace) {
    obs::write_chrome_trace(flags.get_string("trace-out"), tracer);
    std::printf("trace : %s (%zu events; open in ui.perfetto.dev)\n",
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

  if (flags.get_bool("verify")) {
    const sw::ScoreResult oracle =
        sw::linear_score(config.scheme, query, subject);
    const bool ok = config.enable_pruning
                        ? result.best.score == oracle.score
                        : result.best == oracle;
    std::printf("serial cross-check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}
