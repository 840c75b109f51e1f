// Virtual GPU device specifications.
//
// Each spec captures the properties of one of the paper's GPUs that
// matter to the engine: sustained Smith-Waterman throughput (GCUPS, used
// for static load balancing and by the performance model), PCIe transfer
// characteristics (used by the model for border-chunk timing), and the
// SM count (the model's dispatch width: blocks needed to saturate it).
//
// The per-GPU GCUPS figures are approximations of the sustained single-
// GPU CUDAlign rates of the era's cards, chosen so that the heterogeneous
// 3-GPU environment reproduces the paper's headline aggregate of
// ~140 GCUPS. See EXPERIMENTS.md for the calibration notes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mgpusw::vgpu {

struct DeviceSpec {
  std::string name;
  int sm_count = 1;             // streaming multiprocessors
  int clock_mhz = 1000;
  std::int64_t memory_bytes = 1LL << 30;
  double sw_gcups = 1.0;        // sustained SW throughput, billions cells/s
  double pcie_gbytes_per_s = 3.0;  // effective host<->device bandwidth
  double pcie_latency_us = 8.0;    // per-transfer latency

  bool operator==(const DeviceSpec&) const = default;
};

/// NVIDIA GeForce GTX 560 Ti (Fermi GF114).
[[nodiscard]] DeviceSpec gtx_560_ti();

/// NVIDIA GeForce GTX 580 (Fermi GF110).
[[nodiscard]] DeviceSpec gtx_580();

/// NVIDIA GeForce GTX 680 (Kepler GK104).
[[nodiscard]] DeviceSpec gtx_680();

/// NVIDIA Tesla M2090 (Fermi GF110, compute SKU).
[[nodiscard]] DeviceSpec tesla_m2090();

/// A deliberately slow profile for tests and extreme-heterogeneity
/// sweeps.
[[nodiscard]] DeviceSpec toy_device(double gcups);

/// Environment 1 of the evaluation: three heterogeneous desktop GPUs
/// (GTX 560 Ti + GTX 580 + GTX 680), aggregate ≈ 140 GCUPS.
[[nodiscard]] std::vector<DeviceSpec> environment1();

/// Environment 2: homogeneous compute nodes with Tesla M2090 cards.
[[nodiscard]] std::vector<DeviceSpec> environment2();

/// Looks a spec up by name ("gtx560ti", "gtx580", "gtx680", "m2090");
/// throws InvalidArgument for unknown names.
[[nodiscard]] DeviceSpec spec_by_name(const std::string& name);

}  // namespace mgpusw::vgpu
