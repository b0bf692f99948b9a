// Compute-device model.
//
// The paper's per-node compute runs on Tesla P100 GPUs. We model a device
// as a sustained GF/s rating plus a sustained memory bandwidth: the
// simulated clock converts the flops and bytes a rank executed (counted
// by the kernels in this library) into simulated device-seconds under a
// roofline — an interval costs max(flops/flop_rate, bytes/bandwidth), so
// low-arithmetic-intensity work (SpMM over E18-like shards, tall-skinny
// GEMMs) is priced by the memory system, not by peak flops. Presets let
// benches compare "P100-like" against CPU-like ratings, and keep
// epoch-time figures machine-independent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace nadmm::la {

/// A compute device with sustained throughput and bandwidth ratings.
struct DeviceModel {
  std::string name;
  double gflops;          ///< sustained double-precision GF/s
  double gbytes_per_s{};  ///< sustained memory bandwidth in GB/s;
                          ///< <= 0 disables the bandwidth term
                          ///< (flop-only pricing, the pre-roofline model)

  /// Simulated seconds to execute `flop_count` operations (flop term only).
  [[nodiscard]] double seconds_for_flops(std::uint64_t flop_count) const {
    NADMM_CHECK(gflops > 0.0, "device gflops must be positive");
    return static_cast<double>(flop_count) / (gflops * 1e9);
  }

  /// Roofline seconds for an interval that executed `flop_count` flops
  /// and moved `byte_count` bytes: whichever of the flop pipe and the
  /// memory system is slower bounds the interval.
  [[nodiscard]] double seconds_for(std::uint64_t flop_count,
                                   std::uint64_t byte_count) const {
    const double flop_s = seconds_for_flops(flop_count);
    if (gbytes_per_s <= 0.0) return flop_s;
    const double byte_s =
        static_cast<double>(byte_count) / (gbytes_per_s * 1e9);
    return std::max(flop_s, byte_s);
  }

  /// Machine balance in flops/byte: kernels below this arithmetic
  /// intensity are bandwidth-bound on this device. 0 when no bandwidth
  /// rating is set.
  [[nodiscard]] double balance() const {
    return gbytes_per_s > 0.0 ? gflops / gbytes_per_s : 0.0;
  }
};

/// Tesla P100-like: ~4.7 TF/s peak FP64, 732 GB/s peak HBM2; we rate
/// sustained GEMM-bound throughput at 3 TF/s and sustained streaming
/// bandwidth at 550 GB/s, matching the paper's hardware class.
inline DeviceModel p100_device() { return {"p100", 3000.0, 550.0}; }

/// A contemporary server CPU socket (~50 GF/s sustained FP64, ~25 GB/s
/// sustained DRAM bandwidth).
inline DeviceModel cpu_device() { return {"cpu", 50.0, 25.0}; }

/// Look up a preset by name ("p100", "cpu"), parse a number as GF/s
/// (flop-only pricing), or parse "<gflops>:<gbytes_per_s>" for a custom
/// roofline device.
DeviceModel device_from_string(const std::string& spec);

/// A per-rank device list: device_from_string specs joined by ',' or '+'
/// ("p100+cpu"; sweep axis values use '+', commas being the axis
/// separator). Elements are trimmed; an empty list or element throws
/// InvalidArgument. The one parser behind --device, the devices axis and
/// runner::cluster_devices.
std::vector<DeviceModel> device_list_from_string(const std::string& list);

}  // namespace nadmm::la
