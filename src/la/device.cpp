#include "la/device.hpp"

#include <cmath>
#include <string_view>

#include "support/cli.hpp"

namespace nadmm::la {

DeviceModel device_from_string(const std::string& spec) {
  if (spec == "p100") return p100_device();
  if (spec == "cpu") return cpu_device();
  // Both ratings are whole parse_number texts and finite > 0: `inf`,
  // `1e400` and `0x10` are rejected, not priced.
  const auto rating = [](std::string_view text, double& out) {
    return parse_number(text, out) && std::isfinite(out) && out > 0.0;
  };
  const auto colon = spec.find(':');
  double gf = 0.0;
  NADMM_CHECK(rating(std::string_view(spec).substr(0, colon), gf),
              "device spec '" + spec +
                  "' must be 'p100', 'cpu', '<gflops>', or "
                  "'<gflops>:<gbytes_per_s>' with finite ratings > 0");
  if (colon == std::string::npos) return {"custom", gf};
  double gb = 0.0;
  NADMM_CHECK(rating(std::string_view(spec).substr(colon + 1), gb),
              "device spec '" + spec +
                  "': bandwidth must be a finite GB/s number > 0");
  return {"custom", gf, gb};
}

}  // namespace nadmm::la
