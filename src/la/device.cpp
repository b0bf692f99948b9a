#include "la/device.hpp"

#include <cstdlib>

namespace nadmm::la {

DeviceModel device_from_string(const std::string& spec) {
  if (spec == "p100") return p100_device();
  if (spec == "cpu") return cpu_device();
  char* end = nullptr;
  const double gf = std::strtod(spec.c_str(), &end);
  NADMM_CHECK(end != nullptr && gf > 0.0,
              "device spec must be 'p100', 'cpu', '<gflops>', or "
              "'<gflops>:<gbytes_per_s>'");
  if (*end == '\0') return {"custom", gf};
  NADMM_CHECK(*end == ':', "device spec: expected ':' between GF/s and GB/s");
  char* end2 = nullptr;
  const double gb = std::strtod(end + 1, &end2);
  NADMM_CHECK(end2 != nullptr && *end2 == '\0' && gb > 0.0,
              "device spec: bandwidth must be a positive GB/s number");
  return {"custom", gf, gb};
}

std::vector<DeviceModel> device_list_from_string(const std::string& list) {
  std::vector<DeviceModel> devices;
  for (std::size_t begin = 0, end = 0; end != std::string::npos;
       begin = end + 1) {
    end = list.find_first_of(",+", begin);
    const std::string item = list.substr(begin, end - begin);
    const auto first = item.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) {
      throw InvalidArgument("device list '" + list + "' has an empty element");
    }
    devices.push_back(device_from_string(
        item.substr(first, item.find_last_not_of(" \t\r\n") - first + 1)));
  }
  return devices;
}

}  // namespace nadmm::la
