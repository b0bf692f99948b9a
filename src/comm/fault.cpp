#include "comm/fault.hpp"

#include "support/check.hpp"
#include "support/cli.hpp"

namespace nadmm::comm {

namespace {

double parse_probability(const std::string& spec, const std::string& key,
                         const std::string& value) {
  double p = 0.0;
  NADMM_CHECK(parse_number(value, p),
              "fault spec '" + spec + "': malformed probability for '" + key +
                  "'");
  NADMM_CHECK(p >= 0.0 && p <= 1.0,
              "fault spec '" + spec + "': probability for '" + key +
                  "' must be in [0, 1]");
  return p;
}

/// SplitMix64-style mix of the run seed and the link identity, so each
/// directed link owns an independent deterministic stream.
std::uint64_t link_seed(std::uint64_t seed, int from, int to) {
  std::uint64_t z = seed;
  z ^= 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(from + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= 0x94d049bb133111ebULL + static_cast<std::uint64_t>(to + 1);
  z = (z ^ (z >> 27)) * 0x2545f4914f6cdd1dULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& spec) {
  FaultSpec out;
  if (spec.empty() || spec == "none") return out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    // '+' is an accepted clause separator so sweep axis entries (which
    // are themselves comma-separated) can carry multi-clause specs:
    // "drop:0.05+dup:0.02" ≡ "drop:0.05,dup:0.02".
    const std::size_t comma = spec.find_first_of(",+", pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t colon = part.find(':');
    NADMM_CHECK(colon != std::string::npos,
                "fault spec '" + spec + "': expected '<kind>:<p>', got '" +
                    part + "'");
    const std::string key = part.substr(0, colon);
    const double p = parse_probability(spec, key, part.substr(colon + 1));
    if (key == "drop") {
      out.drop = p;
    } else if (key == "dup") {
      out.duplicate = p;
    } else if (key == "reorder") {
      out.reorder = p;
    } else if (key == "corrupt") {
      out.corrupt = p;
    } else {
      NADMM_CHECK(false, "fault spec '" + spec + "': unknown kind '" + key +
                             "' (expected drop|dup|reorder|corrupt)");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

FaultModel::FaultModel(const FaultSpec& spec, std::uint64_t seed, int from,
                       int to)
    : spec_(spec), rng_(link_seed(seed, from, to)) {}

FaultDecision FaultModel::next(double transit_seconds) {
  // Fixed draw count: seven uniforms per frame, consumed whether or not
  // each fault fires, so the stream position after frame k is
  // independent of the outcomes of frames 0..k.
  const double u_drop = rng_.uniform();
  const double u_dup = rng_.uniform();
  const double u_reorder = rng_.uniform();
  const double u_corrupt = rng_.uniform();
  const double u_delay = rng_.uniform();
  const double u_dup_delay = rng_.uniform();
  const std::uint64_t u_bit = rng_.next_u64();

  FaultDecision d;
  d.drop = u_drop < spec_.drop;
  d.duplicate = !d.drop && u_dup < spec_.duplicate;
  d.corrupt = !d.drop && u_corrupt < spec_.corrupt;
  if (!d.drop && u_reorder < spec_.reorder) {
    // Push the frame 1–3 transits behind schedule: enough to land after
    // later sends, bounded so retransmit timers stay meaningful.
    d.delay = (1.0 + 2.0 * u_delay) * transit_seconds;
  }
  if (d.duplicate) {
    d.dup_delay = (0.5 + 1.5 * u_dup_delay) * transit_seconds;
  }
  d.corrupt_bit = u_bit;
  return d;
}

}  // namespace nadmm::comm
