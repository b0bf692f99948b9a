// Deterministic link-fault injection for the async engine.
//
// A FaultSpec is parsed from the CLI string
// `drop:p[,dup:p][,reorder:p][,corrupt:p]` (any subset, any order;
// "none" = no faults). The engine instantiates one FaultModel per
// directed link (from, to), seeded by mixing the run seed with the two
// rank ids, and consults it once per transmitted data frame. Every
// consultation draws a FIXED number of uniforms regardless of which
// faults fire, so the decision for transmission k on a link depends
// only on (seed, from, to, k) — never on what happened to other frames
// or links. That is what keeps faulty runs byte-deterministic across
// sweep-pool interleavings.
#pragma once

#include <cstdint>
#include <string>

#include "support/rng.hpp"

namespace nadmm::comm {

/// Per-link fault probabilities. All default to 0 (clean link).
struct FaultSpec {
  double drop = 0.0;     ///< frame lost in flight
  double duplicate = 0.0;  ///< second copy delivered later
  double reorder = 0.0;  ///< frame delayed past its successors
  double corrupt = 0.0;  ///< one payload/header bit flipped in flight

  [[nodiscard]] bool any() const {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || corrupt > 0.0;
  }

  /// Parse "none" or "drop:0.05,dup:0.01,reorder:0.02,corrupt:0.01"
  /// (keys optional, order free; '+' is accepted as a clause separator
  /// so comma-split sweep axis entries can carry multi-clause specs).
  /// Throws nadmm::InvalidArgument on an unknown key, malformed number,
  /// or probability outside [0, 1].
  static FaultSpec parse(const std::string& spec);
};

/// What happens to one transmitted frame.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  double delay = 0.0;       ///< extra in-flight latency (reorder)
  double dup_delay = 0.0;   ///< extra latency on the duplicate copy
  std::uint64_t corrupt_bit = 0;  ///< bit index to flip, mod frame size
};

/// Deterministic fault source for one directed link.
class FaultModel {
 public:
  /// `seed` is the run seed; the link identity is mixed in so each
  /// (from, to) pair gets an independent stream.
  FaultModel(const FaultSpec& spec, std::uint64_t seed, int from, int to);

  /// Decide the fate of the next transmitted frame. `transit_seconds`
  /// scales the reorder/duplicate delays so "reordered" means "arrives
  /// after frames sent up to a few transits later", whatever the
  /// network model's latency scale is.
  FaultDecision next(double transit_seconds);

 private:
  FaultSpec spec_;
  Rng rng_;
};

}  // namespace nadmm::comm
