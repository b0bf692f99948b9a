// Solver registry: the single name → factory authority behind the
// `nadmm` CLI, the sweep scheduler, and every bench / example driver.
//
// Two solver families share the registry:
//   * distributed — run on the simulated cluster (Newton-ADMM and the
//     paper's baselines GIANT / Synchronous SGD / InexactDANE / AIDE /
//     DiSCO);
//   * single-node — the §1 reference optimizers (Newton-CG, gradient
//     descent, momentum, Adagrad, Adam) run as one-rank cluster runs on
//     the config's single device and record every iteration through
//     core::EpochRecorder, so their traces carry per-iteration simulated
//     time, wall time and test accuracy like the distributed ones.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "runner/harness.hpp"
#include "runner/options.hpp"

namespace nadmm::runner {

enum class SolverKind { kDistributed, kSingleNode };

/// Communication discipline of a distributed solver: synchronous solvers
/// meet at SimCluster barriers every round; asynchronous ones run on the
/// event engine (comm/async.hpp) and never barrier (or only every
/// --sync-every rounds). Single-node solvers have no discipline (kNone).
enum class CommClass { kSynchronous, kAsynchronous, kNone };

std::string to_string(SolverKind kind);
std::string to_string(CommClass comm_class);

struct SolverInfo {
  std::string name;
  SolverKind kind = SolverKind::kDistributed;
  std::string description;
  CommClass comm_class = CommClass::kNone;
  /// CLI knobs this solver actually reads (beyond the shared
  /// dataset/cluster flags). Names, not copies of the metadata: each
  /// must resolve through runner::describe_knob against the config field
  /// table, so the registry cannot drift from the flags.
  std::vector<std::string> knob_names;

  /// The knobs resolved to typed entries (type/default/description from
  /// the config field table). Throws InvalidArgument when a knob name is
  /// not a `nadmm run` config flag.
  [[nodiscard]] std::vector<OptionSpec> knobs() const;
  /// Comma-joined knob names, for compact table display.
  [[nodiscard]] std::string knobs_csv() const;
};

/// Factory signature shared by both families: every solver receives the
/// pre-sharded experiment data (one RankData per rank, planned by the
/// harness — no solver re-shards). Single-node solvers ignore the
/// cluster (they build a one-rank one) and read the one-part plan's
/// whole split, but keep the uniform signature so callers need no
/// special cases.
using SolverFactory = std::function<core::RunResult(
    comm::SimCluster&, const data::ShardedDataset&, const ExperimentConfig&)>;

class SolverRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in solvers.
  static SolverRegistry& instance();

  /// Register a solver; throws InvalidArgument on duplicate names.
  void add(SolverInfo info, SolverFactory factory);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Metadata for `name`; throws InvalidArgument (listing the known
  /// names) when unknown.
  [[nodiscard]] const SolverInfo& info(const std::string& name) const;

  /// All registered solvers, sorted by name.
  [[nodiscard]] std::vector<SolverInfo> list() const;

  /// Resolve `name` and run it on pre-sharded data. Throws
  /// InvalidArgument for unknown names.
  core::RunResult run(const std::string& name, comm::SimCluster& cluster,
                      const data::ShardedDataset& data,
                      const ExperimentConfig& config) const;

 private:
  SolverRegistry();
  void register_builtins();

  std::map<std::string, std::pair<SolverInfo, SolverFactory>> solvers_;
};

/// Throws InvalidArgument, naming the solver and the knob, when `config`
/// sets a knob `solver` never reads: a link fault other than "none" on a
/// solver without the `fault` knob. Unregistered names pass (running
/// them reports the unknown solver).
void reject_unread_knobs(const std::string& solver,
                         const ExperimentConfig& config);

/// Machine-readable registry dump (`nadmm list --json`): every solver
/// with kind/class/description and its fully resolved knob entries.
std::string registry_json();

}  // namespace nadmm::runner
