#include "runner/registry.hpp"

#include <algorithm>
#include <utility>

#include "model/softmax.hpp"
#include "solvers/first_order.hpp"
#include "solvers/newton.hpp"
#include "support/check.hpp"

namespace nadmm::runner {

namespace {

/// Run one of the single-node reference optimizers as a one-rank cluster
/// run on the config's single device, over the one-part plan's whole
/// split. Every iteration is recorded through core::EpochRecorder like
/// any cluster solver's epoch: simulated time is the device roofline over
/// the flops each iteration executed, and the recorder scores F(x) on the
/// paused clock through the objective's const value, so the next gradient
/// still pays for its own forward pass.
core::RunResult run_single_node(const std::string& name,
                                const data::ShardedDataset& data,
                                const ExperimentConfig& config) {
  NADMM_CHECK(data.parts() == 1, "single-node solver '" + name +
                                     "' needs a one-part shard plan");
  comm::SimCluster cluster(1, la::device_from_string(config.device),
                           comm::network_from_string(config.network),
                           config.omp_threads);
  core::RunResult r;
  r.solver = name;
  r.record_waits(cluster.run([&](comm::RankCtx& ctx) {
    ctx.clock().pause();
    const data::RankData& rd = data.ranks.front();
    model::SoftmaxObjective objective(rd.train, config.lambda);
    // λ lives in the objective, so the recorder adds none.
    core::EpochRecorder recorder(ctx, objective, /*lambda=*/0.0,
                                 data, config.evaluate_accuracy, r);
    ctx.clock().resume();

    const auto record = [&](int k, std::span<const double> x) {
      recorder.record(k, x);
    };
    std::vector<double> x0(objective.dim(), 0.0);
    if (name == "newton-cg") {
      solvers::NewtonOptions o;
      o.max_iterations = config.iterations;
      o.cg.max_iterations = config.cg_iterations;
      o.cg.rel_tol = config.cg_tol;
      o.line_search.max_iterations = config.line_search_iterations;
      if (config.gradient_tol >= 0.0) o.gradient_tol = config.gradient_tol;
      o.on_iteration = record;
      r.x = solvers::newton_cg(objective, std::move(x0), o).x;
    } else {
      solvers::FirstOrderOptions o;
      o.rule = solvers::first_order_rule_from_string(name);
      o.max_iterations = config.iterations;
      if (config.fo_step > 0.0) o.step_size = config.fo_step;
      if (config.gradient_tol >= 0.0) o.gradient_tol = config.gradient_tol;
      o.on_iteration = record;
      r.x = solvers::first_order_minimize(objective, std::move(x0), o).x;
    }
  }));
  return r;
}

SolverFactory single_node_factory(std::string name) {
  return [name = std::move(name)](comm::SimCluster& /*cluster*/,
                                  const data::ShardedDataset& data,
                                  const ExperimentConfig& config) {
    return run_single_node(name, data, config);
  };
}

}  // namespace

std::vector<OptionSpec> SolverInfo::knobs() const {
  std::vector<OptionSpec> out;
  out.reserve(knob_names.size());
  for (const auto& knob : knob_names) out.push_back(describe_knob(knob));
  return out;
}

std::string SolverInfo::knobs_csv() const {
  std::string out;
  for (const auto& knob : knob_names) {
    if (!out.empty()) out += ',';
    out += knob;
  }
  return out;
}

std::string to_string(SolverKind kind) {
  return kind == SolverKind::kDistributed ? "distributed" : "single-node";
}

std::string to_string(CommClass comm_class) {
  switch (comm_class) {
    case CommClass::kSynchronous: return "sync";
    case CommClass::kAsynchronous: return "async";
    case CommClass::kNone: break;
  }
  return "-";
}

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  return registry;
}

SolverRegistry::SolverRegistry() { register_builtins(); }

void SolverRegistry::add(SolverInfo info, SolverFactory factory) {
  NADMM_CHECK(!info.name.empty(), "solver name must not be empty");
  NADMM_CHECK(static_cast<bool>(factory), "solver factory must be callable");
  const std::string name = info.name;  // copy before moving `info`
  const auto [it, inserted] = solvers_.emplace(
      name, std::make_pair(std::move(info), std::move(factory)));
  static_cast<void>(it);
  if (!inserted) {
    throw InvalidArgument("solver '" + name + "' is already registered");
  }
}

bool SolverRegistry::contains(const std::string& name) const {
  return solvers_.count(name) != 0;
}

const SolverInfo& SolverRegistry::info(const std::string& name) const {
  const auto it = solvers_.find(name);
  if (it == solvers_.end()) {
    std::string known;
    for (const auto& [n, entry] : solvers_) {
      static_cast<void>(entry);
      if (!known.empty()) known += '|';
      known += n;
    }
    throw InvalidArgument("unknown solver '" + name + "' (expected " + known +
                          ")");
  }
  return it->second.first;
}

std::vector<SolverInfo> SolverRegistry::list() const {
  std::vector<SolverInfo> out;
  out.reserve(solvers_.size());
  for (const auto& [name, entry] : solvers_) {
    static_cast<void>(name);
    out.push_back(entry.first);
  }
  return out;  // std::map iteration is already name-sorted
}

core::RunResult SolverRegistry::run(const std::string& name,
                                    comm::SimCluster& cluster,
                                    const data::ShardedDataset& data,
                                    const ExperimentConfig& config) const {
  static_cast<void>(info(name));  // throws with the known names when unknown
  return solvers_.at(name).second(cluster, data, config);
}

void reject_unread_knobs(const std::string& solver,
                         const ExperimentConfig& config) {
  const auto& registry = SolverRegistry::instance();
  const bool fault = !config.fault.empty() && config.fault != "none";
  if (!fault || !registry.contains(solver)) return;
  const auto& knobs = registry.info(solver).knob_names;
  if (std::find(knobs.begin(), knobs.end(), "fault") == knobs.end()) {
    throw InvalidArgument("solver '" + solver + "' does not read fault ('" +
                          config.fault +
                          "' would run fault-free under a fault label); "
                          "use fault=none or a solver with a fault knob");
  }
}

std::string registry_json() {
  std::string json = "{\n  \"solvers\": [\n";
  const auto solvers = SolverRegistry::instance().list();
  for (std::size_t i = 0; i < solvers.size(); ++i) {
    const auto& s = solvers[i];
    json += "    {\"name\": \"" + json_escape(s.name) + "\", \"kind\": \"" +
            to_string(s.kind) + "\", \"class\": \"" +
            to_string(s.comm_class) + "\", \"description\": \"" +
            json_escape(s.description) + "\", \"knobs\": [";
    const auto knobs = s.knobs();
    for (std::size_t k = 0; k < knobs.size(); ++k) {
      json += std::string(k == 0 ? "" : ", ") + "{\"name\": \"" +
              json_escape(knobs[k].name) + "\", \"type\": \"" +
              to_string(knobs[k].type) +
              "\", \"default\": \"" + json_escape(knobs[k].default_value) +
              "\", \"description\": \"" + json_escape(knobs[k].help) +
              "\"}";
    }
    json += std::string("]}") + (i + 1 < solvers.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  return json;
}

void SolverRegistry::register_builtins() {
  using Knobs = std::vector<std::string>;
  const auto with = [](Knobs base, const Knobs& extra) {
    base.insert(base.end(), extra.begin(), extra.end());
    return base;
  };
  // Every distributed solver runs on a cluster built by make_cluster, so
  // the heterogeneity knobs apply to all of them.
  const Knobs cluster_knobs = {"device", "straggler", "partition"};
  const Knobs newton_knobs =
      with({"penalty", "rho0", "cg-iterations", "cg-tol",
            "line-search-iterations", "objective-target"},
           cluster_knobs);
  add({"newton-admm", SolverKind::kDistributed,
       "distributed Newton-CG with ADMM consensus (the paper's method)",
       CommClass::kSynchronous, newton_knobs},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        return core::newton_admm(cluster, data, admm_options(config));
      });
  add({"async-admm", SolverKind::kDistributed,
       "stale-consensus Newton-ADMM: coordinator merges updates on arrival",
       CommClass::kAsynchronous,
       with(newton_knobs,
            {"staleness", "fault", "kill", "checkpoint-every"})},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        return solvers::async_admm(cluster, data,
                                   async_options(config, /*stale_sync=*/false));
      });
  add({"stale-sync-admm", SolverKind::kDistributed,
       "semi-synchronous Newton-ADMM: barrier every --sync-every rounds",
       CommClass::kAsynchronous,
       with(newton_knobs,
            {"sync-every", "fault", "kill", "checkpoint-every"})},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        return solvers::async_admm(cluster, data,
                                   async_options(config, /*stale_sync=*/true));
      });
  add({"giant", SolverKind::kDistributed,
       "globally improved approximate Newton (Wang et al.)",
       CommClass::kSynchronous,
       with({"cg-iterations", "cg-tol", "line-search-iterations",
             "objective-target"},
            cluster_knobs)},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        return baselines::giant(cluster, data, giant_options(config));
      });
  add({"sync-sgd", SolverKind::kDistributed,
       "synchronous minibatch SGD (allreduced mean gradient)",
       CommClass::kSynchronous,
       with({"sgd-batch", "sgd-step"}, cluster_knobs)},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        return baselines::sync_sgd(cluster, data, sgd_options(config));
      });
  add({"inexact-dane", SolverKind::kDistributed,
       "InexactDANE with SVRG inner solves (Reddi et al.)",
       CommClass::kSynchronous,
       with({"dane-epochs", "svrg-outer"}, cluster_knobs)},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        return baselines::inexact_dane(cluster, data, dane_options(config));
      });
  add({"aide", SolverKind::kDistributed,
       "accelerated InexactDANE (catalyst smoothing)",
       CommClass::kSynchronous,
       with({"dane-epochs", "svrg-outer"}, cluster_knobs)},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        auto o = dane_options(config);
        o.accelerate = true;
        return baselines::inexact_dane(cluster, data, o);
      });
  add({"disco", SolverKind::kDistributed,
       "distributed self-concordant optimization (Zhang & Xiao)",
       CommClass::kSynchronous,
       with({"cg-iterations", "cg-tol"}, cluster_knobs)},
      [](comm::SimCluster& cluster, const data::ShardedDataset& data,
         const ExperimentConfig& config) {
        return baselines::disco(cluster, data, disco_options(config));
      });

  add({"newton-cg", SolverKind::kSingleNode,
       "single-node inexact Newton-CG (paper Algorithm 1)", CommClass::kNone,
       {"cg-iterations", "cg-tol", "line-search-iterations",
        "gradient-tol"}},
      single_node_factory("newton-cg"));
  add({"gd", SolverKind::kSingleNode, "single-node full-batch gradient descent",
       CommClass::kNone, {"fo-step", "gradient-tol"}},
      single_node_factory("gd"));
  add({"momentum", SolverKind::kSingleNode,
       "single-node heavy-ball momentum", CommClass::kNone,
       {"fo-step", "gradient-tol"}},
      single_node_factory("momentum"));
  add({"adagrad", SolverKind::kSingleNode, "single-node Adagrad",
       CommClass::kNone, {"fo-step", "gradient-tol"}},
      single_node_factory("adagrad"));
  add({"adam", SolverKind::kSingleNode, "single-node Adam", CommClass::kNone,
       {"fo-step", "gradient-tol"}},
      single_node_factory("adam"));
}

}  // namespace nadmm::runner
