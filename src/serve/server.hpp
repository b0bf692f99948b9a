// Virtual-time streaming inference server.
//
// Two ranks on the async event engine (comm/async.hpp): rank 0 replays a
// deterministic request schedule (serve/arrival.hpp) by timer, rank 1
// queues the requests, cuts batches under a pluggable policy
// (serve/batching.hpp), and scores each batch with one gemm
// (la::gemm_nn) and an argmax over its score rows (a prediction needs no
// softmax) on the configured device model. Batch compute is priced by the
// device roofline through the rank's SimClock — the gemm re-reads the
// coefficient panel per dispatch, so batching amortizes real bandwidth —
// plus a fixed per-dispatch overhead (kernel launch + result framing),
// the cost that makes the immediate-dispatch policy collapse under load.
// Latency is completion-clock minus delivery-time per request,
// accumulated in an online quantile sketch (serve/quantile.hpp).
//
// Everything — schedule, event order, kernel flops, clock arithmetic —
// is deterministic, so a serving scenario reports byte-identical numbers
// at any sweep --jobs level.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.hpp"
#include "serve/model_io.hpp"

namespace nadmm::serve {

struct ServeConfig {
  std::string arrival = "poisson:1000";  ///< serve/arrival.hpp spec
  std::string batch = "immediate";       ///< serve/batching.hpp spec
  std::size_t requests = 10'000;         ///< stream length
  std::uint64_t seed = 42;               ///< schedule seed
  std::string device = "p100";           ///< server device model
  std::string network = "ideal";         ///< request transport
  /// Fixed per-dispatch cost (kernel launch, result framing) charged to
  /// the server clock on top of the batch's roofline time — the term
  /// batching amortizes.
  double dispatch_overhead_s = 1e-4;
  int omp_threads = 1;  ///< handler compute threads
};

struct ServeResult {
  std::string arrival;  ///< canonical arrival spec served
  std::string batch;    ///< canonical batch-policy spec served
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t deadline_flushes = 0;  ///< dispatches cut by the timer
  double total_sim_seconds = 0.0;      ///< server clock at last completion
  double throughput_rps = 0.0;         ///< requests / total_sim_seconds
  double mean_batch = 0.0;
  std::uint64_t max_batch_seen = 0;
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double p999_latency_s = 0.0;
  double max_latency_s = 0.0;
  /// Served-prediction accuracy against the pool labels.
  double accuracy = 0.0;
  double server_compute_seconds = 0.0;
  double server_wait_seconds = 0.0;
};

/// Serve `config.requests` synthetic requests drawn from `pool` rows
/// against `model`. The pool's feature dimension and class count must
/// match the model. Throws InvalidArgument on mismatched shapes or
/// malformed specs, and RuntimeError when the run answers fewer requests
/// than the stream holds.
ServeResult simulate(const SavedModel& model, const data::Dataset& pool,
                     const ServeConfig& config);

}  // namespace nadmm::serve
