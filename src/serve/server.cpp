#include "serve/server.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "comm/async.hpp"
#include "la/dense_matrix.hpp"
#include "la/flops.hpp"
#include "model/softmax.hpp"
#include "serve/arrival.hpp"
#include "serve/batching.hpp"
#include "serve/quantile.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::serve {

namespace {

constexpr int kGenerator = 0;
constexpr int kServer = 1;
constexpr int kTickTag = 1;     // generator self-timer: emit next request
constexpr int kRequestTag = 2;  // generator → server: one request
constexpr int kDoneTag = 3;     // generator → server: stream exhausted
constexpr int kFlushTag = 4;    // server self-timer: deadline flush

struct Pending {
  std::uint64_t id;
  double arrival_s;  // delivery time at the server
  std::size_t row;
};

/// Stage the batch's first `count` requests for scoring: their pool row
/// numbers into `row_list` and their labels. A sparse pool's rows are
/// also densified into the `rows` panel; a dense pool's are scored where
/// they lie (la::gemm_nn_rows). Either way the roofline is charged for
/// gathering the batch panel, the staging a device scoring the batch
/// would do: each row read and written once, and a sparse row's values
/// and indices read.
void gather_rows(const data::Dataset& pool, const std::deque<Pending>& queue,
                 std::size_t count, la::DenseMatrix& rows,
                 std::vector<std::size_t>& row_list,
                 std::vector<std::int32_t>& labels) {
  const std::size_t p = pool.num_features();
  const auto pool_labels = pool.labels();
  std::uint64_t moved = 0;
  for (std::size_t i = 0; i < count; ++i) {
    row_list[i] = queue[i].row;
    labels[i] = pool_labels[queue[i].row];
  }
  if (pool.is_sparse()) {
    const la::CsrView view = pool.csr_view();
    const auto rp = view.row_ptr();
    const auto cols = view.col_idx();
    const auto vals = view.values();
    rows.fill(0.0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t r = row_list[i];
      auto out = rows.row(i);
      for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
        out[static_cast<std::size_t>(cols[k])] = vals[k];
      }
      moved += static_cast<std::uint64_t>(rp[r + 1] - rp[r]) * 16 + p * 8;
    }
  } else {
    moved = count * p * 16;
  }
  nadmm::flops::add_bytes(moved);
}

}  // namespace

ServeResult simulate(const SavedModel& model, const data::Dataset& pool,
                     const ServeConfig& config) {
  NADMM_CHECK(!pool.empty(), "serving needs a non-empty request pool");
  NADMM_CHECK(pool.num_features() == model.num_features,
              "request pool has " + std::to_string(pool.num_features()) +
                  " features but the model expects " +
                  std::to_string(model.num_features));
  NADMM_CHECK(pool.num_classes() == model.num_classes,
              "request pool has " + std::to_string(pool.num_classes()) +
                  " classes but the model expects " +
                  std::to_string(model.num_classes));
  NADMM_CHECK(config.dispatch_overhead_s >= 0.0,
              "dispatch overhead must be >= 0 seconds");

  const auto arrival = make_arrival(config.arrival);
  const auto policy = make_batch_policy(config.batch);
  const auto stream = make_request_stream(*arrival, config.requests,
                                          pool.num_samples(), config.seed);

  const std::size_t p = model.num_features;
  const std::size_t c = model.coef_cols();
  NADMM_CHECK(model.x.size() == p * c,
              "model coefficient count does not match features × classes");
  const la::DenseMatrix coef(p, c, model.x);
  const std::size_t cap = policy->max_batch();

  // --- server state, mutated only by the single-threaded event loop ----
  std::deque<Pending> queue;
  QuantileSketch sketch;
  double finish_time = 0.0;
  std::uint64_t served = 0, batches = 0, deadline_flushes = 0, correct = 0;
  std::uint64_t max_batch_seen = 0;
  bool draining = false;
  constexpr std::uint64_t kNoTimer = ~0ull;
  std::uint64_t timer_armed_for = kNoTimer;
  std::size_t next_request = 0;  // generator cursor into `stream`

  // The densified batch panel, for a sparse pool only.
  la::DenseMatrix rows(pool.is_sparse() ? cap : 0, p);
  la::DenseMatrix scores(cap, c);  // resized per batch, never reallocated
  std::vector<std::size_t> row_list(cap);
  std::vector<std::int32_t> labels(cap);

  auto dispatch = [&](comm::AsyncRank& rank) {
    TELEM_SPAN("serve", "batch_dispatch");
    telem::count("batches_dispatched");
    const std::size_t b = std::min(queue.size(), cap);
    gather_rows(pool, queue, b, rows, row_list, labels);
    scores.resize(b, c);
    if (pool.is_sparse()) {
      la::gemm_nn(1.0, rows.view(0, b), coef, 0.0, scores);
    } else {
      la::gemm_nn_rows(1.0, pool.dense_view(), {row_list.data(), b}, coef,
                       0.0, scores);
    }
    for (std::size_t i = 0; i < b; ++i) {
      correct += model::predict_class(scores.row(i)) == labels[i] ? 1 : 0;
    }
    rank.clock().add_compute(config.dispatch_overhead_s);
    rank.clock().sync_compute();
    const double done_t = rank.now();
    finish_time = done_t;
    for (std::size_t i = 0; i < b; ++i) {
      sketch.add(done_t - queue[i].arrival_s);
    }
    queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(b));
    served += b;
    ++batches;
    max_batch_seen = std::max<std::uint64_t>(max_batch_seen, b);
  };

  auto arm_timer = [&](comm::AsyncRank& rank) {
    if (draining || queue.empty() || policy->max_delay() < 0.0) return;
    if (timer_armed_for == queue.front().id) return;
    timer_armed_for = queue.front().id;
    const double fire_at = queue.front().arrival_s + policy->max_delay();
    rank.send_self(kFlushTag, std::max(0.0, fire_at - rank.now()),
                   {static_cast<double>(timer_armed_for)});
  };

  auto pump = [&](comm::AsyncRank& rank) {
    while (!queue.empty() && (draining || policy->ready(queue.size()))) {
      dispatch(rank);
    }
    arm_timer(rank);
  };

  const auto on_start = [&](comm::AsyncRank& rank) {
    if (rank.rank() != kGenerator) return;
    if (stream.empty()) {
      rank.send(kServer, kDoneTag, {});
      rank.halt();
      return;
    }
    rank.send_self(kTickTag, stream[0].arrival_s);
  };

  const auto on_message = [&](comm::AsyncRank& rank,
                              const comm::AsyncMessage& m) {
    if (rank.rank() == kGenerator) {
      if (m.tag != kTickTag) return;
      const Request& r = stream[next_request];
      rank.send(kServer, kRequestTag,
                {static_cast<double>(r.id), static_cast<double>(r.row)});
      ++next_request;
      if (next_request < stream.size()) {
        rank.send_self(kTickTag,
                       std::max(0.0, stream[next_request].arrival_s -
                                         rank.now()));
      } else {
        rank.send(kServer, kDoneTag, {});
        rank.halt();
      }
      return;
    }
    switch (m.tag) {
      case kRequestTag: {
        Pending pending;
        pending.id = static_cast<std::uint64_t>(m.payload[0]);
        pending.arrival_s = m.delivery_time;
        pending.row = static_cast<std::size_t>(m.payload[1]);
        queue.push_back(pending);
        pump(rank);
        break;
      }
      case kFlushTag: {
        // Stale when the armed head was already dispatched by a size or
        // drain trigger — the queue front moved past it.
        const auto armed = static_cast<std::uint64_t>(m.payload[0]);
        if (!queue.empty() && queue.front().id == armed) {
          ++deadline_flushes;
          dispatch(rank);
        }
        if (timer_armed_for == armed) timer_armed_for = kNoTimer;
        pump(rank);
        break;
      }
      case kDoneTag: {
        draining = true;
        pump(rank);
        rank.halt();
        break;
      }
      default: break;
    }
  };

  comm::AsyncEngine engine(
      {la::cpu_device(), la::device_from_string(config.device)},
      comm::network_from_string(config.network), config.omp_threads);
  const auto reports = engine.run(on_start, on_message);
  if (served != stream.size()) {
    throw RuntimeError("serving answered " + std::to_string(served) + " of " +
                       std::to_string(stream.size()) + " requests");
  }

  ServeResult result;
  result.arrival = arrival->name();
  result.batch = policy->name();
  result.requests = served;
  result.batches = batches;
  result.deadline_flushes = deadline_flushes;
  result.total_sim_seconds = finish_time;
  result.max_batch_seen = max_batch_seen;
  result.server_compute_seconds = reports[kServer].compute_seconds;
  result.server_wait_seconds = reports[kServer].wait_seconds;
  if (served > 0) {
    result.throughput_rps =
        finish_time > 0.0 ? static_cast<double>(served) / finish_time : 0.0;
    result.mean_batch =
        static_cast<double>(served) / static_cast<double>(batches);
    result.mean_latency_s = sketch.mean();
    result.p50_latency_s = sketch.quantile(0.50);
    result.p99_latency_s = sketch.quantile(0.99);
    result.p999_latency_s = sketch.quantile(0.999);
    result.max_latency_s = sketch.max();
    result.accuracy =
        static_cast<double>(correct) / static_cast<double>(served);
  }
  return result;
}

}  // namespace nadmm::serve
