// Wire-layer throughput for the fault-tolerant channel.
//
// Two engine-vs-seed pairs feed BENCH_wire.json through the CI
// perf-smoke gate (tools/perf_smoke.py):
//
//   BM_WireCodec_{Engine,Seed}/N — encode+decode one data frame with N
//   payload doubles. The engine is the shipping codec (comm/wire.hpp:
//   bulk little-endian writes through support/binio.hpp); the seed is a
//   byte-at-a-time reference codec producing the identical layout, the
//   naive implementation the bulk writer replaced. The /N argument is a
//   payload size, not a thread count.
//
//   BM_ChannelLoss_{Engine,Seed}/loss_pct:P — drive a fixed request-response
//   workload through the async engine with the reliable channel at P%
//   frame loss (engine) vs the bare in-memory engine with no channel at
//   all (seed). The ratio is the wall-clock overhead of framing, acks,
//   timers, and retransmission at that loss rate — the channel's
//   bookkeeping cost, since virtual time is free. The argument is named,
//   so perf_smoke records P as the entry's param rather than threads.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "comm/async.hpp"
#include "comm/fault.hpp"
#include "comm/network_model.hpp"
#include "comm/wire.hpp"
#include "la/device.hpp"

namespace {

namespace comm = nadmm::comm;
namespace wire = nadmm::comm::wire;

wire::Frame make_frame(std::int64_t doubles) {
  wire::Frame f;
  f.kind = wire::FrameKind::kData;
  f.from = 3;
  f.to = 0;
  f.tag = 7;
  f.link_seq = 41;
  f.payload.resize(static_cast<std::size_t>(doubles));
  for (std::size_t i = 0; i < f.payload.size(); ++i) {
    f.payload[i] = 1e-3 * static_cast<double>(i % 101) - 0.05;
  }
  return f;
}

void BM_WireCodec_Engine(benchmark::State& state) {
  const wire::Frame frame = make_frame(state.range(0));
  for (auto _ : state) {
    std::vector<std::uint8_t> bytes = wire::encode(frame);
    wire::Frame back = wire::decode(bytes);
    benchmark::DoNotOptimize(back.payload.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(wire::frame_bytes(frame.payload.size())));
}

// ------------------------------------------------------------------
// Seed: a field-at-a-time, byte-at-a-time reference codec emitting the
// exact same layout (same magic, checksum, byte order) with scalar
// shifts instead of bulk memcpy — what a first straightforward
// implementation looks like before the binio bulk path.
// ------------------------------------------------------------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<std::uint8_t> reference_encode(const wire::Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(wire::frame_bytes(frame.payload.size()));
  put_u32(out, wire::kMagic);
  put_u16(out, wire::kWireVersion);
  put_u16(out, static_cast<std::uint16_t>(frame.kind));
  put_u32(out, static_cast<std::uint32_t>(frame.from));
  put_u32(out, static_cast<std::uint32_t>(frame.to));
  put_u32(out, static_cast<std::uint32_t>(frame.tag));
  put_u32(out, 0);  // reserved
  put_u64(out, frame.link_seq);
  put_u64(out, frame.payload.size());
  put_u64(out, 0);  // checksum placeholder
  for (const double d : frame.payload) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, 8);
    put_u64(out, bits);
  }
  std::uint64_t sum = fnv1a(out.data(), 40);
  sum = fnv1a(out.data() + wire::kHeaderBytes,
              out.size() - wire::kHeaderBytes, sum);
  for (int i = 0; i < 8; ++i) out[40 + std::size_t(i)] = std::uint8_t(sum >> (8 * i));
  return out;
}

wire::Frame reference_decode(const std::vector<std::uint8_t>& bytes) {
  wire::Frame f;
  const std::uint8_t* p = bytes.data();
  f.kind = static_cast<wire::FrameKind>(p[6] | (std::uint16_t(p[7]) << 8));
  f.from = int(p[8] | (std::uint32_t(p[9]) << 8) | (std::uint32_t(p[10]) << 16) |
               (std::uint32_t(p[11]) << 24));
  f.to = int(p[12] | (std::uint32_t(p[13]) << 8) | (std::uint32_t(p[14]) << 16) |
             (std::uint32_t(p[15]) << 24));
  f.tag = int(p[16] | (std::uint32_t(p[17]) << 8) | (std::uint32_t(p[18]) << 16) |
              (std::uint32_t(p[19]) << 24));
  f.link_seq = get_u64(p + 24);
  const std::uint64_t len = get_u64(p + 32);
  std::uint8_t header[wire::kHeaderBytes];
  std::memcpy(header, p, wire::kHeaderBytes);
  std::memset(header + 40, 0, 8);
  std::uint64_t sum = fnv1a(header, 40);
  sum = fnv1a(p + wire::kHeaderBytes, bytes.size() - wire::kHeaderBytes, sum);
  if (sum != get_u64(p + 40)) f.tag = -1;  // mirror the checksum check
  f.payload.resize(static_cast<std::size_t>(len));
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t bits = get_u64(p + wire::kHeaderBytes + 8 * i);
    std::memcpy(&f.payload[i], &bits, 8);
  }
  return f;
}

void BM_WireCodec_Seed(benchmark::State& state) {
  const wire::Frame frame = make_frame(state.range(0));
  for (auto _ : state) {
    std::vector<std::uint8_t> bytes = reference_encode(frame);
    wire::Frame back = reference_decode(bytes);
    benchmark::DoNotOptimize(back.payload.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(wire::frame_bytes(frame.payload.size())));
}

// ------------------------------------------------------------------
// Channel overhead under loss: fixed ping-pong workload, wall time of
// the whole simulated run. Virtual time is free, so items/s measures
// the channel's bookkeeping (framing, acks, timers, retransmits).
// ------------------------------------------------------------------

constexpr int kPings = 64;
constexpr std::size_t kPingDoubles = 256;

std::uint64_t run_pingpong(bool channel, double loss) {
  comm::NetworkModel net{"bench", 1e-4, 1e8};
  comm::AsyncEngine engine({{"a", 1.0}, {"b", 1.0}}, net, /*omp_threads=*/1);
  if (channel) {
    comm::FaultSpec spec;
    if (loss > 0.0) {
      spec = comm::FaultSpec::parse("drop:" + std::to_string(loss));
    }
    engine.set_faults(spec, /*seed=*/23);
  }
  engine.run(
      [](comm::AsyncRank& ctx) {
        if (ctx.rank() == 0) {
          ctx.send(1, /*tag=*/0, std::vector<double>(kPingDoubles, 1.0));
        }
      },
      [](comm::AsyncRank& ctx, const comm::AsyncMessage& msg) {
        if (msg.tag >= kPings) return;
        ctx.send(msg.from, msg.tag + 1,
                 std::vector<double>(kPingDoubles, double(msg.tag)));
      });
  return engine.messages_delivered();
}

void BM_ChannelLoss_Engine(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    delivered = run_pingpong(/*channel=*/true, loss);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}

void BM_ChannelLoss_Seed(benchmark::State& state) {
  // Bare engine: same app workload, no framing, no channel. The loss
  // argument is unused (the seed has no loss knob) but kept so the
  // perf-smoke gate pairs each loss level with its baseline.
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    delivered = run_pingpong(/*channel=*/false, 0.0);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}

}  // namespace

BENCHMARK(BM_WireCodec_Engine)->Arg(16)->Arg(1024)->Arg(16384);
BENCHMARK(BM_WireCodec_Seed)->Arg(16)->Arg(1024)->Arg(16384);
BENCHMARK(BM_ChannelLoss_Engine)->ArgName("loss_pct")->Arg(0)->Arg(1)->Arg(5);
BENCHMARK(BM_ChannelLoss_Seed)->ArgName("loss_pct")->Arg(0)->Arg(1)->Arg(5);

BENCHMARK_MAIN();
