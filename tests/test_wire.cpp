// Wire codec, fault-spec parsing, and fault-model determinism.
//
// The codec tests pin the byte layout (the header comment in
// comm/wire.hpp is a contract, not documentation) and the rejection
// paths a receiver relies on: truncation, bad magic, wrong version,
// length mismatch, and checksum failure must all throw with a message
// naming the violation, and a seeded fuzzer holds every mutant to
// "decodes or throws RuntimeError". The fault-model tests pin the
// fixed-draw discipline that keeps faulty runs byte-deterministic.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "comm/wire.hpp"
#include "helpers.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"

namespace {

using namespace nadmm;
using comm::wire::Frame;
using comm::wire::FrameKind;

Frame data_frame(std::vector<double> payload) {
  Frame f;
  f.kind = FrameKind::kData;
  f.from = 2;
  f.to = 0;
  f.tag = 7;
  f.link_seq = 41;
  f.payload = std::move(payload);
  return f;
}

TEST(WireCodec, RoundTripsHeaderAndPayload) {
  const Frame f = data_frame({1.0, -2.5, 3.25});
  const auto bytes = comm::wire::encode(f);
  ASSERT_EQ(bytes.size(), comm::wire::frame_bytes(3));

  const Frame g = comm::wire::decode(bytes);
  EXPECT_EQ(g.kind, FrameKind::kData);
  EXPECT_EQ(g.from, 2);
  EXPECT_EQ(g.to, 0);
  EXPECT_EQ(g.tag, 7);
  EXPECT_EQ(g.link_seq, 41u);
  EXPECT_EQ(g.payload, f.payload);
}

TEST(WireCodec, ZeroLengthPayloadRoundTrips) {
  Frame f = data_frame({});
  f.kind = FrameKind::kAck;
  f.link_seq = 0;
  const auto bytes = comm::wire::encode(f);
  ASSERT_EQ(bytes.size(), comm::wire::kHeaderBytes);
  const Frame g = comm::wire::decode(bytes);
  EXPECT_EQ(g.kind, FrameKind::kAck);
  EXPECT_TRUE(g.payload.empty());
  EXPECT_EQ(g.link_seq, 0u);
}

TEST(WireCodec, MaxTagAndSeqSurvive) {
  Frame f = data_frame({0.0});
  f.tag = std::numeric_limits<int>::max();
  f.link_seq = std::numeric_limits<std::uint64_t>::max();
  const Frame g = comm::wire::decode(comm::wire::encode(f));
  EXPECT_EQ(g.tag, std::numeric_limits<int>::max());
  EXPECT_EQ(g.link_seq, std::numeric_limits<std::uint64_t>::max());
}

TEST(WireCodec, NonFiniteAndDenormalDoublesAreBitExact) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Frame f = data_frame({denormal, -denormal, inf, -inf, nan, -0.0});
  const Frame g = comm::wire::decode(comm::wire::encode(f));
  ASSERT_EQ(g.payload.size(), f.payload.size());
  for (std::size_t i = 0; i < f.payload.size(); ++i) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &f.payload[i], sizeof(a));
    std::memcpy(&b, &g.payload[i], sizeof(b));
    EXPECT_EQ(a, b) << "payload[" << i << "] not bit-exact";
  }
}

TEST(WireCodec, HeaderLayoutIsLittleEndianAtFixedOffsets) {
  const Frame f = data_frame({1.0});
  const auto bytes = comm::wire::encode(f);
  // magic "NADM" little-endian at offset 0.
  EXPECT_EQ(bytes[0], 'N');
  EXPECT_EQ(bytes[1], 'A');
  EXPECT_EQ(bytes[2], 'D');
  EXPECT_EQ(bytes[3], 'M');
  // version 1 at offset 4, kind kData at offset 6.
  EXPECT_EQ(bytes[4], 1);
  EXPECT_EQ(bytes[5], 0);
  EXPECT_EQ(bytes[6], 0);
  EXPECT_EQ(bytes[7], 0);
  // from=2 at offset 8, to=0 at 12, tag=7 at 16, reserved zero at 20.
  EXPECT_EQ(bytes[8], 2);
  EXPECT_EQ(bytes[12], 0);
  EXPECT_EQ(bytes[16], 7);
  EXPECT_EQ(bytes[20], 0);
  // link_seq=41 at offset 24, payload_len=1 at 32.
  EXPECT_EQ(bytes[24], 41);
  EXPECT_EQ(bytes[32], 1);
}

TEST(WireCodec, TruncatedHeaderRejectedPrecisely) {
  const auto bytes = comm::wire::encode(data_frame({1.0}));
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 20);
  try {
    static_cast<void>(comm::wire::decode(cut));
    FAIL() << "truncated header accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, TruncatedPayloadRejectedPrecisely) {
  auto bytes = comm::wire::encode(data_frame({1.0, 2.0}));
  bytes.resize(bytes.size() - 8);  // drop the last double
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "truncated payload accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("length mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, BadMagicRejected) {
  auto bytes = comm::wire::encode(data_frame({1.0}));
  bytes[0] ^= 0xFF;
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "bad magic accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, UnsupportedVersionRejected) {
  auto bytes = comm::wire::encode(data_frame({1.0}));
  bytes[4] = 9;  // version field, offset 4
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "wrong version accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, FlippedPayloadBitFailsChecksum) {
  auto bytes = comm::wire::encode(data_frame({1.0, 2.0}));
  bytes[comm::wire::kHeaderBytes + 3] ^= 0x10;
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "corrupted payload accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, FlippedHeaderBitFailsChecksum) {
  auto bytes = comm::wire::encode(data_frame({1.0}));
  bytes[17] ^= 0x01;  // inside the tag field
  EXPECT_THROW(static_cast<void>(comm::wire::decode(bytes)), RuntimeError);
}

/// Overwrite the checksum field with the one the encoder would write
/// (comm/wire.hpp: FNV-1a words over bytes [0, 40), then the payload).
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::span<const std::uint8_t> all(bytes);
  const std::uint64_t sum = binio::fnv1a_words(
      all.subspan(comm::wire::kHeaderBytes),
      binio::fnv1a_words(all.subspan(0, 40)));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[40 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

// Jepsen-style decoder fuzzing: every mutated frame either decodes or
// throws RuntimeError. Half the mutants get a fresh checksum, as a peer
// with a broken encoder would send them, so the checks behind the
// checksum (magic, version, kind, length) see mutants too. A decoded
// mutant must re-encode to its own bytes, apart from the reserved
// field (ignored on decode) and the checksum.
TEST(WireCodec, MutatedFramesDecodeOrThrowRuntimeError) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto valid = comm::wire::encode(data_frame(
      {1.0, -0.0, inf, std::numeric_limits<double>::quiet_NaN(),
       std::numeric_limits<double>::denorm_min(), -3.25}));
  const std::string alphabet("\x00\x01\x02\x07\x29\x30\x4e\x80\xff", 9);
  constexpr std::uint64_t kFirstSeed = 0x3a1ef00d;
  constexpr std::uint64_t kTrials = 20000;
  std::size_t decoded = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kTrials; ++seed) {
    const std::string text = test::mutate(
        std::string(valid.begin(), valid.end()), seed, alphabet);
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    if (seed % 2 == 1 && bytes.size() >= comm::wire::kHeaderBytes) {
      reseal(bytes);
    }
    Frame got;
    try {
      got = comm::wire::decode(bytes);
    } catch (const RuntimeError&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": untyped " << e.what();
    }
    ++decoded;
    ASSERT_LE(static_cast<std::uint16_t>(got.kind),
              static_cast<std::uint16_t>(FrameKind::kNack))
        << "seed " << seed;
    const auto again = comm::wire::encode(got);
    ASSERT_EQ(again.size(), bytes.size()) << "seed " << seed;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if ((i >= 20 && i < 24) || (i >= 40 && i < 48)) continue;
      ASSERT_EQ(again[i], bytes[i]) << "seed " << seed << " byte " << i;
    }
  }
  // The mix must exercise both outcomes, or the fuzzer tests nothing.
  EXPECT_GT(decoded, kTrials / 50);
  EXPECT_LT(decoded, kTrials);
}

// ---------------------------------------------------------------------------
// FaultSpec parsing.
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesSubsetsInAnyOrder) {
  const auto s = comm::FaultSpec::parse("dup:0.02,drop:0.05");
  EXPECT_DOUBLE_EQ(s.drop, 0.05);
  EXPECT_DOUBLE_EQ(s.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(s.reorder, 0.0);
  EXPECT_DOUBLE_EQ(s.corrupt, 0.0);
  EXPECT_TRUE(s.any());
}

TEST(FaultSpec, NoneAndEmptyAreCleanLinks) {
  EXPECT_FALSE(comm::FaultSpec::parse("none").any());
  EXPECT_FALSE(comm::FaultSpec::parse("").any());
}

TEST(FaultSpec, PlusJoinsClausesForSweepAxisEntries) {
  const auto s = comm::FaultSpec::parse("drop:0.1+reorder:0.03");
  EXPECT_DOUBLE_EQ(s.drop, 0.1);
  EXPECT_DOUBLE_EQ(s.reorder, 0.03);
}

TEST(FaultSpec, RejectsUnknownKindBadNumberAndOutOfRange) {
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("lose:0.1")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("drop:zero")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("drop:1.5")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("drop")),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// FaultModel determinism.
// ---------------------------------------------------------------------------

TEST(FaultModel, SameSeedAndLinkReplaysIdenticalDecisions) {
  const auto spec = comm::FaultSpec::parse("drop:0.2,dup:0.1,reorder:0.1");
  comm::FaultModel a(spec, 42, 1, 0);
  comm::FaultModel b(spec, 42, 1, 0);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.next(1e-3);
    const auto db = b.next(1e-3);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_DOUBLE_EQ(da.delay, db.delay);
    EXPECT_DOUBLE_EQ(da.dup_delay, db.dup_delay);
    EXPECT_EQ(da.corrupt_bit, db.corrupt_bit);
  }
}

TEST(FaultModel, LinksDrawIndependentStreams) {
  const auto spec = comm::FaultSpec::parse("drop:0.5");
  comm::FaultModel ab(spec, 42, 0, 1);
  comm::FaultModel ba(spec, 42, 1, 0);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (ab.next(1e-3).drop != ba.next(1e-3).drop) ++differing;
  }
  EXPECT_GT(differing, 0) << "reverse link mirrors the forward link";
}

TEST(FaultModel, DrawCountIsFixedRegardlessOfOutcomes) {
  // A model that never fires and one that always drops must consume the
  // same number of uniforms per decision: after N decisions each, a
  // third model seeded identically to the first must still agree with
  // it. (If firing consumed extra draws, the streams would diverge.)
  const auto never = comm::FaultSpec::parse("none");
  const auto always = comm::FaultSpec::parse("drop:1.0");
  comm::FaultModel quiet(never, 7, 0, 1);
  comm::FaultModel noisy(always, 7, 0, 1);
  for (int i = 0; i < 50; ++i) {
    static_cast<void>(quiet.next(1e-3));
    const auto d = noisy.next(1e-3);
    EXPECT_TRUE(d.drop);
  }
  // Both consumed 50 decisions; replay decision 51 on fresh models and
  // the underlying streams must line up with a 51-step fresh run.
  comm::FaultModel fresh(always, 7, 0, 1);
  comm::FaultDecision last;
  for (int i = 0; i < 51; ++i) last = fresh.next(1e-3);
  const auto next_noisy = noisy.next(1e-3);
  EXPECT_EQ(last.drop, next_noisy.drop);
  EXPECT_DOUBLE_EQ(last.delay, next_noisy.delay);
  EXPECT_EQ(last.corrupt_bit, next_noisy.corrupt_bit);
}

// ---------------------------------------------------------------------------
// binio bounds checking (the checkpoint reader's failure mode).
// ---------------------------------------------------------------------------

TEST(ByteReader, TruncationNamesTheMissingField) {
  binio::ByteWriter w;
  w.put_u64(3);
  const auto bytes = w.take();
  binio::ByteReader r(bytes, "test blob");
  EXPECT_EQ(r.get_u64(), 3u);
  try {
    static_cast<void>(r.get_f64());
    FAIL() << "read past the end accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("test blob"), std::string::npos)
        << e.what();
  }
}

TEST(ByteReader, GetRawIsBoundsChecked) {
  binio::ByteWriter w;
  w.put_u64(7);
  const auto bytes = w.take();
  binio::ByteReader r(bytes, "raw blob");
  EXPECT_EQ(r.get_raw(8).size(), 8u);
  EXPECT_THROW(static_cast<void>(r.get_raw(1)), RuntimeError);
}

TEST(ByteReader, ExpectEndRejectsTrailingBytes) {
  binio::ByteWriter w;
  w.put_u32(1);
  const auto bytes = w.take();
  binio::ByteReader r(bytes, "trailing blob");
  EXPECT_THROW(r.expect_end(), RuntimeError);
}

}  // namespace
