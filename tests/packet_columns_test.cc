// Unit + property tests for the columnar capture layout and its SIMD kernels.
//
// Three layers are locked in here:
//   1. Builder identity: PacketColumns::Build reproduces exactly the flow
//      order, per-flow packet order, SNI and downlink totals of the naive
//      oracle's split flows — on hand-written edge cases (empty trace,
//      single-packet flows, interleaved 5-tuples, SNI on a non-first packet)
//      and on seeded random traces.
//   2. Kernel identity: every cold-path column kernel returns bit-identical
//      results on every supported backend vs a plain scalar reference, over
//      adversarial lengths (0..17 straddle every vector width) and INT64
//      extremes.
//   3. Stage identity: classification, DetectRequests, EstimateExchanges,
//      EstimateDownlinkBytes and SplitIntoGroups over columns match the
//      oracle (tests/naive_oracle.h) field for field, per backend, on random
//      interleaved traces. (Testbed sessions and engine output live in
//      cold_path_differential_test.)

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/capture/packet_columns.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "tests/naive_oracle.h"

namespace csi::capture {
namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// Restores the pre-test dispatch choice even when an assertion fails
// mid-test; ForceBackend is process-wide state.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::ForceBackend(saved_); }

 private:
  simd::Backend saved_;
};

std::vector<simd::Backend> AllSupportedBackends() {
  std::vector<simd::Backend> backends{simd::Backend::kScalar};
  for (simd::Backend b :
       {simd::Backend::kSse2, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::BackendSupported(b)) {
      backends.push_back(b);
    }
  }
  return backends;
}

PacketRecord MakePacket(TimeUs ts, uint16_t client_port, bool from_client,
                        Bytes payload, net::Transport transport = net::Transport::kUdp,
                        std::string sni = "") {
  PacketRecord r;
  r.timestamp = ts;
  r.from_client = from_client;
  r.transport = transport;
  r.client_ip = 0x0a000001;
  r.server_ip = 0xc0a80001;
  r.client_port = client_port;
  r.server_port = 443;
  r.payload = payload;
  r.wire_size = payload + 40;
  r.tcp_seq = static_cast<uint64_t>(ts) * 7;
  r.tcp_ack = static_cast<uint64_t>(ts) * 3;
  r.quic_packet_number = static_cast<uint64_t>(ts) / 10;
  r.sni = std::move(sni);
  return r;
}

// A random capture with heavy flow interleaving: few distinct 5-tuples,
// occasional duplicate TCP sequence numbers (retransmissions), SNI sometimes
// appearing mid-flow, and both transports mixed.
CaptureTrace RandomTrace(Rng* rng, int packets) {
  CaptureTrace trace;
  const int flows = static_cast<int>(rng->UniformInt(1, 6));
  TimeUs now = 0;
  std::vector<uint64_t> last_seq(static_cast<size_t>(flows), 0);
  for (int i = 0; i < packets; ++i) {
    now += rng->UniformInt(0, 50 * kUsPerMs);
    const int f = static_cast<int>(rng->UniformInt(0, flows - 1));
    PacketRecord r;
    r.timestamp = now;
    r.from_client = rng->Chance(0.3);
    r.transport = (f % 2 == 0) ? net::Transport::kUdp : net::Transport::kTcp;
    r.client_ip = 0x0a000001;
    r.server_ip = 0xc0a80001 + static_cast<uint32_t>(f % 2);
    r.client_port = static_cast<uint16_t>(40000 + f);
    r.server_port = 443;
    r.payload = rng->Chance(0.15) ? 0 : rng->UniformInt(1, 1500);
    r.wire_size = r.payload + 40;
    // Duplicate sequence numbers now and then: the HTTPS estimator's
    // retransmission filter must behave identically over columns.
    if (rng->Chance(0.2) && last_seq[static_cast<size_t>(f)] != 0) {
      r.tcp_seq = last_seq[static_cast<size_t>(f)];
    } else {
      r.tcp_seq = rng->NextU64() % 100000;
      last_seq[static_cast<size_t>(f)] = r.tcp_seq;
    }
    r.tcp_ack = rng->NextU64() % 100000;
    r.quic_packet_number = static_cast<uint64_t>(i);
    if (rng->Chance(0.05)) {
      r.sni = (f % 2 == 0) ? "media.cdn.example" : "other.example";
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

// ---- Builder ---------------------------------------------------------------

TEST(PacketColumns, EmptyTrace) {
  const PacketColumns columns = PacketColumns::Build({});
  EXPECT_EQ(columns.packet_count(), 0u);
  EXPECT_EQ(columns.flow_count(), 0u);
}

TEST(PacketColumns, SingleFlowIsIdentityPermutation) {
  CaptureTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(MakePacket(i * 1000, 40000, i % 2 == 0, 100 + i));
  }
  const PacketColumns columns = PacketColumns::Build(trace);
  ASSERT_EQ(columns.packet_count(), trace.size());
  ASSERT_EQ(columns.flow_count(), 1u);
  EXPECT_EQ(columns.flow_begin(0), 0u);
  EXPECT_EQ(columns.flow_end(0), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(columns.timestamps()[i], trace[i].timestamp);
    EXPECT_EQ(columns.payloads()[i], trace[i].payload);
    EXPECT_EQ(columns.wire_sizes()[i], trace[i].wire_size);
    EXPECT_EQ(columns.tcp_seqs()[i], trace[i].tcp_seq);
    EXPECT_EQ(columns.tcp_acks()[i], trace[i].tcp_ack);
    EXPECT_EQ(columns.quic_packet_numbers()[i], trace[i].quic_packet_number);
    EXPECT_EQ(columns.from_client()[i] != 0, trace[i].from_client);
    EXPECT_EQ(columns.sni_at(i), trace[i].sni);
  }
}

// The reference: flow order, per-flow packet order, SNI and downlink totals
// (and every stage over them) must all match the oracle.
void ExpectMatchesOracle(const CaptureTrace& trace) {
  oracle::ExpectColumnarMatchesOracle(trace, "cdn.example");
}

TEST(PacketColumns, InterleavedFlowsMatchOracle) {
  CaptureTrace trace;
  // Three flows interleaved packet-by-packet; one is single-packet.
  trace.push_back(MakePacket(10, 40000, true, 120, net::Transport::kUdp, "a.example"));
  trace.push_back(MakePacket(20, 40001, false, 1400, net::Transport::kTcp));
  trace.push_back(MakePacket(30, 40002, true, 90));
  trace.push_back(MakePacket(40, 40000, false, 1300));
  trace.push_back(MakePacket(50, 40001, true, 200, net::Transport::kTcp, "b.example"));
  trace.push_back(MakePacket(60, 40000, false, 1200));
  ExpectMatchesOracle(trace);
}

TEST(PacketColumns, SniOnNonFirstPacket) {
  CaptureTrace trace;
  trace.push_back(MakePacket(10, 40000, true, 100));
  trace.push_back(MakePacket(20, 40000, true, 300, net::Transport::kUdp, "late.example"));
  trace.push_back(MakePacket(30, 40000, false, 1400));
  const PacketColumns columns = PacketColumns::Build(trace);
  ASSERT_EQ(columns.flow_count(), 1u);
  EXPECT_EQ(columns.flow_sni(0), "late.example");
  EXPECT_EQ(columns.sni_at(0), "");
  EXPECT_EQ(columns.sni_at(1), "late.example");
  ExpectMatchesOracle(trace);
}

TEST(PacketColumns, SniInternedOncePerDistinctName) {
  CaptureTrace trace;
  trace.push_back(MakePacket(10, 40000, true, 100, net::Transport::kUdp, "x.example"));
  trace.push_back(MakePacket(20, 40001, true, 100, net::Transport::kUdp, "x.example"));
  trace.push_back(MakePacket(30, 40002, true, 100, net::Transport::kUdp, "y.example"));
  const PacketColumns columns = PacketColumns::Build(trace);
  EXPECT_EQ(columns.sni_table().size(), 2u);
}

TEST(PacketColumns, RandomTracesMatchOracle) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(900 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 200))));
  }
}

// ---- Kernels ---------------------------------------------------------------

// Scalar references written independently of src/common/simd.cc.
int64_t RefSumInWindow(const std::vector<int64_t>& ts, const std::vector<int64_t>& v,
                       int64_t begin, int64_t end) {
  int64_t sum = 0;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] > begin && (end < 0 || ts[i] <= end)) {
      sum += v[i];
    }
  }
  return sum;
}

int64_t RefMaxTsInWindow(const std::vector<int64_t>& ts, const std::vector<uint8_t>& mask,
                         int64_t begin, int64_t end) {
  int64_t best = kInt64Min;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (mask[i] != 0 && ts[i] > begin && (end < 0 || ts[i] <= end) && ts[i] > best) {
      best = ts[i];
    }
  }
  return best;
}

struct KernelInput {
  std::vector<int64_t> ts;
  std::vector<int64_t> payload;
  std::vector<uint8_t> dir;
  std::vector<uint32_t> ids;
};

KernelInput RandomKernelInput(Rng* rng, size_t n, bool extremes) {
  KernelInput in;
  for (size_t i = 0; i < n; ++i) {
    if (extremes && rng->Chance(0.2)) {
      in.ts.push_back(rng->Chance(0.5) ? kInt64Max : kInt64Min);
      in.payload.push_back(rng->Chance(0.5) ? kInt64Max / 1024 : 0);
    } else {
      in.ts.push_back(rng->UniformInt(-1000, 100000));
      in.payload.push_back(rng->UniformInt(0, 2000));
    }
    in.dir.push_back(rng->Chance(0.4) ? 1 : 0);
    in.ids.push_back(static_cast<uint32_t>(rng->UniformInt(0, 4)));
  }
  return in;
}

TEST(SimdColumnKernels, AllBackendsMatchScalarReference) {
  BackendGuard guard;
  // 0..17 straddles every vector width (2/4-lane 64-bit) plus odd tails.
  std::vector<size_t> sizes(18);
  std::iota(sizes.begin(), sizes.end(), 0);
  sizes.push_back(63);
  sizes.push_back(64);
  sizes.push_back(257);
  for (const simd::Backend backend : AllSupportedBackends()) {
    ASSERT_TRUE(simd::ForceBackend(backend));
    SCOPED_TRACE(simd::BackendName(backend));
    Rng rng(31 + static_cast<uint64_t>(backend));
    for (const size_t n : sizes) {
      for (const bool extremes : {false, true}) {
        const KernelInput in = RandomKernelInput(&rng, n, extremes);
        const int64_t begin = extremes ? kInt64Min : rng.UniformInt(-10, 50000);
        const int64_t end =
            rng.Chance(0.3) ? -1 : (extremes ? kInt64Max : rng.UniformInt(begin, 100000));

        EXPECT_EQ(simd::SumInWindow(in.ts.data(), in.payload.data(), n, begin, end),
                  RefSumInWindow(in.ts, in.payload, begin, end))
            << "n=" << n;

        std::vector<int64_t> eff(n, -1);
        simd::MaskedQuicPayload(in.dir.data(), in.payload.data(), n, 13, eff.data());
        for (size_t i = 0; i < n; ++i) {
          const int64_t want =
              in.dir[i] != 0 ? 0 : std::max<int64_t>(in.payload[i] - 13, 0);
          ASSERT_EQ(eff[i], want) << "n=" << n << " i=" << i;
        }

        for (const uint8_t want : {uint8_t{0}, uint8_t{1}}) {
          int64_t ref = 0;
          for (size_t i = 0; i < n; ++i) {
            if (in.dir[i] == want) {
              ref += in.payload[i];
            }
          }
          EXPECT_EQ(simd::DirectionMaskedSum(in.dir.data(), want, in.payload.data(), n),
                    ref)
              << "n=" << n;

          const int64_t min_payload = extremes ? kInt64Max : 80;
          std::vector<uint32_t> out(n + 1, 0xdeadbeef);
          const size_t count = simd::CollectIndices(in.dir.data(), want,
                                                    in.payload.data(), min_payload, n,
                                                    out.data());
          std::vector<uint32_t> ref_idx;
          for (size_t i = 0; i < n; ++i) {
            if (in.dir[i] == want && in.payload[i] >= min_payload) {
              ref_idx.push_back(static_cast<uint32_t>(i));
            }
          }
          ASSERT_EQ(count, ref_idx.size()) << "n=" << n;
          for (size_t i = 0; i < count; ++i) {
            ASSERT_EQ(out[i], ref_idx[i]) << "n=" << n << " i=" << i;
          }
        }

        EXPECT_EQ(simd::MaxTsInWindow(in.ts.data(), in.dir.data(), n, begin, end),
                  RefMaxTsInWindow(in.ts, in.dir, begin, end))
            << "n=" << n;

        size_t ref_runs = n > 0 ? 1 : 0;
        for (size_t i = 1; i < n; ++i) {
          if (in.ids[i] != in.ids[i - 1]) {
            ++ref_runs;
          }
        }
        EXPECT_EQ(simd::CountRuns(in.ids.data(), n), ref_runs) << "n=" << n;
      }
    }
  }
}

// ---- Stage identity --------------------------------------------------------

TEST(PacketColumns, StageOutputsMatchOracleOnEveryBackend) {
  BackendGuard guard;
  for (const simd::Backend backend : AllSupportedBackends()) {
    ASSERT_TRUE(simd::ForceBackend(backend));
    SCOPED_TRACE(simd::BackendName(backend));
    for (uint64_t seed = 0; seed < 15; ++seed) {
      Rng rng(4400 + seed);
      SCOPED_TRACE("seed " + std::to_string(seed));
      ExpectMatchesOracle(RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 250))));
    }
  }
}

}  // namespace
}  // namespace csi::capture
