// Differential replay harness for the analysis-prefix cache.
//
// The cache's contract is absolute: inference output is byte-identical with
// the prefix cache on and off, for every design path, capture set, repeat
// schedule, and thread count — the cache may only change WHEN the per-packet
// stages run, never what they produce. This suite locks that down
// with seeded replay sweeps against cache-off references, fingerprint
// stability/collision tests, a live-refresh replay (entries must survive
// snapshot publishes — they are snapshot-independent), and a TSan'd hammer
// where concurrent BatchAnalyzers share one cache while a LiveChunkDatabase
// publishes refreshes under them.
//
// The seeded sweep honors CSI_TEST_SCHEDULES (tests/test_env.h): tier-1 CI
// runs the fast default, the scheduled deep-differential job raises it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/live_database.h"
#include "src/csi/prefix_cache.h"
#include "src/testbed/experiment.h"
#include "tests/inference_digest.h"
#include "tests/test_env.h"

namespace csi::infer {
namespace {

using testutil::DigestResults;
using testutil::MakeBatch;

capture::PacketRecord BasePacket() {
  capture::PacketRecord p;
  p.timestamp = 1000;
  p.from_client = true;
  p.transport = net::Transport::kUdp;
  p.client_ip = 0x0a000001;
  p.server_ip = 0xc0a80101;
  p.client_port = 51000;
  p.server_port = 443;
  p.payload = 1200;
  p.tcp_seq = 7;
  p.tcp_ack = 9;
  p.quic_packet_number = 3;
  p.sni = "v.example.com";
  return p;
}

// --- Fingerprint stability and sensitivity --------------------------------

TraceFingerprint Fingerprint(const capture::CaptureTrace& trace) {
  return FingerprintColumns(capture::PacketColumns::Build(trace));
}

TEST(TraceFingerprint, DeterministicAcrossCalls) {
  std::vector<capture::PacketRecord> records{BasePacket(), BasePacket(), BasePacket()};
  records[1].timestamp = 2000;
  records[2].timestamp = 3000;
  const capture::CaptureTrace trace(records.begin(), records.end());
  const TraceFingerprint a = Fingerprint(trace);
  const TraceFingerprint b = Fingerprint(trace);
  EXPECT_EQ(a, b);
  const capture::CaptureTrace copy = trace;
  EXPECT_EQ(Fingerprint(copy), a);
}

TEST(TraceFingerprint, EveryObserverVisibleFieldPerturbsIt) {
  const capture::CaptureTrace base{BasePacket()};
  const TraceFingerprint ref = Fingerprint(base);

  const auto mutated = [&](auto&& mutate) {
    capture::PacketRecord p = BasePacket();
    mutate(p);
    return Fingerprint({p});
  };
  EXPECT_NE(mutated([](auto& p) { p.timestamp += 1; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.from_client = false; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.transport = net::Transport::kTcp; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.client_ip += 1; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.server_ip += 1; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.client_port += 1; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.server_port += 1; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.payload += 1; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.tcp_seq += 1; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.sni = "w.example.com"; }), ref);
  EXPECT_NE(mutated([](auto& p) { p.sni.clear(); }), ref);

  // Packet count matters too.
  capture::CaptureTrace two{BasePacket(), BasePacket()};
  EXPECT_NE(Fingerprint(two), ref);
  capture::CaptureTrace empty;
  EXPECT_NE(Fingerprint(empty), ref);
}

// PacketColumns hold no TCP ack or QUIC packet number, and no stage reads
// them: a capture that differs only there has the same fingerprint, so it
// shares cache entries and gets the same analysis.
TEST(TraceFingerprint, FieldsOutsideTheColumnsLeaveItAndTheResultAlone) {
  const capture::CaptureTrace base{BasePacket()};
  const auto mutated = [&](auto&& mutate) {
    capture::PacketRecord p = BasePacket();
    mutate(p);
    return Fingerprint({p});
  };
  const TraceFingerprint ref = Fingerprint(base);
  EXPECT_EQ(mutated([](auto& p) { p.tcp_ack += 1; }), ref);
  EXPECT_EQ(mutated([](auto& p) { p.quic_packet_number += 1; }), ref);

  for (const DesignType design : {DesignType::kCH, DesignType::kSQ}) {
    SCOPED_TRACE(DesignTypeName(design));
    const media::Manifest manifest = testbed::MakeAssetForDesign(design, 1, 60 * kUsPerSec);
    const capture::CaptureTrace session =
        MakeBatch(manifest, design, 1, 60 * kUsPerSec).front();
    std::vector<capture::PacketRecord> records(session.begin(), session.end());
    for (capture::PacketRecord& p : records) {
      p.tcp_ack ^= 0x5a5a;
      p.quic_packet_number += 1000;
    }
    const capture::CaptureTrace other(records.begin(), records.end());
    EXPECT_EQ(Fingerprint(other), Fingerprint(session));

    InferenceConfig config;
    config.design = design;
    const InferenceEngine engine(&manifest, config);
    const InferenceResult result = engine.Analyze(session);
    ASSERT_FALSE(result.sequences.empty());
    EXPECT_EQ(DigestResults({engine.Analyze(other)}), DigestResults({result}));
  }
}

// PacketColumns hold only the packets that carry payload, plus each flow's
// last packet time. A capture that differs only in the timestamps and TCP
// sequence numbers of zero-payload packets (pure ACKs), other than each
// flow's last packet, has the same fingerprint and the same analysis; a
// different last packet time changes the fingerprint.
TEST(TraceFingerprint, PureAcksLeaveItAndTheResultAloneButTheLastPacketTimeCounts) {
  for (const DesignType design : {DesignType::kCH, DesignType::kSH}) {
    SCOPED_TRACE(DesignTypeName(design));
    const media::Manifest manifest = testbed::MakeAssetForDesign(design, 1, 60 * kUsPerSec);
    const capture::CaptureTrace session =
        MakeBatch(manifest, design, 1, 60 * kUsPerSec).front();
    std::vector<capture::PacketRecord> records(session.begin(), session.end());
    std::map<capture::FlowKey, size_t> last;
    for (size_t i = 0; i < records.size(); ++i) {
      last[FlowKeyOf(records[i])] = i;
    }
    std::vector<bool> is_last(records.size(), false);
    for (const auto& [key, i] : last) {
      is_last[i] = true;
    }
    size_t moved = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      capture::PacketRecord& p = records[i];
      if (p.payload == 0 && !is_last[i]) {
        p.timestamp += 7 + static_cast<TimeUs>(i % 500);
        p.tcp_seq ^= 0x5a5a5a;
        ++moved;
      }
    }
    // Pure ACKs are a large share of an HTTPS capture.
    ASSERT_GT(moved, records.size() / 4);
    const capture::CaptureTrace other(records.begin(), records.end());
    EXPECT_EQ(Fingerprint(other), Fingerprint(session));

    InferenceConfig config;
    config.design = design;
    const InferenceEngine engine(&manifest, config);
    const InferenceResult result = engine.Analyze(session);
    ASSERT_FALSE(result.sequences.empty());
    EXPECT_EQ(DigestResults({engine.Analyze(other)}), DigestResults({result}));

    // Each flow's last packet time is part of the key, also where that packet
    // carries no payload.
    ASSERT_TRUE(std::any_of(last.begin(), last.end(),
                            [&](const auto& flow) { return records[flow.second].payload == 0; }));
    for (const auto& [key, i] : last) {
      std::vector<capture::PacketRecord> later = records;
      later[i].timestamp += 1;
      EXPECT_NE(Fingerprint(capture::CaptureTrace(later.begin(), later.end())),
                Fingerprint(other))
          << "flow of packet " << i;
    }
  }
}

// Analysis reads one SNI string per flow, the first; a later packet only
// says that it carries an SNI. Which string that later packet carries changes
// neither the fingerprint nor the result.
TEST(TraceFingerprint, SniStringsAfterTheFlowsFirstLeaveItAndTheResultAlone) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCH, 1, 60 * kUsPerSec);
  const capture::CaptureTrace session =
      MakeBatch(manifest, DesignType::kCH, 1, 60 * kUsPerSec).front();
  // A client data packet well after the flow's ClientHello.
  size_t late = session.size() / 2;
  while (late < session.size() && (!session[late].from_client || session[late].payload == 0)) {
    ++late;
  }
  ASSERT_LT(late, session.size());
  ASSERT_TRUE(session[late].sni.empty());
  const auto with_late_sni = [&](const std::string& sni) {
    std::vector<capture::PacketRecord> records(session.begin(), session.end());
    records[late].sni = sni;
    return capture::CaptureTrace(records.begin(), records.end());
  };
  const capture::CaptureTrace a = with_late_sni("first.example");
  const capture::CaptureTrace b = with_late_sni("second.example");
  const capture::PacketColumns columns = capture::PacketColumns::Build(a);
  ASSERT_EQ(columns.flow_count(), 1u);
  ASSERT_FALSE(columns.flow_sni(0).empty());
  ASSERT_NE(columns.flow_sni(0), "first.example");
  EXPECT_EQ(Fingerprint(b), FingerprintColumns(columns));
  // Whether the packet carries an SNI at all still counts.
  EXPECT_NE(Fingerprint(session), FingerprintColumns(columns));

  InferenceConfig config;
  config.design = DesignType::kCH;
  const InferenceEngine engine(&manifest, config);
  const InferenceResult result = engine.Analyze(columns);
  ASSERT_FALSE(result.sequences.empty());
  EXPECT_EQ(DigestResults({engine.Analyze(b)}), DigestResults({result}));
}

TEST(TraceFingerprint, NoCollisionsAcrossRandomTraces) {
  // 500 random traces; a collision needs both independent 64-bit mixes to
  // collide at once, so any duplicate here is a real mixing bug.
  Rng rng(7);
  std::vector<TraceFingerprint> seen;
  for (int t = 0; t < 500; ++t) {
    capture::CaptureTrace trace;
    const int packets = rng.UniformInt(1, 40);
    TimeUs now = 0;
    for (int i = 0; i < packets; ++i) {
      capture::PacketRecord p = BasePacket();
      now += rng.UniformInt(1, 50000);
      p.timestamp = now;
      p.from_client = rng.Chance(0.5);
      p.payload = static_cast<uint32_t>(rng.UniformInt(0, 1500));
      p.quic_packet_number = static_cast<uint32_t>(i);
      if (i == 0) {
        p.sni = "s" + std::to_string(rng.UniformInt(0, 1 << 20)) + ".example.com";
      } else {
        p.sni.clear();
      }
      trace.push_back(p);
    }
    const TraceFingerprint fp = Fingerprint(trace);
    for (const TraceFingerprint& other : seen) {
      ASSERT_FALSE(fp == other) << "collision at trace " << t;
    }
    seen.push_back(fp);
  }
}

// A media session plus a second, non-media flow whose packets fall between
// the session's: `interleaved` merges the two by time, `flow_by_flow` keeps the
// session's packets first and appends the other flow's, `other_first` puts
// the other flow's packets first. Every flow's own packet sequence is the
// same in all three.
struct TwoFlowCaptures {
  media::Manifest manifest;
  capture::CaptureTrace interleaved;
  capture::CaptureTrace flow_by_flow;
  capture::CaptureTrace other_first;
};

TwoFlowCaptures MakeTwoFlowCaptures() {
  TwoFlowCaptures c;
  c.manifest = testbed::MakeAssetForDesign(DesignType::kCH, 1, 60 * kUsPerSec);
  const capture::CaptureTrace trace =
      MakeBatch(c.manifest, DesignType::kCH, 1, 60 * kUsPerSec).front();
  const std::vector<capture::PacketRecord> session(trace.begin(), trace.end());
  std::vector<capture::PacketRecord> other;
  for (size_t i = 1; i + 1 < session.size(); i += 97) {
    capture::PacketRecord p = BasePacket();
    p.timestamp = session[i].timestamp;
    p.sni = i == 1 ? "other.example" : "";
    other.push_back(p);
  }
  std::vector<capture::PacketRecord> interleaved = session;
  interleaved.insert(interleaved.end(), other.begin(), other.end());
  std::stable_sort(interleaved.begin(), interleaved.end(),
                   [](const capture::PacketRecord& a, const capture::PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  std::vector<capture::PacketRecord> flow_by_flow = session;
  flow_by_flow.insert(flow_by_flow.end(), other.begin(), other.end());
  std::vector<capture::PacketRecord> other_first = other;
  other_first.insert(other_first.end(), session.begin(), session.end());
  c.interleaved = capture::CaptureTrace(interleaved.begin(), interleaved.end());
  c.flow_by_flow = capture::CaptureTrace(flow_by_flow.begin(), flow_by_flow.end());
  c.other_first = capture::CaptureTrace(other_first.begin(), other_first.end());
  return c;
}

TEST(TraceFingerprint, CrossFlowInterleavingDoesNotMatter) {
  const TwoFlowCaptures c = MakeTwoFlowCaptures();
  // The other flow's packets really are spread through the session.
  ASSERT_NE(FlowKeyOf(c.interleaved[c.interleaved.size() - 1]),
            FlowKeyOf(c.flow_by_flow[c.flow_by_flow.size() - 1]));
  const capture::PacketColumns a = capture::PacketColumns::Build(c.interleaved);
  const capture::PacketColumns b = capture::PacketColumns::Build(c.flow_by_flow);
  ASSERT_EQ(a.flow_count(), 2u);
  EXPECT_EQ(FingerprintColumns(a), FingerprintColumns(b));

  InferenceConfig config;
  config.design = DesignType::kCH;
  const InferenceEngine engine(&c.manifest, config);
  const InferenceResult result = engine.Analyze(a);
  ASSERT_FALSE(result.sequences.empty());
  EXPECT_EQ(DigestResults({engine.Analyze(b)}), DigestResults({result}));
}

TEST(TraceFingerprint, FlowOrderMatters) {
  const TwoFlowCaptures c = MakeTwoFlowCaptures();
  EXPECT_NE(Fingerprint(c.other_first), Fingerprint(c.flow_by_flow));
}

// --- Cache mechanics -------------------------------------------------------

// The prefix tier keys on the PrefixSettings slice alone. Two engines that
// share one AnalysisPrefixCache and differ only in a setting outside it share
// the entry; a difference in any PrefixSettings field splits it. The
// mutations take the whole InferenceConfig, so a field moved between the
// slices still compiles here and fails the check.
TEST(PrefixTierKey, SharedAcrossOtherSettingsSplitByEveryPrefixSetting) {
  const TimeUs duration = 20 * kUsPerSec;
  const media::Manifest manifest = testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const capture::PacketColumns columns =
      capture::PacketColumns::Build(MakeBatch(manifest, DesignType::kSQ, 1, duration)[0]);
  InferenceConfig base;
  base.design = DesignType::kSQ;
  base.host_suffix = manifest.host;

  using Mutation = void (*)(InferenceConfig&);
  const auto run = [&](Mutation mutate) {
    InferenceConfig config = base;
    config.caches.prefix = std::make_shared<AnalysisPrefixCache>(32u << 20);
    EXPECT_FALSE(InferenceEngine(&manifest, config).Analyze(columns).sequences.empty());
    mutate(config);
    InferenceEngine(&manifest, config).Analyze(columns);
    return config.caches.prefix->stats();
  };
  const CacheStats shared = run([](InferenceConfig& c) { c.k_quic += 0.01; });
  EXPECT_EQ(shared.hits, 1u);
  EXPECT_EQ(shared.contexts, 1u);

  const std::vector<std::pair<const char*, Mutation>> prefix_mutations = {
      {"design", [](InferenceConfig& c) { c.design = DesignType::kCQ; }},
      {"host_suffix", [](InferenceConfig& c) { c.host_suffix = "other.example"; }},
      {"splitter.idle_threshold", [](InferenceConfig& c) { c.splitter.idle_threshold += 1; }},
      {"splitter.simultaneity_window",
       [](InferenceConfig& c) { c.splitter.simultaneity_window += 1; }},
      {"splitter.enable_sp1", [](InferenceConfig& c) { c.splitter.enable_sp1 = false; }},
      {"splitter.enable_sp2", [](InferenceConfig& c) { c.splitter.enable_sp2 = false; }},
  };
  for (const auto& [name, mutate] : prefix_mutations) {
    SCOPED_TRACE(name);
    const CacheStats split = run(mutate);
    EXPECT_EQ(split.hits, 0u);
    EXPECT_EQ(split.misses, 2u);
    EXPECT_EQ(split.contexts, 2u);
  }
}

TEST(AnalysisPrefixCache, LookupInsertClearRoundTrip) {
  AnalysisPrefixCache cache(1 << 20);
  const capture::CaptureTrace trace{BasePacket()};
  const auto query = AnalysisPrefixCache::MakeQuery(capture::PacketColumns::Build(trace), 1);

  EXPECT_EQ(cache.Lookup(query), nullptr);
  auto value = std::make_shared<AnalysisPrefix>();
  value->media_flows = 1;
  cache.Insert(query, value);
  const auto hit = cache.Lookup(query);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), value.get());  // shared, not copied

  // Same fingerprint under another context is a different key.
  auto other = query;
  other.context = 2;
  EXPECT_EQ(cache.Lookup(other), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.Lookup(query), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(AnalysisPrefixCache, EvictionKeepsBytesUnderTinyBudget) {
  // Budget small enough that a few entries overflow each shard; the clock
  // sweep must keep per-shard bytes bounded and count evictions.
  AnalysisPrefixCache cache(4096, 2);
  const capture::CaptureTrace trace{BasePacket()};
  for (int i = 0; i < 64; ++i) {
    auto value = std::make_shared<AnalysisPrefix>();
    value->media_flows = 1;
    value->exchanges.resize(8);
    capture::PacketRecord p = BasePacket();
    p.timestamp = 1000 + i;
    cache.Insert(AnalysisPrefixCache::MakeQuery(capture::PacketColumns::Build({p}), 1),
                 std::move(value));
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_GT(stats.entries, 0u);

  // A value bigger than a whole shard is refused outright.
  auto huge = std::make_shared<AnalysisPrefix>();
  huge->exchanges.resize(4096);
  const auto huge_query =
      AnalysisPrefixCache::MakeQuery(capture::PacketColumns::Build(trace), 9);
  const uint64_t inserts_before = cache.stats().inserts;
  cache.Insert(huge_query, huge);
  EXPECT_EQ(cache.Lookup(huge_query), nullptr);
  EXPECT_EQ(cache.stats().refused, 1u);
  EXPECT_EQ(cache.stats().inserts, inserts_before);
}

// --- Differential replay: on vs off -----------------------------------------

std::vector<capture::CaptureTrace> SeededCaptureSet(const media::Manifest& manifest,
                                                    DesignType design, int unique) {
  auto traces = MakeBatch(manifest, design, unique, 60 * kUsPerSec);
  // Duplicates are the cache's bread and butter: re-analyzing the same bytes
  // must hit, and hit output must equal recomputed output.
  const size_t n = traces.size();
  for (size_t i = 0; i < n; ++i) {
    traces.push_back(traces[i]);
  }
  return traces;
}

TEST(PrefixCacheDifferential, CacheOnOffByteIdenticalAcrossSchedules) {
  // Capture sets (per design) × repeat schedules × thread counts. Tier-1 runs
  // the default; CSI_TEST_SCHEDULES raises the repeat sweep for the deep job.
  const int max_repeats = static_cast<int>(std::min<uint64_t>(
      3 + (testutil::ScheduleCount(0) / 50), 16));
  for (const DesignType design : {DesignType::kSQ, DesignType::kCH, DesignType::kCQ}) {
    const media::Manifest manifest =
        testbed::MakeAssetForDesign(design, 1, 60 * kUsPerSec);
    const auto traces = SeededCaptureSet(manifest, design, 3);
    const std::string ctx = DesignTypeName(design);

    // Reference: both caches off, serial.
    InferenceConfig config;
    config.design = design;
    BatchConfig off;
    off.threads = 1;
    off.caches.candidate.budget_mb = 0;
    off.caches.prefix.budget_mb = 0;
    BatchAnalyzer reference(&manifest, config, off);
    const auto expected = reference.AnalyzeAll(traces);
    EXPECT_EQ(reference.prefix_cache(), nullptr);

    for (const int threads : {1, 3}) {
      for (int repeats = 1; repeats <= max_repeats; ++repeats) {
        BatchConfig on;
        on.threads = threads;
        // This test targets the prefix tier's warm-hit stats; the result tier
        // would absorb the duplicate traces first, so keep it off here (its
        // own differential lives in result_cache_test).
        on.caches.result.budget_mb = 0;
        BatchAnalyzer analyzer(&manifest, config, on);
        for (int r = 0; r < repeats; ++r) {
          const auto got = analyzer.AnalyzeAll(traces);
          ASSERT_EQ(got.size(), expected.size());
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], expected[i])
                << ctx << " threads=" << threads << " repeat " << r << " trace " << i;
          }
        }
        ASSERT_NE(analyzer.prefix_cache(), nullptr);
        const auto stats = analyzer.prefix_cache()->stats();
        // Serial passes must hit on the duplicated back half of the set; a
        // single concurrent pass may legitimately race dup pairs to
        // all-miss, but any second pass runs against a fully warm cache.
        if (threads == 1 || repeats >= 2) {
          EXPECT_GT(stats.hits, 0u) << ctx << " threads=" << threads
                                    << " repeats=" << repeats;
        }
        EXPECT_LE(stats.misses,
                  static_cast<uint64_t>(traces.size()) * static_cast<uint64_t>(threads))
            << ctx;
      }
    }
  }
}

TEST(PrefixCacheSharing, WarmHitsAcrossEnginesAndBatches) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, 60 * kUsPerSec);
  const auto traces = MakeBatch(manifest, DesignType::kSQ, 2, 60 * kUsPerSec);
  auto shared = std::make_shared<AnalysisPrefixCache>(32 << 20);

  InferenceConfig config;
  config.design = DesignType::kSQ;
  config.caches.prefix = shared;
  BatchConfig batch;
  batch.threads = 2;

  BatchAnalyzer first(&manifest, config, batch);
  const auto expected = first.AnalyzeAll(traces);
  const auto cold = shared->stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, static_cast<uint64_t>(traces.size()));

  // A different analyzer over the same bytes starts fully warm: every lookup
  // hits, zero new inserts — cross-session sharing, same bytes out.
  BatchAnalyzer second(&manifest, config, batch);
  const auto warm = second.AnalyzeAll(traces);
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i], expected[i]) << "trace " << i;
  }
  const auto stats = shared->stats();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(traces.size()));
  EXPECT_EQ(stats.inserts, cold.inserts);
}

// --- Live-refresh replay: entries survive snapshot publishes ----------------

// Appends the back half of `full` to `live` in `steps` refreshes.
std::vector<ManifestRefresh> TailRefreshes(const media::Manifest& full, int start_positions,
                                           int steps) {
  std::vector<ManifestRefresh> refreshes;
  const int tail = full.num_positions() - start_positions;
  for (int r = 0; r < steps; ++r) {
    const int lo = start_positions + tail * r / steps;
    const int hi = start_positions + tail * (r + 1) / steps;
    ManifestRefresh refresh;
    refresh.video_appends.resize(full.video_tracks.size());
    for (size_t t = 0; t < full.video_tracks.size(); ++t) {
      const auto& chunks = full.video_tracks[t].chunks;
      refresh.video_appends[t].assign(chunks.begin() + lo, chunks.begin() + hi);
    }
    refreshes.push_back(std::move(refresh));
  }
  return refreshes;
}

media::Manifest PrefixManifest(const media::Manifest& full, int positions) {
  media::Manifest prefix = full;
  for (auto& track : prefix.video_tracks) {
    track.chunks.resize(static_cast<size_t>(positions));
  }
  for (auto& track : prefix.audio_tracks) {
    track.chunks.resize(std::min(track.chunks.size(), static_cast<size_t>(positions)));
  }
  return prefix;
}

TEST(PrefixCacheLiveReplay, EntriesSurviveRefreshesAndStayByteIdentical) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest full =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const auto traces = MakeBatch(full, DesignType::kSQ, 3, duration);
  const int start_positions = std::max(1, full.num_positions() / 2);
  const auto refreshes = TailRefreshes(full, start_positions, 3);
  ASSERT_FALSE(refreshes.empty());

  LiveChunkDatabase live(PrefixManifest(full, start_positions), {});

  // Pin the config knobs that would otherwise be derived from the growing
  // manifest (same discipline as csi_batch --follow-manifests).
  InferenceConfig config;
  config.design = DesignType::kSQ;
  config.host_suffix = full.host;
  config.other_object_sizes.push_back(full.SerializedSize() +
                                      config.expected_fixed_overhead);
  auto shared = std::make_shared<AnalysisPrefixCache>(32 << 20);
  config.caches.prefix = shared;
  BatchConfig batch;
  batch.threads = 2;
  BatchAnalyzer analyzer(live.Acquire(), config, batch);

  InferenceConfig no_cache = config;
  no_cache.caches.prefix = nullptr;
  BatchConfig off;
  off.threads = 1;
  off.caches.candidate.budget_mb = 0;
  off.caches.prefix.budget_mb = 0;

  uint64_t hits_before = 0;
  for (size_t round = 0; round <= refreshes.size(); ++round) {
    if (round > 0) {
      live.ApplyRefresh(refreshes[round - 1]);
    }
    const DbSnapshot snapshot = live.Acquire();
    analyzer.UpdateSnapshot(snapshot);
    const auto got = analyzer.AnalyzeAll(traces);
    // Reference at the same snapshot, caches off.
    BatchAnalyzer reference(snapshot, no_cache, off);
    const auto expected = reference.AnalyzeAll(traces);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "round " << round << " trace " << i;
    }
    const auto stats = shared->stats();
    if (round == 0) {
      EXPECT_EQ(stats.hits, 0u);
      hits_before = stats.hits;
    } else {
      // The prefix is snapshot-independent: every round after the first runs
      // fully warm even though the database grew underneath.
      EXPECT_EQ(stats.hits, hits_before + static_cast<uint64_t>(traces.size()))
          << "round " << round;
      hits_before = stats.hits;
      EXPECT_EQ(stats.misses, static_cast<uint64_t>(traces.size()));
    }
  }
  live.WaitForCompaction();
}

// --- TSan hammer: concurrent batches, shared cache, live publishes ----------

TEST(PrefixCacheHammer, ConcurrentBatchesSharedCacheUnderLivePublishes) {
  const TimeUs duration = 45 * kUsPerSec;
  const media::Manifest full =
      testbed::MakeAssetForDesign(DesignType::kSQ, 1, duration);
  const auto traces = MakeBatch(full, DesignType::kSQ, 3, duration);
  const int start_positions = std::max(1, full.num_positions() / 2);
  const auto refreshes = TailRefreshes(full, start_positions, 6);

  LiveChunkDatabase live(PrefixManifest(full, start_positions), {});

  InferenceConfig config;
  config.design = DesignType::kSQ;
  config.host_suffix = full.host;
  config.other_object_sizes.push_back(full.SerializedSize() +
                                      config.expected_fixed_overhead);
  auto shared = std::make_shared<AnalysisPrefixCache>(32 << 20);
  config.caches.prefix = shared;

  constexpr int kWorkers = 2;
  constexpr int kRounds = 4;
  // Every (worker, round) records the snapshot it analyzed against plus its
  // results, so the serial reference below can replay the exact state.
  struct Recorded {
    DbSnapshot snapshot;
    std::vector<InferenceResult> results;
  };
  std::vector<std::vector<Recorded>> recorded(kWorkers);
  std::atomic<int> failures{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      try {
        BatchConfig batch;
        batch.threads = 2;
        BatchAnalyzer analyzer(live.Acquire(), config, batch);
        for (int r = 0; r < kRounds; ++r) {
          DbSnapshot snapshot = live.Acquire();
          analyzer.UpdateSnapshot(snapshot);
          auto results = analyzer.AnalyzeAll(traces);
          recorded[static_cast<size_t>(w)].push_back(
              Recorded{std::move(snapshot), std::move(results)});
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  std::thread publisher([&] {
    for (const ManifestRefresh& refresh : refreshes) {
      live.ApplyRefresh(refresh);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : workers) {
    t.join();
  }
  publisher.join();
  ASSERT_EQ(failures.load(), 0);

  // Serial reference per recorded snapshot, all caches off: the concurrent
  // results must be byte-identical per index.
  InferenceConfig no_cache = config;
  no_cache.caches.prefix = nullptr;
  BatchConfig off;
  off.threads = 1;
  off.caches.candidate.budget_mb = 0;
  off.caches.prefix.budget_mb = 0;
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(recorded[static_cast<size_t>(w)].size(), static_cast<size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r) {
      const Recorded& rec = recorded[static_cast<size_t>(w)][static_cast<size_t>(r)];
      BatchAnalyzer reference(rec.snapshot, no_cache, off);
      const auto expected = reference.AnalyzeAll(traces);
      ASSERT_EQ(rec.results.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(rec.results[i], expected[i])
            << "worker " << w << " round " << r << " trace " << i;
      }
    }
  }
  live.WaitForCompaction();
}

// --- Batch knob plumbing ----------------------------------------------------

TEST(PrefixCacheBatchConfig, ZeroBudgetDisablesTheCache) {
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCH, 1, 60 * kUsPerSec);
  InferenceConfig config;
  config.design = DesignType::kCH;
  BatchConfig batch;
  batch.caches.prefix.budget_mb = 0;
  batch.threads = 1;
  BatchAnalyzer analyzer(&manifest, config, batch);
  EXPECT_EQ(analyzer.prefix_cache(), nullptr);
}

}  // namespace
}  // namespace csi::infer
