// Offline/online split (DESIGN.md §10): derived-seed material streams,
// the shape-keyed TripleStore (prefetch, exhaustion fallback, disk
// round trip, SPSC concurrency) and the engine-level guarantee that
// prefetched and synchronous runs are bit-identical.
#include "mpc/triple_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/triple_pipeline.hpp"
#include "mpc/share_serde.hpp"
#include "numeric/fixed_point.hpp"
#include "obs/metrics.hpp"

namespace trustddl::mpc {
namespace {

constexpr int kF = fx::kDefaultFracBits;
constexpr std::uint64_t kSeed = 4242;

Bytes encode(const BeaverTripleShare& triple) {
  ByteWriter writer;
  write_beaver_share(writer, triple);
  return writer.take();
}

Bytes encode(const PartyShare& share) {
  ByteWriter writer;
  write_party_share(writer, share);
  return writer.take();
}

Bytes encode(const TruncPairShare& pair) {
  ByteWriter writer;
  write_trunc_pair(writer, pair);
  return writer.take();
}

/// Party 0's view of entry `index` of `key`, dealt directly.
MaterialBatch stream_entry(const TripleKey& key, std::uint64_t index) {
  return std::move(deal_material(key, index, 1, kSeed, kF)[0]);
}

TEST(DerivedSeedTest, EntriesArePureFunctionsOfKeyAndIndex) {
  const TripleKey key = TripleKey::matmul(2, 3, 2);
  const auto batch = deal_material(key, 0, 4, kSeed, kF);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto single = deal_material(key, i, 1, kSeed, kF);
    for (std::size_t party = 0; party < kNumParties; ++party) {
      EXPECT_EQ(encode(batch[party][i].triple),
                encode(single[party][0].triple))
          << "party " << party << " entry " << i;
    }
  }
  // Overlapping ranges agree entry-wise — the property that lets
  // caches, stores and restarts coexist.
  const auto overlap = deal_material(key, 2, 2, kSeed, kF);
  EXPECT_EQ(encode(overlap[0][0].triple), encode(batch[0][2].triple));
  EXPECT_EQ(encode(overlap[0][1].triple), encode(batch[0][3].triple));
  // Different indices yield different material.
  EXPECT_NE(encode(batch[0][0].triple), encode(batch[0][1].triple));
}

TEST(DerivedSeedTest, DealtBatchesSatisfyTheBeaverRelation) {
  const TripleKey key = TripleKey::matmul(3, 4, 2);
  const auto views = deal_material(key, 7, 2, kSeed, kF);
  for (std::size_t i = 0; i < 2; ++i) {
    std::array<PartyShare, 3> a_views, b_views, c_views;
    for (std::size_t party = 0; party < kNumParties; ++party) {
      a_views[party] = views[party][i].triple.a;
      b_views[party] = views[party][i].triple.b;
      c_views[party] = views[party][i].triple.c;
    }
    EXPECT_EQ(matmul(reconstruct(a_views), reconstruct(b_views)),
              reconstruct(c_views))
        << "entry " << i;
  }
}

TEST(TripleStoreTest, ServesTheStreamInOrderAndFallsBackWhenDry) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey key = TripleKey::matmul(2, 3, 2);

  store.demand(key, 3);
  EXPECT_EQ(store.target(key), 3u);
  EXPECT_EQ(store.refill(key, 8), 3u) << "refill is target-bounded";
  EXPECT_EQ(store.depth(key), 3u);

  // Five pops against three buffered entries: the last two exhaust the
  // store and fall back to on-demand dealing — same stream, in order.
  for (std::uint64_t i = 0; i < 5; ++i) {
    const BeaverTripleShare triple = store.matmul_triple(2, 3, 2);
    EXPECT_EQ(encode(triple), encode(stream_entry(key, i)[0].triple))
        << "entry " << i;
  }
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.depth(key), 0u);
  EXPECT_EQ(store.consumed(key), 5u);
}

/// Forwards to party `party`'s DealerBackend and counts the calls
/// that reach it.
class CountingBackend final : public TripleBackend {
 public:
  explicit CountingBackend(int party) : inner_(kSeed, kF, party) {}
  MaterialBatch fill(const TripleKey& key, std::uint64_t start,
                     std::size_t count) override {
    ++fills;
    return inner_.fill(key, start, count);
  }
  std::vector<MaterialBatch> fill_many(
      const std::vector<FillRange>& ranges) override {
    ++batched_calls;
    last_ranges = ranges;
    return inner_.fill_many(ranges);
  }
  std::size_t fills = 0;
  std::size_t batched_calls = 0;
  std::vector<FillRange> last_ranges;

 private:
  DealerBackend inner_;
};

/// Entry `index` of `key` as TripleStore hands it out, encoded.
Bytes encoded_entry(const TripleKey& key, const MaterialEntry& entry) {
  return key.kind == TripleKind::kTruncPair ? encode(entry.pair)
                                            : encode(entry.triple);
}

TEST(TripleStoreTest, NextManyFetchesEveryDryKeyInOneCall) {
  // A max-pool's comparisons repeat one key within a call: each
  // occurrence takes the stream's next index, in call order.
  CountingBackend backend(0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey comp = TripleKey::comp_triple(Shape{2, 3});
  const TripleKey pair = TripleKey::trunc_pair(Shape{2, 3});
  const std::vector<TripleKey> keys = {comp, pair, comp, comp};
  const std::vector<MaterialEntry> entries = store.next_many(keys);

  EXPECT_EQ(backend.batched_calls, 1u);
  EXPECT_EQ(backend.fills, 0u);
  const std::vector<std::uint64_t> starts = {0, 0, 1, 2};
  ASSERT_EQ(backend.last_ranges.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(backend.last_ranges[i].key, keys[i]) << "range " << i;
    EXPECT_EQ(backend.last_ranges[i].start, starts[i]) << "range " << i;
    EXPECT_EQ(backend.last_ranges[i].count, 1u) << "range " << i;
  }
  // Successive next() calls on a fresh store return the same entries.
  DealerBackend reference_backend(kSeed, kF, /*party=*/0);
  TripleStore reference(reference_backend, /*party=*/0);
  ASSERT_EQ(entries.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(encoded_entry(keys[i], entries[i]),
              encoded_entry(keys[i], reference.next(keys[i])))
        << "entry " << i;
  }
  EXPECT_EQ(store.misses(), 4u);
  EXPECT_EQ(store.consumed(comp), 3u);
  EXPECT_EQ(store.consumed(pair), 1u);
}

TEST(TripleStoreTest, NextManyPopsBufferedKeysWithoutAFetch) {
  CountingBackend backend(1);
  TripleStore store(backend, /*party=*/1);
  const TripleKey comp = TripleKey::comp_triple(Shape{4});
  const TripleKey pair = TripleKey::trunc_pair(Shape{4});
  store.demand(comp, 2);
  EXPECT_EQ(store.refill(comp, 2), 2u);

  // comp's entries 0 and 1 are buffered; pair's 0 and comp's 2 are not.
  const std::vector<TripleKey> keys = {comp, pair, comp, comp};
  const std::vector<MaterialEntry> entries = store.next_many(keys);
  EXPECT_EQ(backend.batched_calls, 1u);
  ASSERT_EQ(backend.last_ranges.size(), 2u);
  EXPECT_EQ(backend.last_ranges[0].key, pair);
  EXPECT_EQ(backend.last_ranges[0].start, 0u);
  EXPECT_EQ(backend.last_ranges[1].key, comp);
  EXPECT_EQ(backend.last_ranges[1].start, 2u);
  const std::vector<std::uint64_t> indices = {0, 0, 1, 2};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const MaterialBatch expected = std::move(
        deal_material(keys[i], indices[i], 1, kSeed, kF)[1]);
    EXPECT_EQ(encoded_entry(keys[i], entries[i]),
              encoded_entry(keys[i], expected[0]))
        << "entry " << i;
  }
  EXPECT_EQ(store.misses(), 2u);

  // A call whose every key is buffered fetches nothing.
  EXPECT_EQ(store.refill(comp, 2), 2u);
  (void)store.next_many({comp, comp});
  EXPECT_EQ(backend.batched_calls, 1u);
  EXPECT_EQ(store.misses(), 2u);
}

TEST(TripleStoreTest, KindsKeepIndependentStreams) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const Shape shape{4, 2};
  store.demand(TripleKey::mul(shape), 2);
  store.demand(TripleKey::comp_aux(shape), 2);
  store.demand(TripleKey::trunc_pair(shape), 2);
  EXPECT_EQ(store.refill_toward_targets(16), 6u);
  EXPECT_EQ(store.depth(), 6u);

  EXPECT_EQ(encode(store.mul_triple(shape)),
            encode(stream_entry(TripleKey::mul(shape), 0)[0].triple));
  EXPECT_EQ(encode(store.comp_aux(shape)),
            encode(stream_entry(TripleKey::comp_aux(shape), 0)[0].share));
  EXPECT_EQ(encode(store.trunc_pair(shape)),
            encode(stream_entry(TripleKey::trunc_pair(shape), 0)[0].pair));
  EXPECT_EQ(store.misses(), 0u);
}

TEST(TripleStoreTest, LowWaterListsOnlyShallowKeys) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey deep = TripleKey::mul(Shape{2});
  const TripleKey shallow = TripleKey::mul(Shape{3});
  store.demand(deep, 4);
  store.demand(shallow, 4);
  store.refill(deep, 4);
  store.refill(shallow, 1);

  const auto keys = store.keys_below(0.5);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], shallow);
}

TEST(TripleStoreTest, DiskRoundTripRestoresEntriesAndCursor) {
  const std::string path = ::testing::TempDir() + "triple_store_rt.bin";
  std::remove(path.c_str());
  const std::uint64_t provenance = 0xfeedULL;
  const TripleKey key = TripleKey::trunc_pair(Shape{3, 2});

  {
    DealerBackend backend(kSeed, kF, /*party=*/1);
    TripleStore store(backend, /*party=*/1);
    EXPECT_FALSE(store.load(path, provenance)) << "no file yet";
    store.demand(key, 4);
    store.refill(key, 4);
    (void)store.trunc_pair(Shape{3, 2});  // consume entry 0
    store.save(path, provenance);
  }

  DealerBackend backend(kSeed, kF, /*party=*/1);
  TripleStore restored(backend, /*party=*/1);
  EXPECT_THROW(restored.load(path, provenance + 1), SerializationError)
      << "provenance mismatch must fail loudly";
  ASSERT_TRUE(restored.load(path, provenance));
  EXPECT_EQ(restored.depth(key), 3u);
  EXPECT_EQ(restored.consumed(key), 1u);

  // The restored store resumes the stream exactly where the saved one
  // stopped: entries 1..3 from the buffer, entry 4 via fallback.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto pairs = deal_material(key, i, 1, kSeed, kF);
    EXPECT_EQ(encode(restored.trunc_pair(Shape{3, 2})),
              encode(pairs[1][0].pair))
        << "entry " << i;
  }
  std::remove(path.c_str());
}

/// A TDST file holding one key header (and no entries), written the
/// way TripleStore::save lays it out.
void write_store_header(const std::string& path, TripleKind kind,
                        const Shape& dims, std::uint64_t cursor,
                        std::uint64_t target, std::uint64_t depth) {
  ByteWriter writer;
  writer.write_u32(0x54534454);  // "TDST"
  writer.write_u32(1);
  writer.write_u64(0xfeedULL);
  writer.write_u32(0);
  writer.write_u64(1);
  writer.write_u8(static_cast<std::uint8_t>(kind));
  writer.write_u64(dims.size());
  for (std::size_t dim : dims) {
    writer.write_u64(dim);
  }
  writer.write_u64(cursor);
  writer.write_u64(target);
  writer.write_u64(depth);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
}

TEST(TripleStoreTest, CraftedHeadersFailAsSerializationErrors) {
  // Counts in a header must be checked before anything is sized from
  // them: unchecked, a target past 2^63 spins next_pow2 forever, one
  // near 2^40 throws std::bad_alloc, and a depth the file cannot hold
  // asks for a ring of that size.
  const std::string path = ::testing::TempDir() + "triple_store_crafted.bin";
  const Shape shape{2};
  const struct {
    TripleKind kind;
    Shape dims;
    std::uint64_t cursor;
    std::uint64_t target;
    std::uint64_t depth;
  } cases[] = {
      {TripleKind::kMul, shape, 0, (std::uint64_t{1} << 63) + 1, 0},
      {TripleKind::kMul, shape, 0, std::uint64_t{1} << 40, 0},
      {TripleKind::kMul, shape, 0, 4, std::uint64_t{1} << 40},
      {TripleKind::kCompAux, shape, ~std::uint64_t{0}, 4, 1},
      {TripleKind::kWeightMask, Shape{0, 0, 2, 2}, 0,
       std::uint64_t{1} << 40, 0},
      {TripleKind::kMatMul, Shape{2, 2}, 0, 1, 0},  // wrong arity
      {static_cast<TripleKind>(9), shape, 0, 1, 0},  // unknown kind
      // Masked-conv keys {layer, version, batch, C, H, W, outC, kh, kw,
      // pad, stride}: wrong arity, zero stride, a kernel past the
      // padded input, an im2col size past SIZE_MAX.
      {TripleKind::kMaskedConv, Shape{0, 0, 1, 1, 4, 4, 1, 3, 3, 1}, 0, 1,
       0},
      {TripleKind::kMaskedConv, Shape{0, 0, 1, 1, 4, 4, 1, 3, 3, 1, 0}, 0, 1,
       0},
      {TripleKind::kMaskedConv, Shape{0, 0, 1, 1, 4, 4, 1, 7, 3, 1, 1}, 0, 1,
       0},
      {TripleKind::kMaskedConv,
       Shape{0, 0, std::size_t{1} << 40, 1, std::size_t{1} << 20,
             std::size_t{1} << 20, 1, 1, 1, 0, 1},
       0, 1, 0},
      {TripleKind::kCompTriple, Shape{2, 2, 2}, 0, 1, 0},  // wrong arity
      {TripleKind::kCompTriple, Shape{}, 0, 1, 0},
      {TripleKind::kMul, Shape(kMaxKeyDims + 1, 1), 0, 1, 0},  // rank
  };
  for (const auto& c : cases) {
    write_store_header(path, c.kind, c.dims, c.cursor, c.target, c.depth);
    DealerBackend backend(kSeed, kF, /*party=*/0);
    TripleStore store(backend, /*party=*/0);
    EXPECT_THROW(store.load(path, 0xfeedULL), SerializationError)
        << "kind " << static_cast<int>(c.kind) << " target " << c.target
        << " depth " << c.depth;
  }
  // A versioned key long past its first entries still loads: only what
  // it still owes counts against the bound.
  write_store_header(path, TripleKind::kMaskedMatMul,
                     Shape{0, 0, 0, 1, 1, 1}, std::uint64_t{1} << 40,
                     (std::uint64_t{1} << 40) + 4, 0);
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  ASSERT_TRUE(store.load(path, 0xfeedULL));
  const TripleKey key = TripleKey::masked_matmul(0, 0, false, 1, 1, 1);
  EXPECT_EQ(store.consumed(key), std::uint64_t{1} << 40);
  EXPECT_EQ(store.refill(key, 16), 4u);
  // So does a well-formed masked-conv key, the widest one.
  ConvSpec conv;
  conv.in_height = 4;
  conv.in_width = 4;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  conv.pad = 1;
  const TripleKey conv_key = TripleKey::masked_conv(0, 0, 1, conv);
  ASSERT_EQ(conv_key.dims.size(), kMaxKeyDims);
  write_store_header(path, TripleKind::kMaskedConv, conv_key.dims, 0, 1, 0);
  TripleStore conv_store(backend, /*party=*/0);
  ASSERT_TRUE(conv_store.load(path, 0xfeedULL));
  EXPECT_EQ(conv_store.refill(conv_key, 16), 1u);
  std::remove(path.c_str());
}

TEST(TripleStoreTest, VersionedStreamsDeliverTotalsAndRetire) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey v0 = TripleKey::masked_matmul(1, 0, false, 2, 3, 4);
  const TripleKey v1 = TripleKey::masked_matmul(1, 1, false, 2, 3, 4);
  store.demand(v0, 2);
  store.demand(v1, 1);
  EXPECT_EQ(store.refill_toward_targets(8), 3u);
  (void)store.next(v0);
  (void)store.next(v0);
  // A finished version is never refetched: its target counts entries
  // delivered, not a depth to keep.
  EXPECT_EQ(store.refill(v0, 8), 0u);
  EXPECT_TRUE(store.keys_below(0.5).empty());
  // Planning more for a version owes entries beyond those consumed.
  store.demand(v0, 1);
  EXPECT_EQ(store.refill(v0, 8), 1u);
  EXPECT_EQ(store.next(v0).triple.a.primary,
            stream_entry(v0, 2)[0].triple.a.primary);

  store.retire_versions_before(1);
  EXPECT_EQ(store.target(v0), 0u) << "drained older version dropped";
  EXPECT_EQ(store.depth(v1), 1u) << "current version kept";
  EXPECT_EQ(store.misses(), 0u);
}

TEST(TripleStoreTest, ConcurrentProducerAndConsumerPreserveStreamOrder) {
  // SPSC contract under real concurrency (run under TSan in CI): a
  // producer thread refills while the consumer pops; every pop must
  // still see the stream in order, whether it hit the ring or missed,
  // including misses reserved within one next_many call.
  DealerBackend backend(kSeed, kF, /*party=*/2);
  TripleStore store(backend, /*party=*/2);
  const TripleKey key = TripleKey::mul(Shape{4});
  constexpr std::size_t kEntries = 400;
  store.demand(key, 32);

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (store.refill(key, 8) == 0) {
        std::this_thread::yield();
      }
    }
  });

  // Single pops alternate with next_many calls that repeat the key.
  std::vector<Bytes> popped;
  popped.reserve(kEntries);
  while (popped.size() < kEntries) {
    popped.push_back(encode(store.mul_triple(Shape{4})));
    for (const MaterialEntry& entry : store.next_many({key, key, key})) {
      popped.push_back(encode(entry.triple));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();

  const auto expected = deal_material(key, 0, kEntries, kSeed, kF);
  for (std::size_t i = 0; i < kEntries; ++i) {
    ASSERT_EQ(popped[i], encode(expected[2][i].triple)) << "entry " << i;
  }
  EXPECT_EQ(store.consumed(key), kEntries);
}

// --- Demand profiler + engine-level equivalence ----------------------

data::TrainTestSplit tiny_split(std::size_t train, std::size_t test,
                                std::size_t side = 28) {
  data::SyntheticMnistConfig config;
  config.train_count = train;
  config.test_count = test;
  config.seed = 42;
  config.height = side;
  config.width = side;
  return data::generate_synthetic_mnist(config);
}

core::EngineConfig prefetch_config(bool prefetch) {
  core::EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  config.triple_prefetch = prefetch;
  // Uncapped targets: the warm phase prefetches the whole job's
  // demand, so any online miss means the profiler under-counted.
  config.triple_max_depth = std::size_t{1} << 40;
  return config;
}

TEST(DemandProfilerTest, CountsMergeAcrossBatchSizes) {
  const nn::ModelSpec spec = nn::mnist_mlp_spec();
  const core::DemandPlan one =
      core::profile_step_demand(spec, 8, TruncationMode::kLocal,
                                /*training=*/false);
  EXPECT_FALSE(one.empty());
  const core::DemandPlan job = core::profile_job_demand(
      spec, {8, 8, 4}, TruncationMode::kLocal, /*training=*/false);
  // Two same-size steps share shape classes; the partial batch gets
  // its own.
  EXPECT_EQ(job.total(), 2 * one.total() +
                             core::profile_step_demand(
                                 spec, 4, TruncationMode::kLocal, false)
                                 .total());
  // Masked truncation adds pairs, training adds backward material.
  EXPECT_GT(core::profile_step_demand(spec, 8, TruncationMode::kMaskedOpen,
                                      true)
                .total(),
            one.total());
}

TEST(PrefetchExactnessTest, InferLabelsBitIdenticalAndStoreNeverMisses) {
  const auto split = tiny_split(30, 16, /*side=*/12);  // tiny CNN input
  const data::Dataset sample = data::slice(split.test, 0, 6);

  core::TrustDdlEngine sync_engine(nn::tiny_cnn_spec(),
                                   prefetch_config(false));
  const auto sync = sync_engine.infer(sample, /*batch_size=*/4);

  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  core::TrustDdlEngine prefetch_engine(nn::tiny_cnn_spec(),
                                       prefetch_config(true));
  const auto prefetched = prefetch_engine.infer(sample, /*batch_size=*/4);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();

  EXPECT_EQ(prefetched.labels, sync.labels);
  // The demand profiler supplied every (kind, shape) the online phase
  // consumed: no pop fell back to on-demand dealing...
  EXPECT_EQ(snapshot.counter_sum("triple.store.miss"), 0u);
  EXPECT_GT(snapshot.counter_sum("triple.consumed"), 0u);
  // ...and the ledger balances: produced == consumed + still in store.
  std::int64_t in_store = 0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name.rfind("triple.store.depth", 0) == 0) {
      in_store += gauge.value;
    }
  }
  EXPECT_EQ(snapshot.counter_sum("triple.produced"),
            snapshot.counter_sum("triple.consumed") +
                static_cast<std::uint64_t>(in_store));
}

TEST(PrefetchExactnessTest, TrainedWeightsBitIdenticalWithPrefetch) {
  // The acceptance bar for the offline/online split: prefetched and
  // synchronous training consume identical material streams in
  // identical order, so the trained weights must match BIT FOR BIT —
  // masked-open truncation included (it consumes trunc-pair streams).
  const auto split = tiny_split(32, 12);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.learning_rate = 0.3;

  auto train_weights = [&](bool prefetch) {
    core::EngineConfig config = prefetch_config(prefetch);
    config.trunc_mode = TruncationMode::kMaskedOpen;
    config.collect_timeout = std::chrono::seconds(30);
    core::TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
    (void)engine.train(split.train, split.test, options);
    std::vector<RealTensor> weights;
    for (nn::Parameter* parameter : engine.reference_model().parameters()) {
      weights.push_back(parameter->value);
    }
    return weights;
  };

  const auto sync = train_weights(false);
  const auto prefetched = train_weights(true);
  ASSERT_EQ(sync.size(), prefetched.size());
  ASSERT_FALSE(sync.empty());
  for (std::size_t p = 0; p < sync.size(); ++p) {
    EXPECT_EQ(sync[p], prefetched[p]) << "parameter " << p;
  }
}

TEST(TriplePipelineTest, SynchronousRunFetchesEveryEntryAsAMiss) {
  // Without prefetch the store plans and buffers nothing: every entry
  // a party draws is a miss fetched at its stream cursor, and the
  // ledger still balances kind by kind.
  const auto split = tiny_split(20, 12, /*side=*/12);
  const data::Dataset sample = data::slice(split.test, 0, 6);
  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  core::TrustDdlEngine engine(nn::tiny_cnn_spec(), prefetch_config(false));
  (void)engine.infer(sample, /*batch_size=*/4);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();

  const std::uint64_t produced = snapshot.counter_sum("triple.produced");
  EXPECT_GT(produced, 0u);
  EXPECT_EQ(snapshot.counter_sum("triple.store.miss"), produced);
  for (std::uint8_t kind = 0; kind <= 7; ++kind) {
    const std::string name = triple_kind_name(static_cast<TripleKind>(kind));
    EXPECT_EQ(snapshot.counter_sum("triple.produced." + name),
              snapshot.counter_sum("triple.consumed." + name))
        << name;
  }
}

TEST(TriplePipelineTest, PersistedStoreSurvivesARestart) {
  // Same job twice against one store dir: the first run persists
  // whatever its producer over-fetched; the second restores it and
  // resumes the streams mid-cursor.  Results stay correct because the
  // entries are position-addressed, not arrival-ordered.
  const std::string dir = ::testing::TempDir();
  for (int party = 0; party < 3; ++party) {
    std::remove(
        core::TriplePipeline::store_path(dir, party, false).c_str());
  }
  const auto split = tiny_split(20, 12);
  const data::Dataset sample = data::slice(split.test, 0, 6);

  core::EngineConfig config = prefetch_config(true);
  config.triple_store_dir = dir;
  // Cap the targets so the producer over-fetches a little and leaves
  // entries to persist.
  config.triple_max_depth = 8;

  core::TrustDdlEngine first(nn::mnist_mlp_spec(), config);
  const auto first_result = first.infer(sample, /*batch_size=*/3);

  core::TrustDdlEngine second(nn::mnist_mlp_spec(), config);
  const auto second_result = second.infer(sample, /*batch_size=*/3);
  EXPECT_EQ(second_result.labels, first_result.labels);

  for (int party = 0; party < 3; ++party) {
    std::remove(
        core::TriplePipeline::store_path(dir, party, false).c_str());
  }
}

}  // namespace
}  // namespace trustddl::mpc
