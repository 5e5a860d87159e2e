// Offline/online split (DESIGN.md §10): derived-seed material streams,
// the shape-keyed TripleStore (send-ahead within its window, misses,
// disk round trip with fills in flight) and the engine-level guarantee
// that what was dealt ahead never changes a result.
#include "mpc/triple_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/actors.hpp"
#include "core/engine.hpp"
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

/// Forwards to party `party`'s DealerBackend, logging the ranges sent
/// and counting the round trips (runs of sends followed by receives);
/// keeps the ranges of the last run too.
class CountingBackend final : public TripleBackend {
 public:
  explicit CountingBackend(int party) : inner_(kSeed, kF, party) {}
  FillTicket send_fill(const FillRange& range) override {
    if (!sending_) {
      sending_ = true;
      ++round_trips;
      last_ranges.clear();
    }
    sent.push_back(range);
    last_ranges.push_back(range);
    return inner_.send_fill(range);
  }
  MaterialBatch receive_fill(const FillTicket& ticket) override {
    sending_ = false;
    return inner_.receive_fill(ticket);
  }
  std::vector<FillRange> sent;
  std::size_t round_trips = 0;
  std::vector<FillRange> last_ranges;

 private:
  DealerBackend inner_;
  bool sending_ = false;
};

/// Entry `index` of `key` as TripleStore hands it out, encoded.
Bytes encoded_entry(const TripleKey& key, const MaterialEntry& entry) {
  return key.kind == TripleKind::kTruncPair ? encode(entry.pair)
                                            : encode(entry.triple);
}

TEST(TripleStoreTest, ServesTheStreamInOrderAndFallsBackWhenDry) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey key = TripleKey::matmul(2, 3, 2);

  // Three planned entries (a window of 1.5 entries sends one ahead),
  // then five pops: the last two were never planned, so they miss and
  // are fetched at the cursor — same stream, in order.
  store.plan({key, key, key});
  EXPECT_EQ(store.in_flight(), 1u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const BeaverTripleShare triple = store.matmul_triple(2, 3, 2);
    EXPECT_EQ(encode(triple), encode(stream_entry(key, i)[0].triple))
        << "entry " << i;
  }
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.depth(key), 0u);
  EXPECT_EQ(store.in_flight(), 0u);
  EXPECT_EQ(store.consumed(key), 5u);
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

  EXPECT_EQ(backend.round_trips, 1u);
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
  // Four planned comparisons: the window (two entries) sends 0 and 1.
  store.plan({comp, comp, comp, comp});
  ASSERT_EQ(backend.sent.size(), 2u);

  // comp's entries 0 and 1 are in flight and only received; pair's 0
  // was never planned (a miss) and comp's planned 2 is sent now.  Once
  // the call consumed them, the freed window sends comp's planned 3.
  const std::vector<TripleKey> keys = {comp, pair, comp, comp};
  const std::vector<MaterialEntry> entries = store.next_many(keys);
  const std::vector<std::uint64_t> indices = {0, 0, 1, 2};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const MaterialBatch expected = std::move(
        deal_material(keys[i], indices[i], 1, kSeed, kF)[1]);
    EXPECT_EQ(encoded_entry(keys[i], entries[i]),
              encoded_entry(keys[i], expected[0]))
        << "entry " << i;
  }
  EXPECT_EQ(store.misses(), 1u);
  const std::vector<std::pair<TripleKey, std::uint64_t>> sent = {
      {comp, 0}, {comp, 1}, {pair, 0}, {comp, 2}, {comp, 3}};
  ASSERT_EQ(backend.sent.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(backend.sent[i].key, sent[i].first) << "send " << i;
    EXPECT_EQ(backend.sent[i].start, sent[i].second) << "send " << i;
  }

  // A call whose every key was sent ahead sends nothing.
  (void)store.next_many({comp});
  EXPECT_EQ(backend.sent.size(), sent.size());
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.in_flight(), 0u);
}

TEST(TripleStoreTest, SendsAheadWithinTheWindowAndNeverMissesAPlannedEntry) {
  CountingBackend backend(0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey big = TripleKey::mul(Shape{8});
  const TripleKey small = TripleKey::comp_aux(Shape{8});
  // One unit of mixed sizes: the window is half its bytes.
  const std::vector<TripleKey> unit = {big, small, big, small, big, small,
                                       big, small};
  store.plan(unit);
  const std::size_t unit_bytes = 4 * 3 * 8 * 24 + 4 * 8 * 24;
  EXPECT_EQ(store.window_bytes(), unit_bytes / TripleStore::kWindowDivisor);
  EXPECT_GT(store.in_flight(), 0u) << "the plan sends ahead at once";
  EXPECT_LE(store.held_bytes(), store.window_bytes());

  // Consumed in plan order, one or two entries a call: every entry was
  // planned, so none misses, and what is sent but not consumed never
  // exceeds the window.
  std::size_t at = 0;
  while (at < unit.size()) {
    const std::size_t take = std::min<std::size_t>(1 + at % 2,
                                                   unit.size() - at);
    const std::vector<TripleKey> keys(unit.begin() + at,
                                      unit.begin() + at + take);
    (void)store.next_many(keys);
    at += take;
    EXPECT_LE(store.held_bytes(), store.window_bytes()) << "after " << at;
  }
  EXPECT_EQ(store.misses(), 0u);
  EXPECT_EQ(backend.sent.size(), unit.size())
      << "each planned entry sent once";
  EXPECT_EQ(store.held_bytes(), 0u);

  // A key nobody planned costs one round trip per call.
  const TripleKey dry = TripleKey::mul(Shape{3});
  const std::size_t before = backend.round_trips;
  for (int call = 0; call < 3; ++call) {
    (void)store.next_many({dry, dry});
  }
  EXPECT_EQ(backend.round_trips, before + 3);
  EXPECT_EQ(store.misses(), 6u);
}

TEST(TripleStoreTest, KindsKeepIndependentStreams) {
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  const Shape shape{4, 2};
  store.plan({TripleKey::mul(shape), TripleKey::comp_aux(shape),
              TripleKey::trunc_pair(shape)});

  EXPECT_EQ(encode(store.mul_triple(shape)),
            encode(stream_entry(TripleKey::mul(shape), 0)[0].triple));
  EXPECT_EQ(encode(store.comp_aux(shape)),
            encode(stream_entry(TripleKey::comp_aux(shape), 0)[0].share));
  EXPECT_EQ(encode(store.trunc_pair(shape)),
            encode(stream_entry(TripleKey::trunc_pair(shape), 0)[0].pair));
  EXPECT_EQ(store.misses(), 0u);
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
    // Eight planned, four in flight (the window); consuming entry 0
    // sends entry 4.
    store.plan(std::vector<TripleKey>(8, key));
    (void)store.trunc_pair(Shape{3, 2});
    EXPECT_EQ(store.in_flight(), 4u);
    EXPECT_THROW(store.save(path, provenance), Error)
        << "fills in flight are received before a save";
    store.drain();
    EXPECT_EQ(store.in_flight(), 0u);
    EXPECT_EQ(store.depth(key), 4u);
    store.save(path, provenance);
  }

  DealerBackend backend(kSeed, kF, /*party=*/1);
  TripleStore restored(backend, /*party=*/1);
  EXPECT_THROW(restored.load(path, provenance + 1), SerializationError)
      << "provenance mismatch must fail loudly";
  ASSERT_TRUE(restored.load(path, provenance));
  EXPECT_EQ(restored.depth(key), 4u);
  EXPECT_EQ(restored.consumed(key), 1u);

  // The restored store resumes the stream exactly where the saved one
  // stopped: entries 1..4 from the file, entry 5 via fallback.
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const auto pairs = deal_material(key, i, 1, kSeed, kF);
    EXPECT_EQ(encode(restored.trunc_pair(Shape{3, 2})),
              encode(pairs[1][0].pair))
        << "entry " << i;
  }
  EXPECT_EQ(restored.misses(), 1u);
  std::remove(path.c_str());
}

TEST(TripleStoreTest, RestoredEntriesCoverPlansBeforeAnythingIsSent) {
  // A restored store is drawn down first: a plan that its held entries
  // already cover sends nothing, and the next one is sent as usual.
  const std::string path = ::testing::TempDir() + "triple_store_cover.bin";
  const TripleKey key = TripleKey::comp_triple(Shape{5});
  {
    DealerBackend backend(kSeed, kF, /*party=*/2);
    TripleStore store(backend, /*party=*/2);
    store.plan({key, key, key, key});
    store.drain();
    store.save(path, 7);
  }
  CountingBackend backend(2);
  TripleStore restored(backend, /*party=*/2);
  ASSERT_TRUE(restored.load(path, 7));
  ASSERT_EQ(restored.depth(key), 2u);
  restored.plan({key, key});
  EXPECT_TRUE(backend.sent.empty());
  restored.plan({key});
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto expected = deal_material(key, i, 1, kSeed, kF);
    EXPECT_EQ(encode(restored.next(key).triple),
              encode(expected[2][0].triple))
        << "entry " << i;
  }
  EXPECT_EQ(backend.sent.size(), 1u);
  EXPECT_EQ(restored.misses(), 0u);
  std::remove(path.c_str());
}

/// A TDST file holding one key header (and no entries), written the
/// way TripleStore::save lays it out.
void write_store_header(const std::string& path, TripleKind kind,
                        const Shape& dims, std::uint64_t cursor,
                        std::uint64_t depth, std::uint32_t version = 2) {
  ByteWriter writer;
  writer.write_u32(0x54534454);  // "TDST"
  writer.write_u32(version);
  writer.write_u64(0xfeedULL);
  writer.write_u32(0);
  writer.write_u64(1);
  writer.write_u8(static_cast<std::uint8_t>(kind));
  writer.write_u64(dims.size());
  for (std::size_t dim : dims) {
    writer.write_u64(dim);
  }
  writer.write_u64(cursor);
  if (version == 1) {
    writer.write_u64(4);  // version 1's refill target
  }
  writer.write_u64(depth);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
}

TEST(TripleStoreTest, CraftedHeadersFailAsSerializationErrors) {
  // Counts in a header must be checked before anything is sized from
  // them: a depth the file cannot hold, or a cursor the depth would
  // carry past 2^64, is corrupt; so is a key the dealer could not deal.
  const std::string path = ::testing::TempDir() + "triple_store_crafted.bin";
  const Shape shape{2};
  const struct {
    TripleKind kind;
    Shape dims;
    std::uint64_t cursor;
    std::uint64_t depth;
  } cases[] = {
      {TripleKind::kMul, shape, 0, std::uint64_t{1} << 40},
      {TripleKind::kMul, shape, 0, (std::uint64_t{1} << 63) + 1},
      {TripleKind::kCompAux, shape, ~std::uint64_t{0}, 1},
      {TripleKind::kMatMul, Shape{2, 2}, 0, 0},  // wrong arity
      {static_cast<TripleKind>(9), shape, 0, 0},  // unknown kind
      // Masked-conv keys {layer, version, batch, C, H, W, outC, kh, kw,
      // pad, stride}: wrong arity, zero stride, a kernel past the
      // padded input, an im2col size past SIZE_MAX.
      {TripleKind::kMaskedConv, Shape{0, 0, 1, 1, 4, 4, 1, 3, 3, 1}, 0, 0},
      {TripleKind::kMaskedConv, Shape{0, 0, 1, 1, 4, 4, 1, 3, 3, 1, 0}, 0, 0},
      {TripleKind::kMaskedConv, Shape{0, 0, 1, 1, 4, 4, 1, 7, 3, 1, 1}, 0, 0},
      {TripleKind::kMaskedConv,
       Shape{0, 0, std::size_t{1} << 40, 1, std::size_t{1} << 20,
             std::size_t{1} << 20, 1, 1, 1, 0, 1},
       0, 0},
      {TripleKind::kCompTriple, Shape{2, 2, 2}, 0, 0},  // wrong arity
      {TripleKind::kCompTriple, Shape{}, 0, 0},
      {TripleKind::kMul, Shape(kMaxKeyDims + 1, 1), 0, 0},  // rank
  };
  for (const auto& c : cases) {
    write_store_header(path, c.kind, c.dims, c.cursor, c.depth);
    DealerBackend backend(kSeed, kF, /*party=*/0);
    TripleStore store(backend, /*party=*/0);
    EXPECT_THROW(store.load(path, 0xfeedULL), SerializationError)
        << "kind " << static_cast<int>(c.kind) << " cursor " << c.cursor
        << " depth " << c.depth;
  }
  // A version-1 file (it carried refill targets) fails loudly.
  write_store_header(path, TripleKind::kMul, shape, 0, 0, /*version=*/1);
  {
    DealerBackend backend(kSeed, kF, /*party=*/0);
    TripleStore store(backend, /*party=*/0);
    EXPECT_THROW(store.load(path, 0xfeedULL), SerializationError);
  }
  // A versioned key long past its first entries still loads and
  // resumes at its cursor.
  write_store_header(path, TripleKind::kMaskedMatMul,
                     Shape{0, 0, 0, 1, 1, 1}, std::uint64_t{1} << 40, 0);
  DealerBackend backend(kSeed, kF, /*party=*/0);
  TripleStore store(backend, /*party=*/0);
  ASSERT_TRUE(store.load(path, 0xfeedULL));
  const TripleKey key = TripleKey::masked_matmul(0, 0, false, 1, 1, 1);
  EXPECT_EQ(store.consumed(key), std::uint64_t{1} << 40);
  EXPECT_EQ(store.next(key).triple.a.primary,
            stream_entry(key, std::uint64_t{1} << 40)[0].triple.a.primary);
  // So does a well-formed masked-conv key, the widest one.
  ConvSpec conv;
  conv.in_height = 4;
  conv.in_width = 4;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  conv.pad = 1;
  const TripleKey conv_key = TripleKey::masked_conv(0, 0, 1, conv);
  ASSERT_EQ(conv_key.dims.size(), kMaxKeyDims);
  write_store_header(path, TripleKind::kMaskedConv, conv_key.dims, 0, 0);
  TripleStore conv_store(backend, /*party=*/0);
  ASSERT_TRUE(conv_store.load(path, 0xfeedULL));
  EXPECT_EQ(conv_store.consumed(conv_key), 0u);
  std::remove(path.c_str());
}

TEST(TripleStoreTest, VersionedStreamsDeliverTotalsAndRetire) {
  CountingBackend backend(0);
  TripleStore store(backend, /*party=*/0);
  const TripleKey v0 = TripleKey::masked_matmul(1, 0, false, 2, 3, 4);
  const TripleKey v1 = TripleKey::masked_matmul(1, 1, false, 2, 3, 4);
  store.plan({v0, v0, v1});
  (void)store.next(v0);
  (void)store.next(v0);
  // A finished version is never sent again: its plan delivered exactly
  // what was consumed.
  EXPECT_EQ(store.consumed(v0), 2u);
  EXPECT_EQ(backend.sent.size(), 3u);
  EXPECT_EQ(store.in_flight(), 1u) << "v1's entry";

  store.retire_versions_before(1);
  EXPECT_EQ(store.consumed(v0), 0u) << "drained older version dropped";
  EXPECT_EQ(store.next(v1).triple.a.primary,
            stream_entry(v1, 0)[0].triple.a.primary)
      << "current version kept";
  EXPECT_EQ(store.misses(), 0u);
}

// --- Engine-level equivalence ----------------------------------------

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

core::EngineConfig job_config() {
  core::EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  return config;
}

/// Each party's TDST file under config.triple_store_dir, holding the
/// material of the job's first `steps` steps, dealt ahead — as a store
/// that dealt them and then stopped would leave it.
void deal_ahead_to_disk(const core::EngineConfig& config,
                        const nn::ModelSpec& spec,
                        const std::vector<std::size_t>& batch_rows,
                        bool training, std::size_t steps) {
  const std::uint64_t seed =
      core::make_owner_service_config(config, training).seed;
  // The steps' keys as an engine party plans them (core/actors.cpp).
  std::vector<PartyShare> zeros;
  for (const Shape& shape : nn::parameter_shapes(spec)) {
    zeros.push_back(zero_share(shape));
  }
  const core::SecureModel model(spec, std::move(zeros));
  core::SecureExecContext ctx;
  ctx.trunc_mode = config.resolved_trunc_mode();
  ctx.reuse_masks = config.reuse_masks;
  std::vector<TripleKey> keys;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::vector<TripleKey> unit = model.step_keys(
        ctx, Shape{batch_rows[step], spec.input_features},
        training ? step : 0, training || step == 0, training);
    keys.insert(keys.end(), unit.begin(), unit.end());
  }
  std::vector<std::pair<TripleKey, std::size_t>> counts;
  for (const TripleKey& key : keys) {
    const auto it = std::find_if(counts.begin(), counts.end(),
                                 [&](const auto& c) { return c.first == key; });
    if (it == counts.end()) {
      counts.emplace_back(key, 1);
    } else {
      ++it->second;
    }
  }
  for (int party = 0; party < 3; ++party) {
    const StoreFile file = core::triple_store_file(config, party, training);
    ByteWriter writer;
    writer.write_u32(0x54534454);  // "TDST"
    writer.write_u32(2);
    writer.write_u64(file.provenance);
    writer.write_u32(static_cast<std::uint32_t>(party));
    writer.write_u64(counts.size());
    for (const auto& [key, count] : counts) {
      writer.write_u8(static_cast<std::uint8_t>(key.kind));
      writer.write_u64(key.dims.size());
      for (std::size_t dim : key.dims) {
        writer.write_u64(dim);
      }
      writer.write_u64(0);  // cursor
      writer.write_u64(count);
      const auto views = deal_material(key, 0, count, seed, config.frac_bits);
      for (const MaterialEntry& entry :
           views[static_cast<std::size_t>(party)]) {
        write_material_entry(writer, key.kind, entry);
      }
    }
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
  }
}

/// The run's triple ledger, from the metrics registry.
struct Ledger {
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  std::uint64_t misses = 0;
  std::uint64_t held = 0;
  std::uint64_t fills_sent = 0;
  std::uint64_t fills_answered = 0;
};

Ledger read_ledger() {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  Ledger ledger;
  ledger.produced = snapshot.counter_sum("triple.produced");
  ledger.consumed = snapshot.counter_sum("triple.consumed");
  ledger.misses = snapshot.counter_sum("triple.store.miss");
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name.rfind("triple.store.depth", 0) == 0) {
      ledger.held += static_cast<std::uint64_t>(gauge.value);
    }
  }
  ledger.fills_sent = snapshot.counter_sum("net.sent.messages.req");
  ledger.fills_answered = snapshot.counter_sum("net.sent.messages.rsp");
  return ledger;
}

TEST(PrefetchExactnessTest, InferLabelsBitIdenticalAndStoreNeverMisses) {
  // The same inference job cold and with its first batch already dealt
  // to disk: the restored entries are served first and everything else
  // is dealt ahead as usual.  What was dealt ahead, and when, never
  // changes a label, and no entry is ever fetched as a miss.
  const auto split = tiny_split(30, 16, /*side=*/12);  // tiny CNN input
  const data::Dataset sample = data::slice(split.test, 0, 6);
  const std::string dir = ::testing::TempDir() + "prefetch_exact_infer";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::array<std::vector<std::size_t>, 2> labels;
  std::array<Ledger, 2> ledgers;
  for (const bool restored : {false, true}) {
    core::EngineConfig config = job_config();
    if (restored) {
      config.triple_store_dir = dir;
      deal_ahead_to_disk(config, nn::tiny_cnn_spec(), {4, 2},
                         /*training=*/false, /*steps=*/1);
    }
    obs::MetricsRegistry::global().reset();
    obs::set_metrics_enabled(true);
    core::TrustDdlEngine engine(nn::tiny_cnn_spec(), config);
    labels[restored] = engine.infer(sample, /*batch_size=*/4).labels;
    obs::set_metrics_enabled(false);
    ledgers[restored] = read_ledger();
  }

  EXPECT_EQ(labels[1], labels[0]);
  for (const Ledger& ledger : ledgers) {
    EXPECT_EQ(ledger.misses, 0u);
    EXPECT_GT(ledger.consumed, 0u);
    EXPECT_EQ(ledger.produced, ledger.consumed + ledger.held);
  }
  EXPECT_EQ(ledgers[1].consumed, ledgers[0].consumed);
  // The restored run was dealt only what the disk did not hold.
  EXPECT_EQ(ledgers[0].fills_answered, ledgers[0].produced);
  EXPECT_LT(ledgers[1].fills_answered, ledgers[0].fills_answered);
  std::filesystem::remove_all(dir);
}

TEST(PrefetchExactnessTest, TrainedWeightsBitIdenticalWithPrefetch) {
  // The acceptance bar for the offline/online split: whatever was
  // dealt ahead — here the first two steps' material restored from
  // disk, the rest sent ahead step by step — each stream is consumed in
  // index order, so the trained weights match BIT FOR BIT, masked-open
  // truncation included (it consumes trunc-pair streams).
  const auto split = tiny_split(32, 12);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.learning_rate = 0.3;
  const std::string dir = ::testing::TempDir() + "prefetch_exact_train";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto train_weights = [&](bool restored) {
    core::EngineConfig config = job_config();
    config.trunc_mode = TruncationMode::kMaskedOpen;
    config.collect_timeout = std::chrono::seconds(30);
    if (restored) {
      config.triple_store_dir = dir;
      deal_ahead_to_disk(config, nn::mnist_mlp_spec(), {8, 8, 8, 8},
                         /*training=*/true, /*steps=*/2);
    }
    core::TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
    (void)engine.train(split.train, split.test, options);
    std::vector<RealTensor> weights;
    for (nn::Parameter* parameter : engine.reference_model().parameters()) {
      weights.push_back(parameter->value);
    }
    return weights;
  };

  const auto cold = train_weights(false);
  const auto restored = train_weights(true);
  ASSERT_EQ(cold.size(), restored.size());
  ASSERT_FALSE(cold.empty());
  for (std::size_t p = 0; p < cold.size(); ++p) {
    EXPECT_EQ(cold[p], restored[p]) << "parameter " << p;
  }
  std::filesystem::remove_all(dir);
}

// The offline/online pipeline end to end (DESIGN.md §10): planning,
// send-ahead, persistence and restore through the engine.
TEST(TriplePipelineTest, EngineJobLedgerBalancesWithNothingInFlight) {
  // Every entry a party planned is consumed by the end of a job: the
  // ledger balances kind by kind, nothing missed, and every fill sent
  // was answered and received (one entry per fill).
  const auto split = tiny_split(12, 6);
  const data::Dataset sample = data::slice(split.test, 0, 6);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 4;
  for (const bool training : {false, true}) {
    obs::MetricsRegistry::global().reset();
    obs::set_metrics_enabled(true);
    core::TrustDdlEngine engine(nn::mnist_cnn_spec(), job_config());
    if (training) {
      (void)engine.train(split.train, split.test, options);
    } else {
      (void)engine.infer(sample, /*batch_size=*/4);
    }
    obs::set_metrics_enabled(false);
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    const Ledger ledger = read_ledger();
    EXPECT_GT(ledger.produced, 0u) << "training " << training;
    EXPECT_EQ(ledger.produced, ledger.consumed) << "training " << training;
    EXPECT_EQ(ledger.held, 0u) << "training " << training;
    EXPECT_EQ(ledger.misses, 0u) << "training " << training;
    EXPECT_EQ(ledger.fills_sent, ledger.produced) << "training " << training;
    EXPECT_EQ(ledger.fills_answered, ledger.produced)
        << "training " << training;
    for (std::uint8_t kind = 0; kind <= 7; ++kind) {
      const std::string name =
          triple_kind_name(static_cast<TripleKind>(kind));
      EXPECT_EQ(snapshot.counter_sum("triple.produced." + name),
                snapshot.counter_sum("triple.consumed." + name))
          << name;
    }
  }
}

TEST(TripleStoreTest, PersistDrainsFillsInFlightAndARestoreResumes) {
  // A store persisted with fills in flight receives them before it
  // saves, and the next store over its file resumes at the cursor with
  // them.
  const std::string dir = ::testing::TempDir() + "pipeline_in_flight";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::EngineConfig config = job_config();
  config.triple_store_dir = dir;
  const StoreFile file = core::triple_store_file(config, 0, false);
  const TripleKey key = TripleKey::trunc_pair(Shape{2, 2});
  const std::uint64_t seed =
      core::make_owner_service_config(config, false).seed;
  {
    DealerBackend backend(seed, config.frac_bits, /*party=*/0);
    TripleStore store(backend, 0, file);
    store.plan(std::vector<TripleKey>(6, key));
    (void)store.next(key);
    ASSERT_GT(store.in_flight(), 0u);
    store.persist();
    EXPECT_EQ(store.in_flight(), 0u);
  }
  DealerBackend backend(seed, config.frac_bits, /*party=*/0);
  TripleStore restored(backend, 0, file);
  EXPECT_EQ(restored.consumed(key), 1u);
  EXPECT_EQ(restored.depth(key), 3u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(encode(restored.next(key).pair),
              encode(deal_material(key, i, 1, seed, config.frac_bits)[0][0]
                         .pair))
        << "entry " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(TriplePipelineTest, PersistedStoreSurvivesARestart) {
  // Same job twice against one store dir: the first run persists its
  // stream cursors; the second restores them and resumes the streams
  // mid-cursor.  Results stay correct because the entries are
  // position-addressed, not arrival-ordered.
  core::EngineConfig config = job_config();
  config.triple_store_dir = ::testing::TempDir();
  const auto remove_files = [&] {
    for (int party = 0; party < 3; ++party) {
      std::remove(core::triple_store_file(config, party, false).path.c_str());
    }
  };
  remove_files();
  const auto split = tiny_split(20, 12);
  const data::Dataset sample = data::slice(split.test, 0, 6);

  core::TrustDdlEngine first(nn::mnist_mlp_spec(), config);
  const auto first_result = first.infer(sample, /*batch_size=*/3);

  core::TrustDdlEngine second(nn::mnist_mlp_spec(), config);
  const auto second_result = second.infer(sample, /*batch_size=*/3);
  EXPECT_EQ(second_result.labels, first_result.labels);
  remove_files();
}

}  // namespace
}  // namespace trustddl::mpc
