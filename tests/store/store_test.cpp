// Content-addressed store suite: key-derivation stability pins, the
// sharded on-disk layout, deterministic LRU eviction under a byte budget,
// quarantine of corrupted entries, and index recovery (corrupt or missing
// journal -> rebuild from the object scan).
#include "store/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/faults.hpp"
#include "store/key.hpp"

namespace tbp::store {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Index membership, read without touching LRU ticks or hit counters.
bool indexed(const ContentStore& store, const StoreKey& key) {
  const std::vector<StoreEntryInfo> rows = store.entries();
  return std::any_of(rows.begin(), rows.end(), [&](const StoreEntryInfo& row) {
    return row.id == key.id;
  });
}

// ---- key derivation ----

TEST(StoreKeyTest, DerivationIsPinnedForever) {
  // These literals are the on-disk addressing contract: if any of them
  // moves, every deployed store goes cold.  Never update the expectations
  // without bumping kStoreEpoch.
  EXPECT_EQ(make_key("row", "tbpoint-row-v3", "stream_d4_s7b90147_cdeadbeef",
                     "x")
                .id,
            "571bf6d6424920d54fbed12d4afcc955");
  EXPECT_EQ(make_key("response", "tbp-manifest-v1", "{\"a\":1}", "x").id,
            "2d0aff44f10f7ee5ddd4f6584ea6b165");
  EXPECT_EQ(make_key("test", "v1", "payload", "x").id,
            "b97a1729257d5fdfcbeac197744de25f");
  KeyHasher hasher;
  hasher.field("abc").field_u64(123);
  EXPECT_EQ(hasher.hex(), "fb32ad7e611abdad63276103fe6e9d2d");
}

TEST(StoreKeyTest, FieldsAreDelimited) {
  // Length-prefixed fields: shifting bytes across a field boundary must
  // change the hash, or distinct inputs would alias one entry.
  KeyHasher ab_c;
  ab_c.field("ab").field("c");
  KeyHasher a_bc;
  a_bc.field("a").field("bc");
  EXPECT_NE(ab_c.hex(), a_bc.hex());

  EXPECT_NE(make_key("row", "v1", "data", "x").id,
            make_key("row", "v2", "data", "x").id);
  EXPECT_NE(make_key("row", "v1", "data", "x").id,
            make_key("response", "v1", "data", "x").id);
  // The label is diagnostic only — it never participates in addressing.
  EXPECT_EQ(make_key("row", "v1", "data", "x").id,
            make_key("row", "v1", "data", "other-label").id);
}

TEST(StoreKeyTest, Validation) {
  EXPECT_TRUE(valid_key_id("571bf6d6424920d54fbed12d4afcc955"));
  EXPECT_FALSE(valid_key_id(""));
  EXPECT_FALSE(valid_key_id("571bf6d6424920d54fbed12d4afcc95"));    // 31
  EXPECT_FALSE(valid_key_id("571bf6d6424920d54fbed12d4afcc9555"));  // 33
  EXPECT_FALSE(valid_key_id("571BF6D6424920D54FBED12D4AFCC955"));   // upper
  EXPECT_FALSE(valid_key_id("571bf6d6424920d54fbed12d4afcc95g"));   // non-hex

  EXPECT_TRUE(valid_label("stream-d48_sms4.v1:x"));
  EXPECT_FALSE(valid_label(""));
  EXPECT_FALSE(valid_label("has space"));
  EXPECT_FALSE(valid_label("has/slash"));
  EXPECT_FALSE(valid_label("has\nnewline"));
}

// ---- round trip and layout ----

TEST(StoreTest, RoundTripUsesShardedLayout) {
  const std::string dir = fresh_dir("tbp_store_roundtrip");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());

  const StoreKey key = make_key("test", "v1", "payload", "round-trip");
  ASSERT_TRUE(store.put(key, "the payload bytes\n").ok());

  // Two-level sharding: objects/<first 2 hex>/<remaining 30 hex>.tbp.
  const fs::path path = store.entry_path(key);
  EXPECT_EQ(path.parent_path().filename().string(), key.id.substr(0, 2));
  EXPECT_EQ(path.filename().string(), key.id.substr(2) + ".tbp");
  EXPECT_EQ(path.parent_path().parent_path().filename().string(), "objects");
  EXPECT_TRUE(fs::is_regular_file(path));
  // Entries are sealed artifacts, never raw payload bytes.
  EXPECT_EQ(read_file(path).rfind("tbp-store-entry-v1", 0), 0u);

  const auto loaded = store.get(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "the payload bytes\n");
  EXPECT_TRUE(indexed(store, key));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().puts, 1u);
}

TEST(StoreTest, OverwriteReplacesPayloadAndBytes) {
  const std::string dir = fresh_dir("tbp_store_overwrite");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());

  const StoreKey key = make_key("test", "v1", "payload", "overwrite");
  ASSERT_TRUE(store.put(key, "first").ok());
  const std::uint64_t first_total = store.total_bytes();
  ASSERT_TRUE(store.put(key, "the much longer second payload").ok());
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_GT(store.total_bytes(), first_total);

  const auto loaded = store.get(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "the much longer second payload");
}

TEST(StoreTest, MissIsNotFoundAndCounted) {
  const std::string dir = fresh_dir("tbp_store_miss");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  const auto loaded = store.get(make_key("test", "v1", "absent", "absent"));
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(StoreTest, MissingDirWithoutCreateIsNotFound) {
  const std::string dir = fresh_dir("tbp_store_nocreate");
  ContentStore store(dir, StoreOptions{.create = false});
  const Status opened = store.open();
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs::exists(dir));  // a read-only probe must not create it
}

TEST(StoreTest, RemoveDropsEntry) {
  const std::string dir = fresh_dir("tbp_store_remove");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  const StoreKey key = make_key("test", "v1", "removable", "removable");
  ASSERT_TRUE(store.put(key, "bytes").ok());
  ASSERT_TRUE(store.remove(key).ok());
  EXPECT_FALSE(indexed(store, key));
  EXPECT_FALSE(fs::exists(store.entry_path(key)));
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_EQ(store.remove(key).code(), StatusCode::kNotFound);
}

// ---- persistence ----

TEST(StoreTest, IndexPersistsAcrossReopen) {
  const std::string dir = fresh_dir("tbp_store_reopen");
  const StoreKey a = make_key("test", "v1", "a", "entry-a");
  const StoreKey b = make_key("test", "v1", "b", "entry-b");
  {
    ContentStore store(dir, StoreOptions{});
    ASSERT_TRUE(store.open().ok());
    ASSERT_TRUE(store.put(a, "payload a").ok());
    ASSERT_TRUE(store.put(b, "payload b").ok());
    // A get refreshes a's LRU tick; flush journals it.
    ASSERT_TRUE(store.get(a).has_value());
    ASSERT_TRUE(store.flush_index().ok());
  }
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  // Loaded from the journal, not rebuilt from a scan.
  EXPECT_EQ(store.stats().rebuilds, 0u);
  EXPECT_EQ(store.entry_count(), 2u);
  const auto loaded = store.get(b);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload b");

  // The flushed get-tick survived: a is more recently used than b was.
  std::uint64_t a_tick = 0, b_tick = 0;
  for (const StoreEntryInfo& info : store.entries()) {
    if (info.id == a.id) a_tick = info.last_use;
  }
  // b's tick was just refreshed by the get above; compare a against its
  // journaled put tick instead: a was put first (tick 1) then read (tick 3).
  EXPECT_EQ(a_tick, 3u);
  (void)b_tick;
}

// ---- LRU eviction ----

TEST(StoreTest, LruEvictionIsDeterministic) {
  const std::string dir = fresh_dir("tbp_store_lru");
  // Budget fits two sealed entries of this payload size.
  const std::string payload(256, 'x');
  ContentStore store(dir, StoreOptions{.max_bytes = 800});
  ASSERT_TRUE(store.open().ok());

  const StoreKey a = make_key("test", "v1", "lru-a", "lru-a");
  const StoreKey b = make_key("test", "v1", "lru-b", "lru-b");
  const StoreKey c = make_key("test", "v1", "lru-c", "lru-c");
  ASSERT_TRUE(store.put(a, payload).ok());
  ASSERT_TRUE(store.put(b, payload).ok());
  ASSERT_EQ(store.entry_count(), 2u);

  // Touch a so b becomes the least recently used ...
  ASSERT_TRUE(store.get(a).has_value());
  // ... then push the store over budget: b must be the victim.
  ASSERT_TRUE(store.put(c, payload).ok());
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_TRUE(indexed(store, a));
  EXPECT_FALSE(indexed(store, b));
  EXPECT_TRUE(indexed(store, c));
  EXPECT_FALSE(fs::exists(store.entry_path(b)));
  EXPECT_LE(store.total_bytes(), 800u);
}

TEST(StoreTest, EvictionNeverDropsTheEntryJustWritten) {
  const std::string dir = fresh_dir("tbp_store_keep_new");
  ContentStore store(dir, StoreOptions{.max_bytes = 1});
  ASSERT_TRUE(store.open().ok());
  const StoreKey a = make_key("test", "v1", "keep-a", "keep-a");
  const StoreKey b = make_key("test", "v1", "keep-b", "keep-b");
  ASSERT_TRUE(store.put(a, "over budget on its own").ok());
  EXPECT_TRUE(indexed(store, a));  // sole entry is never evicted
  ASSERT_TRUE(store.put(b, "also over budget").ok());
  // a went; the just-written b stayed even though the budget is blown.
  EXPECT_FALSE(indexed(store, a));
  EXPECT_TRUE(indexed(store, b));
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(StoreTest, EvictionTiesBreakByKeyId) {
  const std::string dir = fresh_dir("tbp_store_ties");
  const std::string payload(256, 'y');
  const StoreKey a = make_key("test", "v1", "tie-a", "tie-a");
  const StoreKey b = make_key("test", "v1", "tie-b", "tie-b");
  {
    ContentStore store(dir, StoreOptions{});
    ASSERT_TRUE(store.open().ok());
    ASSERT_TRUE(store.put(a, payload).ok());
    ASSERT_TRUE(store.put(b, payload).ok());
  }
  // A rebuild resets every survivor to tick 0, making the LRU order a pure
  // id tie; the eviction victim must then be the smaller id.
  ContentStore store(dir, StoreOptions{.max_bytes = 800});
  ASSERT_TRUE(store.open().ok());
  ASSERT_TRUE(store.rebuild_index().ok());
  const StoreKey c = make_key("test", "v1", "tie-c", "tie-c");
  ASSERT_TRUE(store.put(c, payload).ok());
  const StoreKey& low = a.id < b.id ? a : b;
  const StoreKey& high = a.id < b.id ? b : a;
  EXPECT_FALSE(indexed(store, low));
  EXPECT_TRUE(indexed(store, high));
  EXPECT_TRUE(indexed(store, c));
}

// ---- corruption quarantine ----

TEST(StoreTest, CorruptEntryQuarantinedOnGet) {
  const std::string dir = fresh_dir("tbp_store_quarantine");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  const StoreKey key = make_key("test", "v1", "victim", "victim");
  ASSERT_TRUE(store.put(key, "victim payload").ok());
  const std::string pristine = read_file(store.entry_path(key));

  write_file(store.entry_path(key), harness::truncate_at(pristine, 20));
  const auto first = store.get(key);
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(store.stats().quarantined, 1u);
  // Quarantine deleted the file and dropped the index row: clean miss next.
  EXPECT_FALSE(fs::exists(store.entry_path(key)));
  const auto second = store.get(key);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.status().code(), StatusCode::kNotFound);
}

TEST(StoreTest, EveryCorruptionVariantIsRejected) {
  const std::string dir = fresh_dir("tbp_store_faults");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  const StoreKey key = make_key("test", "v1", "pristine", "pristine");
  const StoreKey donor_key = make_key("test", "v1", "donor", "donor");
  ASSERT_TRUE(store.put(key, "pristine payload bytes").ok());
  ASSERT_TRUE(store.put(donor_key, "donor payload bytes").ok());
  const std::string pristine = read_file(store.entry_path(key));
  const std::string donor = read_file(store.entry_path(donor_key));

  for (const harness::Corruption& corruption :
       harness::corruption_suite(pristine, donor)) {
    // The donor is a complete valid entry — but for a *different* key, so
    // unlike the plain artifact loaders the store must reject it too (the
    // id header pins the body to its path).  Only the pristine bytes load.
    if (corruption.payload == pristine) continue;
    write_file(store.entry_path(key), corruption.payload);
    const auto loaded = store.get(key);
    EXPECT_FALSE(loaded.has_value())
        << "store served corruption " << corruption.name;
    if (!loaded.has_value()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt)
          << corruption.name;
    }
    // Re-adopt the entry for the next variant.
    ASSERT_TRUE(store.put(key, "pristine payload bytes").ok());
  }
}

TEST(StoreTest, SplicedDonorEntryDetectedByIdHeader) {
  const std::string dir = fresh_dir("tbp_store_splice");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  const StoreKey key = make_key("test", "v1", "spliced", "spliced");
  const StoreKey donor_key = make_key("test", "v1", "donor2", "donor2");
  ASSERT_TRUE(store.put(key, "original").ok());
  ASSERT_TRUE(store.put(donor_key, "donor").ok());

  // A whole valid entry copied under the wrong key: checksum passes, the
  // body's id header does not.
  write_file(store.entry_path(key), read_file(store.entry_path(donor_key)));
  const auto loaded = store.get(key);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
  // The donor's own entry is untouched.
  const auto donor_loaded = store.get(donor_key);
  ASSERT_TRUE(donor_loaded.has_value());
  EXPECT_EQ(*donor_loaded, "donor");
}

// ---- index recovery ----

TEST(StoreTest, CorruptIndexIsRebuiltFromObjects) {
  const std::string dir = fresh_dir("tbp_store_badindex");
  const StoreKey a = make_key("test", "v1", "ri-a", "ri-a");
  const StoreKey b = make_key("test", "v1", "ri-b", "ri-b");
  {
    ContentStore store(dir, StoreOptions{});
    ASSERT_TRUE(store.open().ok());
    ASSERT_TRUE(store.put(a, "payload a").ok());
    ASSERT_TRUE(store.put(b, "payload b").ok());
  }
  write_file(fs::path(dir) / "index.tbp", "not an index at all\n");

  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  EXPECT_EQ(store.stats().rebuilds, 1u);
  EXPECT_EQ(store.entry_count(), 2u);
  const auto loaded = store.get(a);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload a");
  // Survivors restart at tick 0 in key order (the get above advanced a).
  for (const StoreEntryInfo& info : store.entries()) {
    if (info.id == b.id) {
      EXPECT_EQ(info.last_use, 0u);
    }
  }
}

TEST(StoreTest, MissingIndexWithObjectsIsRebuilt) {
  const std::string dir = fresh_dir("tbp_store_noindex");
  const StoreKey a = make_key("test", "v1", "mi-a", "mi-a");
  {
    ContentStore store(dir, StoreOptions{});
    ASSERT_TRUE(store.open().ok());
    ASSERT_TRUE(store.put(a, "payload a").ok());
  }
  fs::remove(fs::path(dir) / "index.tbp");

  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  EXPECT_EQ(store.stats().rebuilds, 1u);
  EXPECT_TRUE(indexed(store, a));
  // A fresh empty directory, by contrast, is not a recovery.
  ContentStore fresh(fresh_dir("tbp_store_fresh"), StoreOptions{});
  ASSERT_TRUE(fresh.open().ok());
  EXPECT_EQ(fresh.stats().rebuilds, 0u);
}

TEST(StoreTest, RebuildQuarantinesTornEntriesAndDeletesTemps) {
  const std::string dir = fresh_dir("tbp_store_rebuild");
  const StoreKey good = make_key("test", "v1", "rb-good", "rb-good");
  const StoreKey torn = make_key("test", "v1", "rb-torn", "rb-torn");
  ContentStore store(dir, StoreOptions{});
  ASSERT_TRUE(store.open().ok());
  ASSERT_TRUE(store.put(good, "good payload").ok());
  ASSERT_TRUE(store.put(torn, "torn payload").ok());

  // A writer that died mid-write leaves a truncated entry (only reachable
  // across processes — in-process writes are atomic) plus a stray temp.
  const std::string torn_bytes = read_file(store.entry_path(torn));
  write_file(store.entry_path(torn),
             harness::truncate_at(torn_bytes, torn_bytes.size() / 2));
  const fs::path shard = store.entry_path(good).parent_path();
  write_file(shard / "x.tmp.123.4", "incomplete temp garbage");
  write_file(shard / "not-an-entry.tbp", "junk with the right suffix");

  ASSERT_TRUE(store.rebuild_index().ok());
  EXPECT_TRUE(indexed(store, good));
  EXPECT_FALSE(indexed(store, torn));
  EXPECT_FALSE(fs::exists(store.entry_path(torn)));
  EXPECT_FALSE(fs::exists(shard / "x.tmp.123.4"));
  EXPECT_FALSE(fs::exists(shard / "not-an-entry.tbp"));
  EXPECT_GE(store.stats().quarantined, 2u);  // torn entry + junk name
  const auto loaded = store.get(good);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "good payload");
}

}  // namespace
}  // namespace tbp::store
