// Differential tests for the memoized tuple identities: the cached
// Vid/SerializedSize/Hash64 must equal the values computed the slow way
// (materialize the canonical encoding, hash the buffer), and table and
// store byte accounting must equal independent buffer-based recomputation.
#include <gtest/gtest.h>

#include "src/core/prov_tables.h"
#include "src/db/table.h"
#include "src/db/tuple.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace dpc {
namespace {

Value RandomValue(Rng& rng) {
  if (rng.NextBelow(2) == 0) {
    return Value::Int(static_cast<int64_t>(rng.Next()));
  }
  size_t len = rng.NextBelow(40);
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return Value::Str(std::move(s));
}

Tuple RandomTuple(Rng& rng) {
  std::string rel = "rel" + std::to_string(rng.NextBelow(16));
  std::vector<Value> values;
  values.push_back(Value::Int(static_cast<int64_t>(rng.NextBelow(100))));
  size_t arity = 1 + rng.NextBelow(6);
  for (size_t i = 1; i < arity; ++i) values.push_back(RandomValue(rng));
  return Tuple(std::move(rel), std::move(values));
}

// The slow path the caches replace: serialize into a scratch buffer.
std::vector<uint8_t> CanonicalBytes(const Tuple& t) {
  ByteWriter w;
  t.Serialize(w);
  return w.Take();
}

TEST(IdentityCacheTest, CachedIdentitiesEqualFreshOnRandomTuples) {
  Rng rng(20170514);
  for (int i = 0; i < 1000; ++i) {
    Tuple t = RandomTuple(rng);
    // Warm every cache, in an order that exercises cross-dependencies
    // (Vid() internally uses SerializedSize()).
    const Sha1Digest& cached_vid = t.Vid();
    size_t cached_size = t.SerializedSize();
    uint64_t cached_hash = t.Hash64();

    std::vector<uint8_t> bytes = CanonicalBytes(t);
    EXPECT_EQ(cached_size, bytes.size());
    EXPECT_EQ(cached_vid, Sha1::Hash(bytes.data(), bytes.size()));
    // The streaming FNV hash must equal FNV over the serialized buffer:
    // the container hash is defined by the canonical encoding.
    EXPECT_EQ(cached_hash, Fnv1a::HashBytes(bytes.data(), bytes.size()));

    // Second reads return the same values (memoization is stable).
    EXPECT_EQ(t.Vid(), cached_vid);
    EXPECT_EQ(t.SerializedSize(), cached_size);
    EXPECT_EQ(t.Hash64(), cached_hash);

    // A cold copy built from the same content agrees with the warm one.
    Tuple fresh(t.relation(), t.values());
    EXPECT_EQ(fresh, t);
    EXPECT_EQ(fresh.Hash64(), cached_hash);
    EXPECT_EQ(fresh.SerializedSize(), cached_size);
    EXPECT_EQ(fresh.Vid(), cached_vid);
  }
}

TEST(IdentityCacheTest, TableBytesEqualBufferSerialization) {
  Rng rng(42);
  Table table("t");
  for (int i = 0; i < 300; ++i) table.Insert(RandomTuple(rng));
  // Erase a third so live accounting paths (revive/erase) are exercised.
  std::vector<Tuple> snapshot = table.Snapshot();
  for (size_t i = 0; i < snapshot.size(); i += 3) table.Erase(snapshot[i]);
  // Re-insert a few of the erased (slot revival).
  for (size_t i = 0; i < snapshot.size(); i += 9) table.Insert(snapshot[i]);

  ByteWriter w;
  table.Serialize(w);
  EXPECT_EQ(table.SerializedSize(), w.size());
}

TEST(IdentityCacheTest, TupleStoreBytesEqualBufferSerialization) {
  Rng rng(7);
  TupleStore store;
  size_t expected = 0;
  for (int i = 0; i < 300; ++i) {
    Tuple t = RandomTuple(rng);
    std::vector<uint8_t> bytes = CanonicalBytes(t);
    if (store.Put(t)) expected += 20 + bytes.size();  // key digest + content
  }
  EXPECT_EQ(store.SerializedBytes(), expected);
}

TEST(IdentityCacheTest, StoreSharesCallerAllocation) {
  TupleRef t = MakeTupleRef(Tuple("r", {Value::Int(1), Value::Int(2)}));
  TupleStore store;
  EXPECT_TRUE(store.Put(t));
  EXPECT_FALSE(store.Put(t));  // duplicate: no state change
  const Tuple* found = store.Find(t->Vid());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, t.get());  // same allocation, not a copy
}

}  // namespace
}  // namespace dpc
