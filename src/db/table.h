// Table: an in-memory relation instance with set semantics and stable
// iteration order. A digest index provides O(1) duplicate detection and
// deletion; in addition, lazily-built hash indexes over planner-chosen
// column signatures let rule evaluation probe matching tuples instead of
// scanning the whole relation (src/analysis/planner.h derives the
// signatures; src/runtime wires them into the hot path).
//
// Rows are stored as shared-immutable TupleRefs: evaluation hands the same
// allocation (with its memoized VID/size/hash) to every rule firing and
// recorder that joins the row, instead of copying the tuple per candidate.
// Join-index buckets key on the cheap 64-bit FNV content hash — probing an
// index never runs SHA-1; the main digest index keeps the SHA-1 VID (which
// the row's tuple memoizes) as its collision-free identity.
#ifndef DPC_DB_TABLE_H_
#define DPC_DB_TABLE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/db/tuple.h"

namespace dpc {

// A hash-index key shape: the sorted column positions whose values the
// index groups by. Derived statically per slow-changing relation by the
// rule planner from the bound columns of each join probe.
using IndexSignature = std::vector<size_t>;

// "[c0,c1,...]", e.g. "[0,2]".
std::string IndexSignatureToString(const IndexSignature& sig);

class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Inserts `t`; returns false if an equal tuple was already present.
  // The TupleRef overload shares the caller's allocation (no copy); the
  // Tuple overload allocates only when the tuple is actually new.
  bool Insert(const Tuple& t);
  bool Insert(TupleRef t);

  // Removes `t`; returns false if it was not present.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const;

  // Live tuples, in insertion order.
  std::vector<Tuple> Snapshot() const;

  // Applies `fn` to each live tuple; `fn` returns false to stop early.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& slot : rows_) {
      if (!slot.live) continue;
      if (!fn(*slot.tuple)) return;
    }
  }

  // As ForEach, but hands out the shared row handle so callers (the join
  // loops) can retain the tuple without copying it.
  template <typename Fn>
  void ForEachRef(Fn&& fn) const {
    for (const auto& slot : rows_) {
      if (!slot.live) continue;
      if (!fn(slot.tuple)) return;
    }
  }

  // One signature's lazily built hash index. Opaque to callers: obtain
  // with IndexFor, probe with CollectFromIndex. Handles are stable across
  // Insert/Erase (the index map's nodes never move and buckets are
  // maintained incrementally); only table destruction invalidates them.
  struct HashIndex {
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  };

  // Resolves the hash index over `sig` (sorted, non-empty column
  // positions). The first call for a signature builds the index; Insert
  // and Erase maintain it incrementally thereafter. The rule executor
  // resolves each plan step's index once per executor, not per probe.
  const HashIndex& IndexFor(const IndexSignature& sig) const;

  // Appends (in insertion order) the shared row handles of the live
  // tuples in `key_hash`'s bucket of `index` (which must belong to this
  // table). `key_hash` is the FNV-1a fold of the key values' HashInto, in
  // column order. Buckets key on that 64-bit hash alone, so callers must
  // verify candidates (full unification does).
  void CollectFromIndex(const HashIndex& index, uint64_t key_hash,
                        std::vector<const TupleRef*>& out) const;

  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Number of signature indexes built so far (observability/tests).
  size_t num_indexes() const { return indexes_.size(); }

  void Serialize(ByteWriter& w) const;
  // O(1): name + count framing plus the incrementally maintained sum of
  // live tuples' (memoized) serialized sizes.
  size_t SerializedSize() const;

 private:
  struct Slot {
    TupleRef tuple;
    bool live;
  };

  // FNV-1a over the tuple's values at `sig`'s columns (out-of-range
  // columns are skipped; unification re-checks arity anyway).
  static uint64_t KeyHashOf(const IndexSignature& sig, const Tuple& t);

  // Shared insert body; `make_ref` is invoked only when the tuple is new.
  template <typename MakeRef>
  bool InsertImpl(const Tuple& t, MakeRef&& make_ref) {
    const Sha1Digest& vid = t.Vid();
    auto it = index_.find(vid);
    if (it != index_.end()) {
      Slot& slot = rows_[it->second];
      if (slot.live) return false;
      slot.live = true;
      ++live_count_;
      live_bytes_ += slot.tuple->SerializedSize();
      return true;
    }
    TupleRef ref = make_ref();
    index_.emplace(vid, rows_.size());
    for (auto& [sig, hash_index] : indexes_) {
      hash_index.buckets[KeyHashOf(sig, *ref)].push_back(rows_.size());
    }
    live_bytes_ += ref->SerializedSize();
    rows_.push_back(Slot{std::move(ref), true});
    ++live_count_;
    return true;
  }

  std::string name_;
  std::vector<Slot> rows_;
  // Tuple digest -> index into rows_.
  std::unordered_map<Sha1Digest, size_t, Sha1DigestHash> index_;
  size_t live_count_ = 0;
  // Sum of live tuples' serialized sizes, maintained by Insert/Erase.
  size_t live_bytes_ = 0;
  // Signature -> hash index, built on first probe (mutable: probing is
  // logically const). std::map keeps diagnostics deterministic.
  mutable std::map<IndexSignature, HashIndex> indexes_;
};

// Database: the per-node collection of tables, keyed by relation name.
class Database {
 public:
  // Returns the table for `relation`, creating it if absent.
  Table& GetOrCreate(const std::string& relation);

  // Returns nullptr if the relation has no table yet.
  const Table* Find(const std::string& relation) const;
  Table* Find(const std::string& relation);

  bool Insert(const Tuple& t) { return GetOrCreate(t.relation()).Insert(t); }
  bool Insert(TupleRef t) {
    return GetOrCreate(t->relation()).Insert(std::move(t));
  }
  bool Erase(const Tuple& t);
  bool Contains(const Tuple& t) const;

  std::vector<std::string> RelationNames() const;

  size_t TotalTuples() const;

 private:
  std::unordered_map<std::string, Table> tables_;
};

}  // namespace dpc

#endif  // DPC_DB_TABLE_H_
