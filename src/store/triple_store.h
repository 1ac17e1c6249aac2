#ifndef GRIDVINE_STORE_TRIPLE_STORE_H_
#define GRIDVINE_STORE_TRIPLE_STORE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rdf/term_dictionary.h"
#include "rdf/triple.h"
#include "rdf/triple_pattern.h"

namespace gridvine {

/// One set of variable bindings produced by pattern matching, e.g.
/// {x -> <gv://.../seq1>}. Ordered map so join keys are canonical.
using BindingSet = std::map<std::string, Term>;

/// The local database DB_p of a GridVine peer (paper Section 2.2): a triple
/// relation with physical schema (subject, predicate, object) and hash
/// indexes on each attribute, supporting the three relational operators the
/// paper names — selection σ (with SQL-LIKE '%' patterns on literals),
/// projection π, and (self-)join ⋈.
///
/// Storage is dictionary-encoded: every URI/literal is interned once into a
/// TermDictionary and triples are stored as {sid, pid, oid} id tuples. The
/// three per-position indexes are posting lists keyed by TermId, so inserts
/// hash each term string at most once and pattern matching compares 4-byte
/// ids; strings are only touched at the API boundary (decode on Select /
/// MatchPattern output, LIKE filters). Erase tombstones the slot; posting
/// lists are compacted lazily once the dead fraction crosses a threshold.
/// Each triple carries a tag byte, the caller's reasons to keep it (a
/// GridVine peer tags the positions whose index keys it files the triple
/// under); it stays while any tag is set. Insert and Erase set and clear
/// every tag.
class TripleStore {
 public:
  using Tags = uint8_t;
  static constexpr Tags kAllTags = 0xff;

  TripleStore() = default;

  /// Inserts a triple; duplicates are ignored. Fails on invalid triples.
  Status Insert(const Triple& t) { return Tag(t, kAllTags); }

  /// Bulk ingest: pre-reserves slot and index capacity then inserts each
  /// triple (duplicates ignored). Stops at the first invalid triple and
  /// returns its error; everything before it stays inserted.
  Status InsertBatch(const std::vector<Triple>& triples);

  /// Removes a triple; true if it was present.
  bool Erase(const Triple& t) { return Untag(t, kAllTags); }

  /// Sets `tags` on a triple, inserting it when absent (no tags: no-op).
  /// Fails on invalid triples.
  Status Tag(const Triple& t, Tags tags);

  /// Clears `tags` on a triple and removes it once no tag is left; true if
  /// it was removed. Tags the triple does not carry change nothing.
  bool Untag(const Triple& t, Tags tags);

  bool Contains(const Triple& t) const;
  size_t size() const { return present_.size(); }
  bool empty() const { return present_.empty(); }
  void Clear();

  /// Selection σ: all triples matching the pattern's constants. Uses the
  /// most selective exact-constant index and filters the remainder
  /// (including '%' LIKE predicates on literal objects).
  std::vector<Triple> Select(const TriplePattern& pattern) const;

  /// Pattern matching: σ followed by binding extraction for the pattern's
  /// variables — the building block for π and ⋈.
  std::vector<BindingSet> MatchPattern(const TriplePattern& pattern) const;

  /// Projection π: the values bound to `var`, deduplicated, sorted.
  std::vector<Term> Project(const std::vector<BindingSet>& bindings,
                            const std::string& var) const;

  /// Natural join ⋈ of two binding lists on their shared variables (hash
  /// join over fixed-width interned-id tuples). With no shared variables
  /// this is a cross product.
  static std::vector<BindingSet> Join(const std::vector<BindingSet>& left,
                                      const std::vector<BindingSet>& right);

  /// All distinct predicates present (used by schema/statistics code).
  std::vector<Term> DistinctPredicates() const;

  /// All distinct object values observed for `predicate` (used by the
  /// set-distance attribute matcher).
  std::set<std::string> ObjectValuesFor(const std::string& predicate_uri) const;

  /// Whole content (stable iteration for serialization / tests).
  std::vector<Triple> All() const;

  /// Interned distinct terms (diagnostics; grows monotonically between
  /// Clear() calls).
  size_t dictionary_size() const { return dict_.size(); }

  /// Monotonic mutation counter: any change that can alter what a pattern
  /// matches — insert, erase, tombstone compaction, Clear — bumps it, so
  /// extent caches can validate entries with a single integer compare
  /// instead of subscribing to change events. Erase and compaction count
  /// too: a cache that only watched inserts would happily serve rows for
  /// deleted triples. A tag change on a triple that stays does not count.
  uint64_t version() const { return version_; }

  /// Bytes of heap behind the store (dictionary arena, slot array, presence
  /// and posting indexes), by capacity. Estimated per common/mem_estimate.h.
  size_t MemoryFootprint() const;

 private:
  /// A triple as stored: three dictionary ids.
  struct IdTriple {
    TermId s, p, o;
    bool operator==(const IdTriple& other) const {
      return s == other.s && p == other.p && o == other.o;
    }
  };
  struct IdTripleHash {
    size_t operator()(const IdTriple& t) const {
      // Mix the three 32-bit ids (fmix-style avalanche over two 64-bit lanes).
      uint64_t h = (uint64_t(t.s) << 32) | t.p;
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= uint64_t(t.o) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      return size_t(h);
    }
  };

  using PostingMap = std::unordered_map<TermId, std::vector<uint32_t>>;

  /// A pattern with its constants resolved against the dictionary, ready for
  /// id-level matching. `impossible` short-circuits when an exact constant
  /// is not interned at all (no triple can match).
  struct CompiledPattern {
    // Per position: kNoTermId when not an exact id constraint.
    TermId exact[3] = {kNoTermId, kNoTermId, kNoTermId};
    // Positions holding a '%' LIKE literal (decode + string match needed).
    const std::string* like[3] = {nullptr, nullptr, nullptr};
    // LIKE verdicts per term id, filled lazily during one scan: dictionary
    // encoding means a '%' predicate runs once per *distinct* value rather
    // than once per row.
    std::unordered_map<TermId, bool> like_verdicts[3];
    // Repeated-variable equality constraints, as position pairs.
    std::vector<std::pair<int, int>> equal_positions;
    bool impossible = false;
  };
  CompiledPattern Compile(const TriplePattern& pattern) const;
  bool MatchesIds(CompiledPattern& cp, const IdTriple& t) const;

  TermId IdAt(const IdTriple& t, int pos) const {
    return pos == 0 ? t.s : pos == 1 ? t.p : t.o;
  }

  /// Live slot ids matching the pattern (smallest applicable posting list,
  /// else full scan), already filtered through MatchesIds.
  std::vector<uint32_t> MatchingSlots(const TriplePattern& pattern) const;

  Triple DecodeSlot(uint32_t slot) const;

  /// Inner Tag once validation is done.
  void TagEncoded(const Triple& t, Tags tags);

  /// Drops tombstoned slots and rebuilds posting lists / the present map
  /// when the dead fraction crosses kCompactDeadFraction. Slot ids are
  /// internal, so renumbering is invisible to callers. The dictionary is
  /// left untouched (ids stay valid; unreferenced terms are rare and cheap).
  void MaybeCompact();
  static constexpr size_t kCompactMinSlots = 64;
  static constexpr double kCompactDeadFraction = 0.5;

  TermDictionary dict_;
  std::vector<IdTriple> slots_;  // erased slots tombstoned via tags_
  std::vector<Tags> tags_;       // parallel to slots_; 0 = tombstone
  /// Dedup + Contains + O(1) erase: encoded triple -> live slot.
  std::unordered_map<IdTriple, uint32_t, IdTripleHash> present_;
  PostingMap by_subject_;
  PostingMap by_predicate_;
  PostingMap by_object_;
  size_t dead_count_ = 0;
  uint64_t version_ = 0;
};

}  // namespace gridvine

#endif  // GRIDVINE_STORE_TRIPLE_STORE_H_
