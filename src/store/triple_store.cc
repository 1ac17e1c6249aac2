#include "store/triple_store.h"

#include <algorithm>
#include <array>

#include "common/mem_estimate.h"
#include "common/string_util.h"

namespace gridvine {

// --- Ingest --------------------------------------------------------------------

void TripleStore::TagEncoded(const Triple& t, Tags tags) {
  if (tags == 0) return;
  IdTriple enc{dict_.Intern(t.subject()), dict_.Intern(t.predicate()),
               dict_.Intern(t.object())};
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  auto [it, fresh] = present_.try_emplace(enc, slot);
  if (!fresh) {
    tags_[it->second] |= tags;  // no visible change, no bump
    return;
  }
  ++version_;
  slots_.push_back(enc);
  tags_.push_back(tags);
  by_subject_[enc.s].push_back(slot);
  by_predicate_[enc.p].push_back(slot);
  by_object_[enc.o].push_back(slot);
}

Status TripleStore::Tag(const Triple& t, Tags tags) {
  GV_RETURN_NOT_OK(t.Validate());
  TagEncoded(t, tags);
  return Status::OK();
}

Status TripleStore::InsertBatch(const std::vector<Triple>& triples) {
  // Validate everything up front so a bad triple rejects the whole batch
  // without leaving a partial insert behind.
  for (const Triple& t : triples) {
    GV_RETURN_NOT_OK(t.Validate());
  }
  slots_.reserve(slots_.size() + triples.size());
  tags_.reserve(tags_.size() + triples.size());
  present_.reserve(present_.size() + triples.size());
  for (const Triple& t : triples) {
    TagEncoded(t, kAllTags);
  }
  return Status::OK();
}

bool TripleStore::Untag(const Triple& t, Tags tags) {
  IdTriple enc;
  {
    auto s = dict_.Lookup(t.subject());
    auto p = dict_.Lookup(t.predicate());
    auto o = dict_.Lookup(t.object());
    if (!s || !p || !o) return false;  // some term never seen: not present
    enc = IdTriple{*s, *p, *o};
  }
  auto it = present_.find(enc);
  if (it == present_.end()) return false;
  Tags& left = tags_[it->second];
  left &= Tags(~tags);
  if (left != 0) return false;  // still kept: no visible change, no bump
  // Tombstone the slot; posting-list entries pointing at dead slots are
  // skipped on scan and reclaimed wholesale by MaybeCompact. The present
  // map, slot list and counters always change together — a miss above
  // leaves the store untouched.
  present_.erase(it);
  ++dead_count_;
  ++version_;
  MaybeCompact();
  return true;
}

bool TripleStore::Contains(const Triple& t) const {
  auto s = dict_.Lookup(t.subject());
  if (!s) return false;
  auto p = dict_.Lookup(t.predicate());
  if (!p) return false;
  auto o = dict_.Lookup(t.object());
  if (!o) return false;
  return present_.count(IdTriple{*s, *p, *o}) > 0;
}

void TripleStore::Clear() {
  dict_.Clear();
  slots_.clear();
  tags_.clear();
  present_.clear();
  by_subject_.clear();
  by_predicate_.clear();
  by_object_.clear();
  dead_count_ = 0;
  ++version_;
}

void TripleStore::MaybeCompact() {
  if (slots_.size() < kCompactMinSlots) return;
  if (double(dead_count_) < kCompactDeadFraction * double(slots_.size())) {
    return;
  }
  // Compaction renumbers slots; match results are unchanged, but bump the
  // version anyway so any consumer keyed on internal state stays safe.
  ++version_;
  std::vector<IdTriple> new_slots;
  new_slots.reserve(present_.size());
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (tags_[slot] != 0) new_slots.push_back(slots_[slot]);
  }
  slots_ = std::move(new_slots);
  std::erase(tags_, Tags{0});
  dead_count_ = 0;
  present_.clear();
  by_subject_.clear();
  by_predicate_.clear();
  by_object_.clear();
  present_.reserve(slots_.size());
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const IdTriple& enc = slots_[slot];
    present_.emplace(enc, slot);
    by_subject_[enc.s].push_back(slot);
    by_predicate_[enc.p].push_back(slot);
    by_object_[enc.o].push_back(slot);
  }
}

// --- Pattern matching ----------------------------------------------------------

TripleStore::CompiledPattern TripleStore::Compile(
    const TriplePattern& pattern) const {
  CompiledPattern cp;
  const TriplePos kAll[] = {TriplePos::kSubject, TriplePos::kPredicate,
                            TriplePos::kObject};
  for (int i = 0; i < 3; ++i) {
    const Term& term = pattern.at(kAll[i]);
    if (term.IsVariable()) {
      // Repeated variables become id-equality constraints.
      for (int j = 0; j < i; ++j) {
        const Term& prev = pattern.at(kAll[j]);
        if (prev.IsVariable() && prev.value() == term.value()) {
          cp.equal_positions.emplace_back(j, i);
        }
      }
      continue;
    }
    if (pattern.IsExactConstant(kAll[i])) {
      auto id = dict_.Lookup(term);
      if (!id) {
        cp.impossible = true;  // constant never interned: nothing can match
        return cp;
      }
      cp.exact[i] = *id;
    } else {
      cp.like[i] = &term.value();  // '%' literal: needs string-level LIKE
    }
  }
  return cp;
}

bool TripleStore::MatchesIds(CompiledPattern& cp, const IdTriple& t) const {
  for (int i = 0; i < 3; ++i) {
    if (cp.exact[i] != kNoTermId && cp.exact[i] != IdAt(t, i)) return false;
    if (cp.like[i] != nullptr) {
      TermId id = IdAt(t, i);
      auto [it, fresh] = cp.like_verdicts[i].try_emplace(id, false);
      if (fresh) {
        const Term& data = dict_.Decode(id);
        it->second = data.IsLiteral() && LikeMatch(data.value(), *cp.like[i]);
      }
      if (!it->second) return false;
    }
  }
  for (auto [a, b] : cp.equal_positions) {
    if (IdAt(t, a) != IdAt(t, b)) return false;
  }
  return true;
}

std::vector<uint32_t> TripleStore::MatchingSlots(
    const TriplePattern& pattern) const {
  std::vector<uint32_t> out;
  CompiledPattern cp = Compile(pattern);
  if (cp.impossible) return out;

  // Pick the smallest applicable posting list (sizes include tombstones —
  // a fine selectivity estimate since compaction bounds the dead fraction).
  const std::vector<uint32_t>* postings = nullptr;
  const PostingMap* maps[3] = {&by_subject_, &by_predicate_, &by_object_};
  for (int i = 0; i < 3; ++i) {
    if (cp.exact[i] == kNoTermId) continue;
    auto it = maps[i]->find(cp.exact[i]);
    if (it == maps[i]->end()) return out;  // interned but never in a triple
    if (postings == nullptr || it->second.size() < postings->size()) {
      postings = &it->second;
    }
  }

  if (postings != nullptr) {
    for (uint32_t slot : *postings) {
      if (tags_[slot] != 0 && MatchesIds(cp, slots_[slot])) out.push_back(slot);
    }
  } else {
    for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (tags_[slot] != 0 && MatchesIds(cp, slots_[slot])) out.push_back(slot);
    }
  }
  return out;
}

Triple TripleStore::DecodeSlot(uint32_t slot) const {
  const IdTriple& enc = slots_[slot];
  return Triple(dict_.Decode(enc.s), dict_.Decode(enc.p), dict_.Decode(enc.o));
}

std::vector<Triple> TripleStore::Select(const TriplePattern& pattern) const {
  std::vector<uint32_t> slots = MatchingSlots(pattern);
  std::vector<Triple> out;
  out.reserve(slots.size());
  for (uint32_t slot : slots) out.push_back(DecodeSlot(slot));
  return out;
}

std::vector<BindingSet> TripleStore::MatchPattern(
    const TriplePattern& pattern) const {
  // Variable positions, deduplicated: a repeated variable binds once (the
  // id-equality constraint already guaranteed both positions agree).
  struct VarPos {
    const std::string* name;
    int pos;
  };
  std::array<VarPos, 3> vars;
  int n_vars = 0;
  const TriplePos kAll[] = {TriplePos::kSubject, TriplePos::kPredicate,
                            TriplePos::kObject};
  for (int i = 0; i < 3; ++i) {
    const Term& term = pattern.at(kAll[i]);
    if (!term.IsVariable()) continue;
    bool seen = false;
    for (int v = 0; v < n_vars; ++v) {
      if (*vars[size_t(v)].name == term.value()) seen = true;
    }
    if (!seen) vars[size_t(n_vars++)] = {&term.value(), i};
  }

  std::vector<uint32_t> slots = MatchingSlots(pattern);
  std::vector<BindingSet> out;
  out.reserve(slots.size());
  for (uint32_t slot : slots) {
    const IdTriple& enc = slots_[slot];
    BindingSet b;
    for (int v = 0; v < n_vars; ++v) {
      b.emplace(*vars[size_t(v)].name,
                dict_.Decode(IdAt(enc, vars[size_t(v)].pos)));
    }
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<Term> TripleStore::Project(const std::vector<BindingSet>& bindings,
                                       const std::string& var) const {
  std::set<Term> seen;
  for (const BindingSet& b : bindings) {
    auto it = b.find(var);
    if (it != b.end()) seen.insert(it->second);
  }
  return std::vector<Term>(seen.begin(), seen.end());
}

// --- Join ----------------------------------------------------------------------

namespace {

/// A join key: the row's terms for the shared variables, as ids from a
/// join-local interning table — fixed-width, no string concatenation.
/// Up to kMaxInlineVars shared variables are stored inline (a binding set
/// holds at most a handful of variables in practice).
constexpr size_t kMaxInlineVars = 8;

struct JoinKey {
  std::array<uint32_t, kMaxInlineVars> ids;
  uint8_t n = 0;
  bool operator==(const JoinKey& other) const {
    if (n != other.n) return false;
    for (uint8_t i = 0; i < n; ++i) {
      if (ids[i] != other.ids[i]) return false;
    }
    return true;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ k.n;
    for (uint8_t i = 0; i < k.n; ++i) {
      h ^= k.ids[i];
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    }
    return size_t(h);
  }
};

}  // namespace

std::vector<BindingSet> TripleStore::Join(const std::vector<BindingSet>& left,
                                          const std::vector<BindingSet>& right) {
  if (left.empty() || right.empty()) return {};
  // Shared variables from the first rows (all rows of one side share keys).
  std::vector<std::string> shared;
  for (const auto& [var, _] : left[0]) {
    if (right[0].count(var)) shared.push_back(var);
  }

  // Join-local dictionary: each distinct term is hashed as a string exactly
  // once; rows are then keyed by small fixed-width id tuples.
  std::unordered_map<Term, uint32_t, TermHash> local_ids;
  auto id_of = [&local_ids](const Term& t) {
    auto [it, _] = local_ids.emplace(t, uint32_t(local_ids.size()));
    return it->second;
  };
  auto key_of = [&](const BindingSet& b) {
    JoinKey key;
    for (const auto& var : shared) {
      key.ids[key.n++] = id_of(b.at(var));
    }
    return key;
  };

  if (shared.size() > kMaxInlineVars) {
    // Degenerate arity (not produced by triple-pattern queries): fall back
    // to a nested-loop join rather than widening the key type.
    std::vector<BindingSet> out;
    for (const BindingSet& l : left) {
      for (const BindingSet& r : right) {
        bool match = true;
        for (const auto& var : shared) {
          if (l.at(var) != r.at(var)) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        BindingSet merged = l;
        for (const auto& [var, term] : r) merged[var] = term;
        out.push_back(std::move(merged));
      }
    }
    return out;
  }

  std::unordered_multimap<JoinKey, const BindingSet*, JoinKeyHash> hashed;
  hashed.reserve(right.size());
  for (const BindingSet& b : right) hashed.emplace(key_of(b), &b);

  std::vector<BindingSet> out;
  for (const BindingSet& l : left) {
    auto range = hashed.equal_range(key_of(l));
    for (auto it = range.first; it != range.second; ++it) {
      BindingSet merged = l;
      for (const auto& [var, term] : *it->second) merged[var] = term;
      out.push_back(std::move(merged));
    }
  }
  return out;
}

// --- Introspection -------------------------------------------------------------

std::vector<Term> TripleStore::DistinctPredicates() const {
  std::set<Term> seen;
  for (const auto& [pid, postings] : by_predicate_) {
    for (uint32_t slot : postings) {
      if (tags_[slot] != 0) {
        seen.insert(dict_.Decode(pid));
        break;
      }
    }
  }
  return std::vector<Term>(seen.begin(), seen.end());
}

std::set<std::string> TripleStore::ObjectValuesFor(
    const std::string& predicate_uri) const {
  std::set<std::string> out;
  auto pid = dict_.Lookup(Term::Uri(predicate_uri));
  if (!pid) return out;
  auto it = by_predicate_.find(*pid);
  if (it == by_predicate_.end()) return out;
  for (uint32_t slot : it->second) {
    if (tags_[slot] != 0) out.insert(dict_.Decode(slots_[slot].o).value());
  }
  return out;
}

std::vector<Triple> TripleStore::All() const {
  std::vector<Triple> out;
  out.reserve(present_.size());
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (tags_[slot] != 0) out.push_back(DecodeSlot(slot));
  }
  return out;
}

size_t TripleStore::MemoryFootprint() const {
  size_t bytes = dict_.MemoryFootprint() +
                 slots_.capacity() * sizeof(IdTriple) + tags_.capacity() +
                 HashMapBytes(present_);
  for (const PostingMap* pm : {&by_subject_, &by_predicate_, &by_object_}) {
    bytes += HashMapBytes(*pm);
    for (const auto& [id, postings] : *pm) {
      (void)id;
      bytes += postings.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

}  // namespace gridvine
