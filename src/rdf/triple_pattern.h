#ifndef GRIDVINE_RDF_TRIPLE_PATTERN_H_
#define GRIDVINE_RDF_TRIPLE_PATTERN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple.h"

namespace gridvine {

/// A triple pattern (s, p, o) where s and p are URIs or variables and o is a
/// URI, a literal, or a variable (paper Section 2.3, after RDQL). Literal
/// objects may contain '%' wildcards, matched with SQL-LIKE semantics — e.g.
/// (?x, EMBL#Organism, "%Aspergillus%").
class TriplePattern {
 public:
  TriplePattern() = default;
  TriplePattern(Term subject, Term predicate, Term object)
      : subject_(std::move(subject)),
        predicate_(std::move(predicate)),
        object_(std::move(object)) {}

  const Term& subject() const { return subject_; }
  const Term& predicate() const { return predicate_; }
  const Term& object() const { return object_; }
  const Term& at(TriplePos pos) const;

  /// Replaces the term at `pos` (used by query reformulation to swap the
  /// predicate for a mapped one).
  TriplePattern With(TriplePos pos, Term term) const;

  /// True if `t` satisfies every constant of the pattern ('%' literals via
  /// LIKE matching). Variables match anything; repeated variables must bind
  /// to equal terms.
  bool Matches(const Triple& t) const;

  /// Names of the variables appearing in the pattern, in s/p/o order,
  /// deduplicated.
  std::vector<std::string> Variables() const;

  /// True when the term at `pos` is a constant (and for literals: free of
  /// '%' wildcards), i.e. usable as an exact index key.
  bool IsExactConstant(TriplePos pos) const;

  /// Chooses the constant used to route the query (paper: "when two constant
  /// terms appear, the most specific one should be used"). Specificity order:
  /// exact subject > exact object > exact predicate > predicate (always
  /// exact-or-absent) — wildcard literals cannot be hashed. Returns nullopt
  /// for the all-variable pattern.
  std::optional<TriplePos> RoutingConstant() const;

  /// When the pattern has a literal object of the form "abc%..." (non-empty
  /// text before the first wildcard), returns that leading text. Such a
  /// constraint can be resolved as a key-space *range* under the
  /// order-preserving hash even though the object is not an exact constant.
  std::optional<std::string> ObjectRangePrefix() const;

  /// Serialization (same field encoding as Triple).
  std::string Serialize() const;
  static Result<TriplePattern> Parse(const std::string& line);

  std::string ToString() const {
    // Appended piecewise, as in Triple::ToString.
    std::string out = "(";
    out += subject_.ToString();
    out += ", ";
    out += predicate_.ToString();
    out += ", ";
    out += object_.ToString();
    out += ")";
    return out;
  }

  bool operator==(const TriplePattern& other) const {
    return subject_ == other.subject_ && predicate_ == other.predicate_ &&
           object_ == other.object_;
  }

 private:
  Term subject_ = Term::Var("s");
  Term predicate_ = Term::Var("p");
  Term object_ = Term::Var("o");
};

}  // namespace gridvine

#endif  // GRIDVINE_RDF_TRIPLE_PATTERN_H_
