#include "workload/bio_workload.h"

#include <algorithm>

namespace gridvine {

namespace {

std::vector<std::string> Organisms() {
  return {"Aspergillus niger",        "Aspergillus flavus",
          "Aspergillus fumigatus",    "Penicillium chrysogenum",
          "Saccharomyces cerevisiae", "Escherichia coli",
          "Homo sapiens",             "Mus musculus",
          "Drosophila melanogaster",  "Caenorhabditis elegans",
          "Arabidopsis thaliana",     "Bacillus subtilis",
          "Candida albicans",         "Neurospora crassa",
          "Schizosaccharomyces pombe"};
}

}  // namespace

std::vector<BioWorkload::Concept> BioWorkload::BuildVocabulary() {
  std::vector<Concept> v;
  v.push_back({"organism",
               {"Organism", "OrganismName", "organism_name", "Species",
                "SpeciesName", "TaxonName"},
               Organisms()});
  v.push_back({"accession",
               {"AccessionNumber", "Accession", "AccNo", "EntryAccession",
                "acc_number"},
               {}});  // per-entity synthetic values
  v.push_back({"description",
               {"Description", "EntryDescription", "Definition", "Title",
                "desc_text"},
               {"putative kinase", "hypothetical protein", "DNA polymerase",
                "heat shock protein", "membrane transporter",
                "ribosomal protein", "zinc finger protein",
                "cytochrome oxidase", "histone H3", "elongation factor"}});
  v.push_back({"length",
               {"SequenceLength", "Length", "SeqLen", "length_bp",
                "ResidueCount"},
               {}});
  v.push_back({"moltype",
               {"MoleculeType", "MolType", "molecule_kind", "SeqType"},
               {"DNA", "RNA", "mRNA", "protein", "genomic DNA", "cDNA"}});
  v.push_back({"date",
               {"CreationDate", "DateCreated", "EntryDate", "created_on"},
               {"1998-02-11", "2001-07-30", "2003-04-02", "2005-11-18",
                "2006-06-06", "2007-01-23"}});
  v.push_back({"keywords",
               {"Keywords", "KeywordList", "keyword_set", "Tags"},
               {"kinase", "transferase", "hydrolase", "transcription",
                "membrane", "mitochondrion", "nucleus", "signal peptide"}});
  v.push_back({"taxonomy",
               {"TaxonomyId", "TaxonId", "NCBITaxon", "tax_identifier"},
               {"5061", "5059", "746128", "5076", "4932", "562", "9606",
                "10090", "7227", "6239"}});
  v.push_back({"gene",
               {"GeneName", "Gene", "gene_symbol", "Locus", "ORFName"},
               {"pelA", "glaA", "cytB", "rpoB", "act1", "tub2", "his3",
                "leu2", "ura3", "ade2"}});
  v.push_back({"protein",
               {"ProteinName", "Protein", "prot_name", "ProductName"},
               {"pectin lyase", "glucoamylase", "actin", "tubulin",
                "catalase", "superoxide dismutase", "enolase", "chitinase"}});
  v.push_back({"function",
               {"FunctionNote", "Function", "BiolFunction", "activity_note"},
               {"catalyzes hydrolysis", "binds DNA", "electron transport",
                "cell wall synthesis", "protein folding", "ion transport"}});
  v.push_back({"reference",
               {"Reference", "Citation", "PubMedRef", "literature_ref"},
               {"PMID:9847074", "PMID:11226230", "PMID:15077180",
                "PMID:16844780", "PMID:17237039", "PMID:12620386"}});
  return v;
}

double BioWorkload::Recall(const GeneratedQuery& gq,
                           const std::set<std::string>& found_subjects) {
  if (gq.expected_subjects.empty()) return 1.0;
  size_t hit = 0;
  for (const auto& s : found_subjects) hit += gq.expected_subjects.count(s);
  return double(hit) / double(gq.expected_subjects.size());
}

std::vector<std::string> BioWorkload::ConceptNames() {
  std::vector<std::string> names;
  for (const auto& c : BuildVocabulary()) names.push_back(c.name);
  return names;
}

std::string BioWorkload::ValueFor(size_t entity_idx, const Concept& concept_name,
                                  Rng* rng) {
  if (concept_name.name == "accession") {
    std::string accession = "A";  // appended: see Triple::ToString
    accession += std::to_string(10000 + entity_idx);
    return accession;
  }
  if (concept_name.name == "length") {
    return std::to_string(rng->UniformInt(90, 4200));
  }
  // Zipf-skewed draw from the pool (popular organisms dominate, as in the
  // real corpus).
  return concept_name.value_pool[rng->Zipf(concept_name.value_pool.size(), 0.9)];
}

BioWorkload::BioWorkload(Options options) : options_(options) {
  vocabulary_ = BuildVocabulary();
  Rng rng(options_.seed);

  // Entity population with global URIs and per-concept_name canonical values.
  for (int e = 0; e < options_.num_entities; ++e) {
    std::string uri = "ebi:P";
    uri += std::to_string(100000 + e);
    entity_uris_.push_back(std::move(uri));
    std::map<std::string, std::string> profile;
    for (const auto& concept_name : vocabulary_) {
      profile[concept_name.name] = ValueFor(size_t(e), concept_name, &rng);
    }
    entity_profiles_.push_back(std::move(profile));
  }

  // Schemas: each picks a concept_name subset and one name variant per concept_name.
  // Styles alternate so different schemas get different variants.
  const std::vector<std::string> schema_names_pool = {
      "EMBL",    "SwissProt", "PDB",     "EMP",     "GenBank", "UniProt",
      "TrEMBL",  "RefSeq",    "Ensembl", "FlyBase", "SGD",     "MGI",
      "TAIR",    "WormBase",  "KEGG",    "Pfam",    "InterPro", "PROSITE",
      "PIR",     "DDBJ"};
  for (int s = 0; s < options_.num_schemas; ++s) {
    std::string name = s < int(schema_names_pool.size())
                           ? schema_names_pool[size_t(s)]
                           : "BioDB" + std::to_string(s);
    // Concept subset: organism always present (the demo queries it), the
    // rest sampled.
    std::vector<size_t> concept_idx;
    for (size_t i = 1; i < vocabulary_.size(); ++i) concept_idx.push_back(i);
    rng.Shuffle(&concept_idx);
    int n_attrs = int(rng.UniformInt(options_.min_attrs, options_.max_attrs));
    n_attrs = std::clamp(n_attrs, 1, int(vocabulary_.size()));
    std::vector<size_t> chosen = {0};  // organism
    for (int i = 0; i < n_attrs - 1 && i < int(concept_idx.size()); ++i) {
      chosen.push_back(concept_idx[size_t(i)]);
    }

    std::vector<std::string> attrs;
    std::map<std::string, std::string> concept_to_attr;
    for (size_t ci : chosen) {
      const Concept& c = vocabulary_[ci];
      const std::string& variant =
          c.variants[size_t(s) % c.variants.size()];
      attrs.push_back(variant);
      concept_to_attr[c.name] = variant;
      attr_to_concept_[name + "#" + variant] = c.name;
    }
    schemas_.emplace_back(name, options_.domain, attrs);
    schema_concepts_.push_back(std::move(concept_to_attr));
  }

  // Entity assignment and triple emission.
  for (int s = 0; s < options_.num_schemas; ++s) {
    std::vector<size_t> entity_idx(entity_uris_.size());
    for (size_t i = 0; i < entity_idx.size(); ++i) entity_idx[i] = i;
    rng.Shuffle(&entity_idx);
    size_t take = std::min(size_t(options_.entities_per_schema),
                           entity_idx.size());
    std::vector<std::string> described;
    std::vector<Triple> triples;
    const Schema& schema = schemas_[size_t(s)];
    for (size_t i = 0; i < take; ++i) {
      size_t e = entity_idx[i];
      described.push_back(entity_uris_[e]);
      for (const auto& [concept_name, attr] : schema_concepts_[size_t(s)]) {
        std::string value = entity_profiles_[e].at(concept_name);
        if (options_.value_noise > 0 && rng.Bernoulli(options_.value_noise)) {
          value += " (v" + std::to_string(rng.UniformInt(2, 9)) + ")";
        }
        triples.emplace_back(Term::Uri(entity_uris_[e]),
                             Term::Uri(schema.AttributeUri(attr)),
                             Term::Literal(value));
      }
    }
    schema_entities_.push_back(std::move(described));
    triples_.push_back(std::move(triples));
  }
}

BioWorkload::SchemaEvolution BioWorkload::EvolveSchema(size_t schema_idx,
                                                       double rename_fraction,
                                                       Rng* rng) {
  SchemaEvolution ev;
  ev.schema_idx = schema_idx;
  ev.old_schema = schemas_[schema_idx];
  const std::string& schema_name = schemas_[schema_idx].name();

  // Candidate concepts: those realized here whose vocabulary offers an
  // alternative variant to move to.
  std::vector<std::string> candidates;
  for (const auto& [concept_name, _] : schema_concepts_[schema_idx]) {
    for (const auto& c : vocabulary_) {
      if (c.name == concept_name && c.variants.size() > 1) {
        candidates.push_back(concept_name);
        break;
      }
    }
  }
  rng->Shuffle(&candidates);
  size_t want = size_t(std::max<double>(
      1.0, rename_fraction * double(schema_concepts_[schema_idx].size())));
  if (want > candidates.size()) want = candidates.size();

  std::map<std::string, std::string> renames;  // old local name -> new
  for (size_t i = 0; i < want; ++i) {
    const std::string& concept_name = candidates[i];
    const std::string old_local = schema_concepts_[schema_idx][concept_name];
    const Concept* concept_ptr = nullptr;
    for (const auto& c : vocabulary_) {
      if (c.name == concept_name) concept_ptr = &c;
    }
    // A different variant, drawn uniformly among the alternatives; must not
    // collide with any other attribute of this schema (variants are unique
    // per concept, so only the renamed attribute itself is excluded).
    std::vector<std::string> others;
    for (const auto& v : concept_ptr->variants) {
      if (v != old_local && !schemas_[schema_idx].HasAttribute(v)) {
        others.push_back(v);
      }
    }
    if (others.empty()) continue;
    const std::string& new_local =
        others[size_t(rng->UniformInt(0, int64_t(others.size()) - 1))];

    renames[old_local] = new_local;
    schema_concepts_[schema_idx][concept_name] = new_local;
    attr_to_concept_.erase(schema_name + "#" + old_local);
    attr_to_concept_[schema_name + "#" + new_local] = concept_name;
    ev.renamed_uris.emplace_back(schema_name + "#" + old_local,
                                 schema_name + "#" + new_local);
  }

  // Rebuild the schema with attribute order preserved.
  std::vector<std::string> attrs;
  for (const auto& a : schemas_[schema_idx].attributes()) {
    auto it = renames.find(a);
    attrs.push_back(it == renames.end() ? a : it->second);
  }
  schemas_[schema_idx] =
      Schema(schema_name, schemas_[schema_idx].domain(), std::move(attrs));
  ev.new_schema = schemas_[schema_idx];

  // Re-predicate the emitted triples.
  std::map<std::string, std::string> uri_renames(ev.renamed_uris.begin(),
                                                 ev.renamed_uris.end());
  for (auto& t : triples_[schema_idx]) {
    auto it = uri_renames.find(t.predicate().value());
    if (it == uri_renames.end()) continue;
    ev.removed_triples.push_back(t);
    t = Triple(t.subject(), Term::Uri(it->second), t.object());
    ev.added_triples.push_back(t);
  }
  return ev;
}

std::string BioWorkload::ConceptOf(const std::string& attr_uri) const {
  auto it = attr_to_concept_.find(attr_uri);
  return it == attr_to_concept_.end() ? "" : it->second;
}

std::string BioWorkload::AttributeFor(size_t schema_idx,
                                      const std::string& concept_name) const {
  const auto& m = schema_concepts_[schema_idx];
  auto it = m.find(concept_name);
  if (it == m.end()) return "";
  return schemas_[schema_idx].AttributeUri(it->second);
}

size_t BioWorkload::TotalTriples() const {
  size_t n = 0;
  for (const auto& t : triples_) n += t.size();
  return n;
}

SchemaMapping BioWorkload::GroundTruthMapping(size_t src_idx, size_t dst_idx,
                                              const std::string& id) const {
  SchemaMapping m(id, schemas_[src_idx].name(), schemas_[dst_idx].name());
  m.set_provenance(MappingProvenance::kManual);
  m.set_bidirectional(true);
  for (const auto& [concept_name, src_attr] : schema_concepts_[src_idx]) {
    auto it = schema_concepts_[dst_idx].find(concept_name);
    if (it == schema_concepts_[dst_idx].end()) continue;
    m.AddCorrespondence(schemas_[src_idx].AttributeUri(src_attr),
                        schemas_[dst_idx].AttributeUri(it->second))
        .ok();
  }
  return m;
}

SchemaMapping BioWorkload::ErroneousMapping(size_t src_idx, size_t dst_idx,
                                            const std::string& id,
                                            Rng* rng) const {
  SchemaMapping correct = GroundTruthMapping(src_idx, dst_idx, id);
  SchemaMapping m(id, correct.source_schema(), correct.target_schema());
  m.set_provenance(MappingProvenance::kAutomatic);
  m.set_bidirectional(true);
  m.set_confidence(0.7);
  // Derange the targets so every correspondence is wrong (when >= 2 exist).
  std::vector<std::string> sources, targets;
  for (const auto& [src, dst] : correct.correspondences()) {
    sources.push_back(src);
    targets.push_back(dst);
  }
  if (targets.size() >= 2) {
    std::vector<std::string> shuffled = targets;
    // Cyclic shift guarantees a derangement; shuffle first for variety.
    rng->Shuffle(&shuffled);
    for (size_t i = 0; i < shuffled.size(); ++i) {
      if (shuffled[i] == targets[i]) {
        std::swap(shuffled[i], shuffled[(i + 1) % shuffled.size()]);
      }
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      m.AddCorrespondence(sources[i], shuffled[i]).ok();
    }
  } else {
    for (size_t i = 0; i < sources.size(); ++i) {
      m.AddCorrespondence(sources[i], targets[i]).ok();
    }
  }
  return m;
}

double BioWorkload::MappingPrecision(const SchemaMapping& mapping) const {
  if (mapping.correspondences().empty()) return 0.0;
  size_t correct = 0;
  for (const auto& [src, dst] : mapping.correspondences()) {
    std::string cs = ConceptOf(src);
    if (!cs.empty() && cs == ConceptOf(dst)) ++correct;
  }
  return double(correct) / double(mapping.correspondences().size());
}

BioWorkload::GeneratedQuery BioWorkload::MakeQuery(
    size_t schema_idx, Rng* rng, const std::string& force_concept) const {
  GeneratedQuery out;
  const auto& concepts = schema_concepts_[schema_idx];
  if (!force_concept.empty() && concepts.count(force_concept)) {
    out.concept_name = force_concept;
  } else {
    // Pick a concept with a categorical value pool (selective, non-empty).
    std::vector<std::string> usable;
    for (const auto& [concept_name, _] : concepts) {
      if (concept_name != "accession" && concept_name != "length") {
        usable.push_back(concept_name);
      }
    }
    out.concept_name =
        usable[size_t(rng->UniformInt(0, int64_t(usable.size()) - 1))];
  }
  out.schema = schemas_[schema_idx].name();
  std::string attr_uri = AttributeFor(schema_idx, out.concept_name);

  // Pick a target value from an entity this schema actually describes, and
  // constrain with a contains-pattern on a distinctive fragment (like the
  // paper's %Aspergillus%).
  const auto& described = schema_entities_[schema_idx];
  size_t pick = size_t(rng->UniformInt(0, int64_t(described.size()) - 1));
  // Map URI back to entity index.
  size_t entity_idx = 0;
  for (size_t e = 0; e < entity_uris_.size(); ++e) {
    if (entity_uris_[e] == described[pick]) {
      entity_idx = e;
      break;
    }
  }
  std::string value = entity_profiles_[entity_idx].at(out.concept_name);
  std::string fragment = value.substr(0, value.find(' '));
  std::string pattern = "%" + fragment + "%";

  out.query = TriplePatternQuery(
      "x", TriplePattern(Term::Var("x"), Term::Uri(attr_uri),
                         Term::Literal(pattern)));

  // Global expected answer: entities matching the pattern that are described
  // (with this concept_name) by at least one schema.
  for (size_t e = 0; e < entity_uris_.size(); ++e) {
    const std::string& v = entity_profiles_[e].at(out.concept_name);
    if (v.find(fragment) == std::string::npos) continue;
    bool described_somewhere = false;
    for (size_t s = 0; s < schemas_.size() && !described_somewhere; ++s) {
      if (!schema_concepts_[s].count(out.concept_name)) continue;
      for (const auto& uri : schema_entities_[s]) {
        if (uri == entity_uris_[e]) {
          described_somewhere = true;
          break;
        }
      }
    }
    if (described_somewhere) out.expected_subjects.insert(entity_uris_[e]);
  }
  return out;
}

}  // namespace gridvine
