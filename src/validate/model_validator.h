#ifndef OSRS_VALIDATE_MODEL_VALIDATOR_H_
#define OSRS_VALIDATE_MODEL_VALIDATOR_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.h"
#include "ontology/ontology.h"
#include "validate/validation_report.h"

namespace osrs {

/// Raw ontology structure as written in an input file, before any of the
/// invariants Ontology::Finalize() enforces are applied. The validator
/// works on this form so it can *diagnose* cycles, duplicate edges, and
/// orphans that the Ontology class itself refuses to represent.
struct OntologySpec {
  struct Edge {
    ConceptId parent = kInvalidConcept;
    ConceptId child = kInvalidConcept;
  };
  std::vector<std::string> names;
  std::vector<Edge> edges;
};

/// Snapshot of a (finalized or unfinalized) Ontology as an OntologySpec.
OntologySpec SpecOf(const Ontology& ontology);

/// Lenient parser for the `# osrs-ontology v1` serialization: malformed
/// lines become OSRS-FMT findings and are skipped instead of failing the
/// parse, so structural validation can still run on the rest.
OntologySpec ParseOntologySpec(std::string_view text,
                               ValidationReport* report);

/// Tuning knobs of ModelValidator.
struct ModelValidatorOptions {
  /// Depths beyond this trigger the OSRS-ONT-006 warning: real-world
  /// hierarchies (SNOMED and consumer-product taxonomies alike) stay far
  /// shallower, so a deeper graph almost always means edge direction was
  /// inverted somewhere upstream.
  int max_depth = 64;
  /// Sentiment scale bound of the §2 model; |s| beyond it is an error.
  double max_abs_sentiment = 1.0;
  /// Cap on stored findings per report (tallies keep counting past it).
  size_t max_findings = ValidationReport::kDefaultMaxFindings;
};

/// Static checker for the structural invariants the OSRS pipeline assumes
/// but (outside Ontology::Finalize) never verifies: the ontology is a
/// rooted DAG, every pair references a real concept with a finite
/// in-range sentiment, group indices are a partition, and solver inputs
/// are in range before the NP-hard machinery runs.
///
/// All checks are read-only, allocation-light, and never abort; they
/// append structured findings (stable OSRS-XXX-NNN codes, see README.md)
/// to a caller-owned ValidationReport. Thread-safe: a const
/// ModelValidator may be shared across threads as long as each thread
/// uses its own report.
class ModelValidator {
 public:
  explicit ModelValidator(ModelValidatorOptions options = {})
      : options_(options) {}

  const ModelValidatorOptions& options() const { return options_; }

  /// Fresh report wired with this validator's finding cap.
  ValidationReport MakeReport() const {
    return ValidationReport(options_.max_findings);
  }

  // -- Ontology structure (Definition 1/2 preconditions) --------------------

  /// Checks `spec` for: empty ontology (OSRS-ONT-007), out-of-range edge
  /// endpoints (OSRS-ONT-008), self edges (OSRS-ONT-004), duplicate edges
  /// (OSRS-ONT-003), cycles via iterative DFS (OSRS-ONT-001), missing or
  /// multiple roots (OSRS-ONT-009 / OSRS-ONT-005), concepts unreachable
  /// from any root (OSRS-ONT-002), depth beyond options().max_depth
  /// (OSRS-ONT-006), and empty concept names (OSRS-ONT-010).
  void CheckOntologySpec(const OntologySpec& spec,
                         ValidationReport* report) const;

  /// CheckOntologySpec over a snapshot of `ontology` (works before or
  /// after Finalize; a finalized ontology can only yield warnings).
  void CheckOntology(const Ontology& ontology, ValidationReport* report) const;

  // -- Corpus integrity -----------------------------------------------------

  /// Checks every pair of `item` against an ontology of `num_concepts`
  /// concepts: dangling concept references (OSRS-CRP-001), non-finite
  /// sentiments (OSRS-CRP-002), out-of-scale sentiments (OSRS-CRP-003),
  /// out-of-scale ratings (OSRS-CRP-004, warning), empty reviews
  /// (OSRS-CRP-005, warning), items without reviews (OSRS-CRP-006,
  /// warning), and sentences with neither text nor pairs (OSRS-CRP-008,
  /// warning).
  void CheckItem(const Item& item, size_t num_concepts,
                 ValidationReport* report) const;

  /// CheckItem over every item, plus duplicate item ids (OSRS-CRP-007,
  /// warning).
  void CheckItems(const std::vector<Item>& items, size_t num_concepts,
                  ValidationReport* report) const;

  /// Sentence/review grouping integrity (the ItemGraph::group_begin
  /// contract: candidate c owns pairs [group_begin[c], group_begin[c + 1])):
  /// every offset must lie in [0, num_pairs] (OSRS-CRP-009), and offsets
  /// must not decrease, or the runs would share pairs (OSRS-CRP-010).
  void CheckGroups(const std::vector<int>& group_begin, size_t num_pairs,
                   ValidationReport* report) const;

  // -- Solver preconditions -------------------------------------------------

  /// k < 0 (OSRS-SLV-001), k beyond the candidate set (OSRS-SLV-002,
  /// warning: the facade truncates), epsilon non-finite or <= 0
  /// (OSRS-SLV-003), epsilon beyond the full sentiment spread so it never
  /// filters (OSRS-SLV-004, warning).
  void CheckSolverConfig(int k, double epsilon, size_t num_candidates,
                         ValidationReport* report) const;

  // -- Whole-file validation (what osrs_lint runs) --------------------------

  /// Validates text in the `# osrs-corpus v1` format leniently: format
  /// problems become OSRS-FMT findings, then the embedded ontology and
  /// every item are checked structurally. Never fails to return a report.
  ValidationReport ValidateCorpusText(std::string_view text) const;

  /// Validates text in the `# osrs-ontology v1` format leniently.
  ValidationReport ValidateOntologyText(std::string_view text) const;

 private:
  /// CheckItem with the item's position for diagnostics on unnamed items.
  void CheckItem(const Item& item, size_t num_concepts, size_t item_index,
                 ValidationReport* report) const;

  ModelValidatorOptions options_;
};

}  // namespace osrs

#endif  // OSRS_VALIDATE_MODEL_VALIDATOR_H_
