#include "validate/model_validator.h"

#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "common/strings.h"

namespace osrs {
namespace {

/// Safe name lookup for diagnostics: specs parsed from hostile files may
/// reference ids that have no name row.
std::string NameOrId(const OntologySpec& spec, ConceptId id) {
  if (id >= 0 && static_cast<size_t>(id) < spec.names.size() &&
      !spec.names[static_cast<size_t>(id)].empty()) {
    return spec.names[static_cast<size_t>(id)];
  }
  return StrFormat("#%d", id);
}

std::string ItemLocation(const Item& item, size_t item_index) {
  if (!item.id.empty()) return StrFormat("item '%s'", item.id.c_str());
  return StrFormat("item %zu", item_index);
}

}  // namespace

OntologySpec SpecOf(const Ontology& ontology) {
  OntologySpec spec;
  const size_t n = ontology.num_concepts();
  spec.names.reserve(n);
  for (ConceptId id = 0; id < static_cast<ConceptId>(n); ++id) {
    spec.names.push_back(ontology.name(id));
  }
  for (ConceptId id = 0; id < static_cast<ConceptId>(n); ++id) {
    for (ConceptId child : ontology.children(id)) {
      spec.edges.push_back({id, child});
    }
  }
  return spec;
}

OntologySpec ParseOntologySpec(std::string_view text,
                               ValidationReport* report) {
  OntologySpec spec;
  size_t line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const std::string location = StrFormat("line %zu", line_number);
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 3) {
      report->AddError("OSRS-FMT-001", location,
                       StrFormat("malformed ontology line: expected 3 "
                                 "tab-separated fields, got %zu",
                                 fields.size()));
      continue;
    }
    const std::string& kind = fields[0];
    if (kind == "C") {
      if (std::to_string(spec.names.size()) != fields[1]) {
        report->AddError(
            "OSRS-FMT-004", location,
            StrFormat("non-sequential concept id '%s' (expected %zu)",
                      fields[1].c_str(), spec.names.size()));
      }
      spec.names.push_back(fields[2]);
    } else if (kind == "E") {
      int64_t parent = 0, child = 0;
      if (!ParseInt64(fields[1], &parent) || !ParseInt64(fields[2], &child)) {
        report->AddError("OSRS-FMT-004", location,
                         StrFormat("malformed edge endpoints '%s' -> '%s'",
                                   fields[1].c_str(), fields[2].c_str()));
        continue;
      }
      spec.edges.push_back({static_cast<ConceptId>(parent),
                            static_cast<ConceptId>(child)});
    } else if (kind == "S") {
      int64_t id = 0;
      if (!ParseInt64(fields[1], &id)) {
        report->AddError(
            "OSRS-FMT-004", location,
            StrFormat("malformed synonym concept id '%s'", fields[1].c_str()));
      } else if (id < 0 || id >= static_cast<int64_t>(spec.names.size())) {
        report->AddError(
            "OSRS-ONT-011", location,
            StrFormat("synonym '%s' references unknown concept %lld",
                      fields[2].c_str(), static_cast<long long>(id)));
      }
    } else {
      report->AddError("OSRS-FMT-002", location,
                       StrFormat("unknown record kind '%s'", kind.c_str()));
    }
  }
  return spec;
}

void ModelValidator::CheckOntologySpec(const OntologySpec& spec,
                                       ValidationReport* report) const {
  const size_t n = spec.names.size();
  if (n == 0) {
    report->AddError("OSRS-ONT-007", "", "ontology has no concepts");
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (spec.names[i].empty()) {
      report->AddWarning("OSRS-ONT-010", StrFormat("concept %zu", i),
                         "concept has an empty name");
    }
  }

  // Adjacency over valid, deduplicated, non-self edges; invalid edges are
  // reported and excluded so the graph walks below stay well-defined.
  std::vector<std::vector<ConceptId>> children(n);
  std::vector<size_t> num_parents(n, 0);
  std::unordered_set<int64_t> seen_edges;
  seen_edges.reserve(spec.edges.size());
  for (const OntologySpec::Edge& edge : spec.edges) {
    const std::string location =
        StrFormat("edge %d->%d", edge.parent, edge.child);
    if (edge.parent < 0 || static_cast<size_t>(edge.parent) >= n ||
        edge.child < 0 || static_cast<size_t>(edge.child) >= n) {
      report->AddError(
          "OSRS-ONT-008", location,
          StrFormat("edge endpoint out of range [0, %zu)", n));
      continue;
    }
    if (edge.parent == edge.child) {
      report->AddError("OSRS-ONT-004", location,
                       StrFormat("self edge on concept '%s'",
                                 NameOrId(spec, edge.parent).c_str()));
      continue;
    }
    int64_t key = static_cast<int64_t>(edge.parent) * static_cast<int64_t>(n) +
                  edge.child;
    if (!seen_edges.insert(key).second) {
      report->AddWarning(
          "OSRS-ONT-003", location,
          StrFormat("duplicate edge '%s' -> '%s'",
                    NameOrId(spec, edge.parent).c_str(),
                    NameOrId(spec, edge.child).c_str()));
      continue;
    }
    children[static_cast<size_t>(edge.parent)].push_back(edge.child);
    ++num_parents[static_cast<size_t>(edge.child)];
  }

  // Roots: exactly one concept without parents.
  std::vector<ConceptId> roots;
  for (size_t c = 0; c < n; ++c) {
    if (num_parents[c] == 0) roots.push_back(static_cast<ConceptId>(c));
  }
  if (roots.empty()) {
    report->AddError("OSRS-ONT-009", "",
                     "no root concept: every concept has a parent, so the "
                     "graph cycles through all of them");
  }
  for (size_t r = 1; r < roots.size(); ++r) {
    report->AddError(
        "OSRS-ONT-005", StrFormat("concept %d", roots[r]),
        StrFormat("multiple roots: '%s' has no parent in addition to '%s'",
                  NameOrId(spec, roots[r]).c_str(),
                  NameOrId(spec, roots[0]).c_str()));
  }

  // Acyclicity via iterative DFS with white/gray/black coloring; every
  // gray->gray edge closes a directed cycle. Explicit stack: real
  // ontologies (SNOMED-scale) overflow the call stack on deep chains.
  enum : uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<uint8_t> color(n, kWhite);
  struct Frame {
    ConceptId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  for (size_t start = 0; start < n; ++start) {
    if (color[start] != kWhite) continue;
    color[start] = kGray;
    stack.push_back({static_cast<ConceptId>(start), 0});
    while (!stack.empty()) {
      Frame& top = stack.back();
      const auto& kids = children[static_cast<size_t>(top.node)];
      if (top.next_child < kids.size()) {
        ConceptId child = kids[top.next_child++];
        if (color[static_cast<size_t>(child)] == kWhite) {
          color[static_cast<size_t>(child)] = kGray;
          stack.push_back({child, 0});
        } else if (color[static_cast<size_t>(child)] == kGray) {
          report->AddError(
              "OSRS-ONT-001", StrFormat("edge %d->%d", top.node, child),
              StrFormat("cycle detected: edge '%s' -> '%s' closes a "
                        "directed cycle",
                        NameOrId(spec, top.node).c_str(),
                        NameOrId(spec, child).c_str()));
        }
      } else {
        color[static_cast<size_t>(top.node)] = kBlack;
        stack.pop_back();
      }
    }
  }

  // Reachability and depth: BFS from every root at once. Shortest-path
  // coverage distances (Definition 2) are undefined for concepts the root
  // cannot reach, so each one is an error, not a warning.
  std::vector<int> depth(n, -1);
  std::vector<ConceptId> frontier;
  for (ConceptId root : roots) {
    depth[static_cast<size_t>(root)] = 0;
    frontier.push_back(root);
  }
  int max_depth = 0;
  ConceptId deepest = roots.empty() ? kInvalidConcept : roots[0];
  for (size_t head = 0; head < frontier.size(); ++head) {
    ConceptId c = frontier[head];
    for (ConceptId child : children[static_cast<size_t>(c)]) {
      if (depth[static_cast<size_t>(child)] != -1) continue;
      depth[static_cast<size_t>(child)] = depth[static_cast<size_t>(c)] + 1;
      if (depth[static_cast<size_t>(child)] > max_depth) {
        max_depth = depth[static_cast<size_t>(child)];
        deepest = child;
      }
      frontier.push_back(child);
    }
  }
  for (size_t c = 0; c < n; ++c) {
    if (depth[c] == -1) {
      report->AddError(
          "OSRS-ONT-002", StrFormat("concept %zu", c),
          StrFormat("concept '%s' is unreachable from the root",
                    NameOrId(spec, static_cast<ConceptId>(c)).c_str()));
    }
  }
  if (max_depth > options_.max_depth) {
    report->AddWarning(
        "OSRS-ONT-006", StrFormat("concept %d", deepest),
        StrFormat("hierarchy depth %d exceeds the bound %d (deepest "
                  "concept: '%s'); check for inverted edges",
                  max_depth, options_.max_depth,
                  NameOrId(spec, deepest).c_str()));
  }
}

void ModelValidator::CheckOntology(const Ontology& ontology,
                                   ValidationReport* report) const {
  CheckOntologySpec(SpecOf(ontology), report);
}

void ModelValidator::CheckItem(const Item& item, size_t num_concepts,
                               ValidationReport* report) const {
  CheckItem(item, num_concepts, /*item_index=*/0, report);
}

void ModelValidator::CheckItem(const Item& item, size_t num_concepts,
                               size_t item_index,
                               ValidationReport* report) const {
  const std::string item_location = ItemLocation(item, item_index);
  if (item.reviews.empty()) {
    report->AddWarning("OSRS-CRP-006", item_location, "item has no reviews");
    return;
  }
  for (size_t r = 0; r < item.reviews.size(); ++r) {
    const Review& review = item.reviews[r];
    const std::string review_location =
        StrFormat("%s review %zu", item_location.c_str(), r);
    if (!std::isfinite(review.rating) ||
        std::abs(review.rating) > options_.max_abs_sentiment) {
      report->AddWarning(
          "OSRS-CRP-004", review_location,
          StrFormat("rating %g outside the normalized scale [-%g, %g]",
                    review.rating, options_.max_abs_sentiment,
                    options_.max_abs_sentiment));
    }
    if (review.sentences.empty()) {
      report->AddWarning("OSRS-CRP-005", review_location,
                         "review has no sentences");
      continue;
    }
    for (size_t s = 0; s < review.sentences.size(); ++s) {
      const Sentence& sentence = review.sentences[s];
      const std::string sentence_location =
          StrFormat("%s sentence %zu", review_location.c_str(), s);
      if (sentence.text.empty() && sentence.pairs.empty()) {
        report->AddWarning("OSRS-CRP-008", sentence_location,
                           "sentence has neither text nor pairs");
      }
      for (size_t p = 0; p < sentence.pairs.size(); ++p) {
        const ConceptSentimentPair& pair = sentence.pairs[p];
        const std::string pair_location =
            StrFormat("%s pair %zu", sentence_location.c_str(), p);
        if (pair.concept_id < 0 ||
            static_cast<size_t>(pair.concept_id) >= num_concepts) {
          report->AddError(
              "OSRS-CRP-001", pair_location,
              StrFormat("pair references concept %d outside [0, %zu)",
                        pair.concept_id, num_concepts));
        }
        if (!std::isfinite(pair.sentiment)) {
          report->AddError("OSRS-CRP-002", pair_location,
                           "sentiment is not finite");
        } else if (std::abs(pair.sentiment) > options_.max_abs_sentiment) {
          report->AddError(
              "OSRS-CRP-003", pair_location,
              StrFormat("sentiment %g outside [-%g, %g]", pair.sentiment,
                        options_.max_abs_sentiment,
                        options_.max_abs_sentiment));
        }
      }
    }
  }
}

void ModelValidator::CheckItems(const std::vector<Item>& items,
                                size_t num_concepts,
                                ValidationReport* report) const {
  std::unordered_set<std::string> seen_ids;
  seen_ids.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].id.empty() && !seen_ids.insert(items[i].id).second) {
      report->AddWarning(
          "OSRS-CRP-007", StrFormat("item %zu", i),
          StrFormat("duplicate item id '%s'", items[i].id.c_str()));
    }
    CheckItem(items[i], num_concepts, i, report);
  }
}

void ModelValidator::CheckGroups(const std::vector<int>& group_begin,
                                 size_t num_pairs,
                                 ValidationReport* report) const {
  for (size_t g = 0; g < group_begin.size(); ++g) {
    const int offset = group_begin[g];
    const std::string location = StrFormat("group offset %zu", g);
    if (offset < 0 || static_cast<size_t>(offset) > num_pairs) {
      report->AddError("OSRS-CRP-009", location,
                       StrFormat("group offset %d outside [0, %zu]", offset,
                                 num_pairs));
    } else if (g > 0 && offset < group_begin[g - 1]) {
      report->AddError(
          "OSRS-CRP-010", location,
          StrFormat("group %zu starts at pair %d, inside group %zu, which "
                    "starts at pair %d",
                    g, offset, g - 1, group_begin[g - 1]));
    }
  }
}

void ModelValidator::CheckSolverConfig(int k, double epsilon,
                                       size_t num_candidates,
                                       ValidationReport* report) const {
  if (k < 0) {
    report->AddError("OSRS-SLV-001", "",
                     StrFormat("summary size k=%d is negative", k));
  } else if (static_cast<size_t>(k) > num_candidates) {
    report->AddWarning(
        "OSRS-SLV-002", "",
        StrFormat("k=%d exceeds the %zu candidates; the selection will be "
                  "truncated",
                  k, num_candidates));
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    report->AddError(
        "OSRS-SLV-003", "",
        StrFormat("epsilon %g must be a finite positive value", epsilon));
  } else if (epsilon > 2.0 * options_.max_abs_sentiment) {
    report->AddWarning(
        "OSRS-SLV-004", "",
        StrFormat("epsilon %g exceeds the full sentiment spread %g and "
                  "never filters",
                  epsilon, 2.0 * options_.max_abs_sentiment));
  }
}

ValidationReport ModelValidator::ValidateCorpusText(
    std::string_view text) const {
  ValidationReport report = MakeReport();
  bool saw_header = false;
  bool have_ontology = false;
  OntologySpec spec;
  std::vector<Item> items;
  Item* item = nullptr;
  Review* review = nullptr;
  size_t line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    if (raw_line.empty()) continue;
    if (raw_line[0] == '#') {
      if (StartsWith(raw_line, "# osrs-corpus")) saw_header = true;
      continue;
    }
    const std::string location = StrFormat("line %zu", line_number);
    size_t tab = raw_line.find('\t');
    if (tab == std::string::npos) {
      report.AddError("OSRS-FMT-001", location,
                      StrFormat("record without payload: '%s'",
                                raw_line.c_str()));
      continue;
    }
    std::string kind = raw_line.substr(0, tab);
    std::string payload = raw_line.substr(tab + 1);
    if (kind == "D") {
      // Domain label: free-form, nothing to check.
    } else if (kind == "O") {
      if (have_ontology) {
        report.AddWarning("OSRS-FMT-006", location,
                          "multiple ontology records; the last one wins");
      }
      for (char& c : payload) {
        if (c == '|') c = '\n';
      }
      spec = ParseOntologySpec(payload, &report);
      have_ontology = true;
    } else if (kind == "I") {
      items.emplace_back();
      item = &items.back();
      item->id = payload;
      review = nullptr;
    } else if (kind == "R") {
      if (item == nullptr) {
        report.AddError("OSRS-FMT-003", location, "R record before any item");
        continue;
      }
      double rating = 0.0;
      if (!ParseDouble(payload, &rating)) {
        report.AddError("OSRS-FMT-004", location,
                        StrFormat("malformed rating '%s'", payload.c_str()));
        continue;
      }
      item->reviews.emplace_back();
      review = &item->reviews.back();
      review->rating = rating;
    } else if (kind == "S") {
      if (review == nullptr) {
        report.AddError("OSRS-FMT-003", location,
                        "S record before any review");
        continue;
      }
      std::vector<std::string> fields = Split(payload, '\t');
      Sentence sentence;
      sentence.text = fields[0];
      for (size_t f = 1; f < fields.size(); ++f) {
        size_t colon = fields[f].find(':');
        int64_t concept_id = 0;
        double sentiment = 0.0;
        if (colon == std::string::npos ||
            !ParseInt64(fields[f].substr(0, colon), &concept_id) ||
            !ParseDouble(fields[f].substr(colon + 1), &sentiment)) {
          report.AddError(
              "OSRS-FMT-004", location,
              StrFormat("malformed pair field '%s'", fields[f].c_str()));
          continue;
        }
        sentence.pairs.push_back(
            {static_cast<ConceptId>(concept_id), sentiment});
      }
      review->sentences.push_back(std::move(sentence));
    } else {
      report.AddError("OSRS-FMT-002", location,
                      StrFormat("unknown record kind '%s'", kind.c_str()));
    }
  }
  if (!saw_header) {
    report.AddWarning("OSRS-FMT-007", "",
                      "missing '# osrs-corpus v1' header line");
  }
  if (!have_ontology) {
    report.AddError("OSRS-FMT-005", "", "corpus has no ontology record");
  } else {
    CheckOntologySpec(spec, &report);
  }
  CheckItems(items, spec.names.size(), &report);
  return report;
}

ValidationReport ModelValidator::ValidateOntologyText(
    std::string_view text) const {
  ValidationReport report = MakeReport();
  bool saw_header = false;
  for (const std::string& raw_line : Split(text, '\n')) {
    if (StartsWith(raw_line, "# osrs-ontology")) {
      saw_header = true;
      break;
    }
  }
  if (!saw_header) {
    report.AddWarning("OSRS-FMT-007", "",
                      "missing '# osrs-ontology v1' header line");
  }
  OntologySpec spec = ParseOntologySpec(text, &report);
  CheckOntologySpec(spec, &report);
  return report;
}

}  // namespace osrs
