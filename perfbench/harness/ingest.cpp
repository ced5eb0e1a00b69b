// ingest_doctor / ingest_phone: raw review text in, one summary per item
// out, one item at a time on one thread.
//
// Set-up generates the corpus (from the corpus seed), shuffles each item's
// reviews (from the run seed), rebuilds every review's raw text from the
// generated sentences, and throws the generator's annotations away: the
// program sees only text. The untraced run calls the public
// facade (ReviewAnnotator::AnnotateTexts, then ReviewSummarizer::Summarize
// with default options) and checks every distinct item's summary cost
// against the brute-force SummaryCost outside the timed region. The traced
// run repeats the facade call per item and then walks the same pipeline
// step by step through each layer's public functions, timing every layer
// from here and asserting that it reproduces the facade's pairs,
// selection and cost.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/annotator.h"
#include "api/review_summarizer.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/cost.h"
#include "core/distance.h"
#include "core/model.h"
#include "coverage/coverage_graph.h"
#include "coverage/item_graph.h"
#include "datagen/cellphone_corpus.h"
#include "datagen/doctor_corpus.h"
#include "extraction/dictionary_extractor.h"
#include "harness/workloads.h"
#include "sentiment/estimator.h"
#include "solver/greedy.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

using osrs::ConceptId;
using osrs::ConceptSentimentPair;
using osrs::Item;
using osrs::ItemSummary;
using osrs::PairOccurrence;
using osrs::Result;
using osrs::StrFormat;

constexpr double kEpsilon = 0.5;  // ReviewSummarizerOptions' default ε
constexpr int kSummarySize = 5;   // k: sentences per summary

/// What the program is given: per item, its id and raw review texts with
/// star ratings. Only the ontology survives from the generated corpus.
struct IngestInput {
  std::unique_ptr<osrs::Corpus> corpus;  // items cleared after the rebuild
  std::vector<std::string> ids;
  std::vector<std::vector<std::string>> texts;
  std::vector<std::vector<double>> ratings;
  std::unique_ptr<osrs::ReviewAnnotator> annotator;
  double generate_ms = 0.0;
};

std::unique_ptr<IngestInput> SetUp(const RunConfig& config) {
  auto input = std::make_unique<IngestInput>();
  int64_t start = NowNanos();
  // The corpus seed pins the corpus content; the run seed only shuffles
  // review order (below).
  const uint64_t corpus_seed = static_cast<uint64_t>(config.corpus_seed);
  if (config.workload == "ingest_doctor") {
    osrs::DoctorCorpusOptions options;
    options.scale = config.scale;
    options.seed = corpus_seed;
    input->corpus =
        std::make_unique<osrs::Corpus>(osrs::GenerateDoctorCorpus(options));
  } else {
    osrs::CellPhoneCorpusOptions options;
    options.scale = config.scale;
    options.seed = corpus_seed;
    input->corpus = std::make_unique<osrs::Corpus>(
        osrs::GenerateCellPhoneCorpus(options));
  }
  input->generate_ms = static_cast<double>(NowNanos() - start) * 1e-6;

  osrs::Rng rng(config.seed ^ 0x1265E57ULL);
  for (Item& item : input->corpus->items) {
    rng.Shuffle(item.reviews);
    input->ids.push_back(item.id);
    std::vector<std::string> texts;
    std::vector<double> ratings;
    for (const osrs::Review& review : item.reviews) {
      std::string text;
      for (const osrs::Sentence& sentence : review.sentences) {
        if (!text.empty()) text += ' ';
        text += sentence.text;
        text += '.';
      }
      texts.push_back(std::move(text));
      ratings.push_back(review.rating);
    }
    input->texts.push_back(std::move(texts));
    input->ratings.push_back(std::move(ratings));
  }
  input->corpus->items.clear();
  input->corpus->items.shrink_to_fit();
  input->annotator = std::make_unique<osrs::ReviewAnnotator>(
      &input->corpus->ontology, osrs::SentimentEstimator::LexiconOnly());
  return input;
}

/// Re-derives the summary's cost with the brute-force Definition 2 sum over
/// the pairs of the selected sentences.
bool CostMatchesReference(const osrs::Ontology& ontology, const Item& item,
                          const ItemSummary& summary, std::string* error) {
  osrs::PairDistance distance(&ontology, kEpsilon);
  std::vector<ConceptSentimentPair> chosen;
  for (const osrs::SummaryEntry& entry : summary.entries) {
    const osrs::Sentence& sentence =
        item.reviews[static_cast<size_t>(entry.review_index)]
            .sentences[static_cast<size_t>(entry.sentence_index)];
    chosen.insert(chosen.end(), sentence.pairs.begin(), sentence.pairs.end());
  }
  double reference = osrs::SummaryCost(
      distance, chosen, osrs::PairsOf(osrs::CollectPairs(item)));
  if (reference == summary.cost) return true;
  *error = StrFormat("%s: summary cost %.17g, brute-force cost %.17g",
                     item.id.c_str(), summary.cost, reference);
  return false;
}

bool SamePairs(const std::vector<PairOccurrence>& a,
               const std::vector<PairOccurrence>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pair == b[i].pair) || a[i].review_index != b[i].review_index ||
        a[i].sentence_index != b[i].sentence_index) {
      return false;
    }
  }
  return true;
}

/// Layer totals of one traced item; added to the ledger per item.
struct ItemTrace {
  int64_t split_ns = 0;
  int64_t tokenize_ns = 0;
  int64_t match_ns = 0;
  int64_t score_ns = 0;
  int64_t annotate_ns = 0;
  int64_t collect_ns = 0;
  int64_t build_ns = 0;
  int64_t greedy_ns = 0;
  int64_t summarize_ns = 0;
  int64_t sentences = 0;
  int64_t tokens = 0;
  int64_t mentions = 0;
  int64_t scored = 0;
};

/// The facade's pipeline, one public layer call at a time, with every call
/// timed from here. Fills `trace`; returns the item, its pair list, graph
/// and the greedy result through the out-parameters.
osrs::Status TracedItem(const IngestInput& input, size_t index,
                        const osrs::DictionaryExtractor& extractor,
                        const osrs::SentimentEstimator& estimator,
                        ItemTrace* trace, Item* item_out,
                        std::vector<PairOccurrence>* pairs_out,
                        osrs::ItemGraph* graph_out,
                        osrs::SummaryResult* result_out) {
  const std::vector<std::string>& texts = input.texts[index];
  int64_t annotate_start = NowNanos();
  Item item;
  item.id = input.ids[index];
  item.reviews.reserve(texts.size());
  for (size_t r = 0; r < texts.size(); ++r) {
    osrs::Review review;
    review.rating = input.ratings[index][r];
    int64_t t0 = NowNanos();
    std::vector<std::string> sentences = osrs::SplitSentences(texts[r]);
    int64_t t1 = NowNanos();
    trace->split_ns += t1 - t0;
    for (std::string& text : sentences) {
      osrs::Sentence sentence;
      sentence.text = std::move(text);
      t0 = NowNanos();
      std::vector<std::string> tokens = osrs::Tokenize(sentence.text);
      t1 = NowNanos();
      Result<std::vector<ConceptId>> concepts =
          extractor.TryExtractConcepts(tokens);
      int64_t t2 = NowNanos();
      trace->tokenize_ns += t1 - t0;
      trace->match_ns += t2 - t1;
      if (!concepts.ok()) return concepts.status();
      ++trace->sentences;
      trace->tokens += static_cast<int64_t>(tokens.size());
      trace->mentions += static_cast<int64_t>(concepts->size());
      if (!concepts->empty()) {
        Result<double> sentiment = estimator.TryScoreSentence(tokens);
        trace->score_ns += NowNanos() - t2;
        if (!sentiment.ok()) return sentiment.status();
        ++trace->scored;
        for (ConceptId concept_id : *concepts) {
          sentence.pairs.push_back({concept_id, *sentiment});
        }
      }
      review.sentences.push_back(std::move(sentence));
    }
    item.reviews.push_back(std::move(review));
  }
  OSRS_RETURN_IF_ERROR(osrs::ValidateItem(item));
  int64_t summarize_start = NowNanos();
  trace->annotate_ns += summarize_start - annotate_start;

  int64_t t0 = NowNanos();
  *pairs_out = osrs::CollectPairs(item);
  int64_t t1 = NowNanos();
  osrs::PairDistance distance(&input.corpus->ontology, kEpsilon);
  Result<osrs::ItemGraph> graph = osrs::TryBuildItemGraph(
      distance, item, osrs::SummaryGranularity::kSentences,
      osrs::CoverageBuildOptions{});
  int64_t t2 = NowNanos();
  trace->collect_ns += t1 - t0;
  trace->build_ns += t2 - t1;
  OSRS_RETURN_IF_ERROR(graph.status());
  osrs::GreedySummarizer greedy;
  Result<osrs::SummaryResult> result = greedy.Summarize(
      graph->graph, std::min(kSummarySize, graph->graph.num_candidates()));
  int64_t t3 = NowNanos();
  trace->greedy_ns += t3 - t2;
  trace->summarize_ns += t3 - summarize_start;
  OSRS_RETURN_IF_ERROR(result.status());
  *item_out = std::move(item);
  *graph_out = std::move(graph).value();
  *result_out = std::move(result).value();
  return osrs::Status::OK();
}

/// Set-up samples of one run: wall seconds and the generator's share.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> generate_ms;

  std::unique_ptr<IngestInput> Run(const RunConfig& config) {
    int64_t start = NowNanos();
    std::unique_ptr<IngestInput> input = SetUp(config);
    setup_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
    generate_ms.push_back(input->generate_ms);
    return input;
  }
};

/// Untraced run: facade calls only; end-to-end metrics. The set-up is
/// repeated at even steps of the measured time (outside it), each time
/// replacing the input with an identical fresh one, so the set-up samples
/// see the same mix of fast and slow stretches of the host as the
/// measurement does.
void RunUntraced(const RunConfig& config, SetupTimes* setups,
                 std::unique_ptr<IngestInput>& input, RunResult* out) {
  const size_t n = input->ids.size();
  std::vector<char> verified(n, 0);
  std::vector<std::vector<double>> write_ms(n);
  std::vector<std::vector<double>> read_ms(n);
  int64_t busy_ns = 0;
  int64_t calls = 0;
  const int64_t budget_ns = static_cast<int64_t>(config.seconds * 1e9);
  auto summarizer =
      std::make_unique<osrs::ReviewSummarizer>(&input->corpus->ontology);
  int setups_done = static_cast<int>(setups->setup_s.size());
  int passes = 0;
  for (size_t i = 0; busy_ns < budget_ns || passes == 0;
       i = (i + 1) % n, passes += i == 0 ? 1 : 0) {
    if (setups_done < config.setup_reps &&
        busy_ns >= budget_ns / config.setup_reps * setups_done) {
      summarizer.reset();
      input.reset();  // free the old input before timing the new one
      input = setups->Run(config);
      summarizer =
          std::make_unique<osrs::ReviewSummarizer>(&input->corpus->ontology);
      ++setups_done;
    }
    ++out->attempted;
    int64_t t0 = NowNanos();
    Result<Item> item = input->annotator->AnnotateTexts(
        input->ids[i], input->texts[i], input->ratings[i]);
    int64_t t1 = NowNanos();
    if (!item.ok()) {
      busy_ns += t1 - t0;
      out->Fail(input->ids[i] + ": " + item.status().ToString());
      continue;
    }
    Result<ItemSummary> summary = summarizer->Summarize(*item, kSummarySize);
    int64_t t2 = NowNanos();
    busy_ns += t2 - t0;
    if (!summary.ok()) {
      out->Fail(input->ids[i] + ": " + summary.status().ToString());
      continue;
    }
    write_ms[i].push_back(static_cast<double>(t1 - t0) * 1e-6);
    read_ms[i].push_back(static_cast<double>(t2 - t1) * 1e-6);
    ++calls;
    if (!verified[i]) {
      verified[i] = 1;
      std::string error;
      if (!CostMatchesReference(input->corpus->ontology, *item, *summary,
                                &error)) {
        ++out->mismatches;
        out->Fail(error);
      }
    }
  }
  // Per item, the fastest pass: the host's other tenants only ever add
  // time (a busy sibling hyperthread slows this one by ~1.5x for seconds
  // at a time), so the fastest repetition is the steadiest estimate of
  // what the item costs. The quantiles are then over items.
  std::vector<double> item_write_ms, item_read_ms;
  double pass_ms = 0.0;
  double median_pass_ms = 0.0;
  int64_t pass_reviews = 0;
  for (size_t i = 0; i < n; ++i) {
    if (read_ms[i].empty()) continue;  // the item failed on every pass
    std::vector<double> total_ms(read_ms[i].size());
    for (size_t s = 0; s < total_ms.size(); ++s) {
      total_ms[s] = write_ms[i][s] + read_ms[i][s];
    }
    pass_ms += Quantile(total_ms, 0.0);
    median_pass_ms += Median(total_ms);
    pass_reviews += static_cast<int64_t>(input->texts[i].size());
    item_write_ms.push_back(Quantile(write_ms[i], 0.0));
    item_read_ms.push_back(Quantile(read_ms[i], 0.0));
  }
  MetricSet& m = out->end_to_end;
  m.Set("reviews_per_s", static_cast<double>(pass_reviews) / (pass_ms * 1e-3),
        "reviews/s");
  m.Set("read_ms_p50", Quantile(item_read_ms, 0.5), "ms");
  m.Set("read_ms_p99", Quantile(item_read_ms, 0.99), "ms");
  m.Set("write_ms_p50", Quantile(item_write_ms, 0.5), "ms");
  m.Set("write_ms_p99", Quantile(item_write_ms, 0.99), "ms");
  out->notes.push_back(StrFormat(
      "one pass: fastest %.3f ms, median %.3f ms per item summed",
      pass_ms, median_pass_ms));
  out->notes.push_back(StrFormat(
      "%lld facade calls over %zu items (%lld reviews, all items "
      "cost-checked) in %.3f s busy; metrics use each item's fastest of "
      "its %zu-%zu passes",
      static_cast<long long>(calls), n, static_cast<long long>(pass_reviews),
      static_cast<double>(busy_ns) * 1e-9, read_ms[n - 1].size(),
      read_ms[0].size()));
}

/// Traced run: whole passes over the corpus, each item once through the
/// facade (untraced) and once layer by layer (traced).
void RunTraced(const RunConfig& config, const IngestInput& input,
               RunResult* out) {
  osrs::ReviewSummarizer summarizer(&input.corpus->ontology);
  osrs::DictionaryExtractor extractor(&input.corpus->ontology);
  osrs::SentimentEstimator estimator = osrs::SentimentEstimator::LexiconOnly();

  Ledger ledger;
  ledger.Declare("ingest.item", "", "items");
  ledger.Declare("api.annotate", "ingest.item", "reviews");
  ledger.Declare("text.split", "api.annotate", "sentences");
  ledger.Declare("text.tokenize", "api.annotate", "tokens");
  ledger.Declare("extraction.match", "api.annotate", "mentions");
  ledger.Declare("sentiment.score", "api.annotate", "sentences");
  ledger.Declare("api.summarize", "ingest.item", "candidates");
  ledger.Declare("core.collect_pairs", "api.summarize", "pairs");
  ledger.Declare("coverage.build", "api.summarize", "edges");
  ledger.Declare("solver.greedy", "api.summarize", "key updates");

  const size_t n = input.ids.size();
  int64_t facade_ns = 0;
  int64_t traced_ns = 0;
  ItemTrace totals;
  int64_t pairs = 0, edges = 0, candidates = 0, work = 0;
  double max_build_ms = 0.0;
  double max_graph_mb = 0.0;
  int passes = 0;
  const int64_t budget_ns = static_cast<int64_t>(config.seconds * 1e9);
  int64_t run_start = NowNanos();
  while (passes == 0 || NowNanos() - run_start < budget_ns) {
    for (size_t i = 0; i < n; ++i) {
      ++out->attempted;
      int64_t t0 = NowNanos();
      Result<Item> facade_item = input.annotator->AnnotateTexts(
          input.ids[i], input.texts[i], input.ratings[i]);
      Result<ItemSummary> facade =
          facade_item.ok() ? summarizer.Summarize(*facade_item, kSummarySize)
                           : Result<ItemSummary>(facade_item.status());
      int64_t t1 = NowNanos();
      facade_ns += t1 - t0;
      if (!facade.ok()) {
        out->Fail(input.ids[i] + ": " + facade.status().ToString());
        continue;
      }

      ItemTrace trace;
      Item item;
      std::vector<PairOccurrence> item_pairs;
      osrs::ItemGraph graph;
      osrs::SummaryResult result;
      int64_t t2 = NowNanos();
      osrs::Status status =
          TracedItem(input, i, extractor, estimator, &trace, &item,
                     &item_pairs, &graph, &result);
      int64_t item_ns = NowNanos() - t2;
      traced_ns += item_ns;
      if (!status.ok()) {
        out->Fail(input.ids[i] + ": " + status.ToString());
        continue;
      }
      ledger.AddNanos("ingest.item", item_ns);
      ledger.AddNanos("api.annotate", trace.annotate_ns);
      ledger.AddNanos("text.split", trace.split_ns);
      ledger.AddNanos("text.tokenize", trace.tokenize_ns);
      ledger.AddNanos("extraction.match", trace.match_ns);
      ledger.AddNanos("sentiment.score", trace.score_ns);
      ledger.AddNanos("api.summarize", trace.summarize_ns);
      ledger.AddNanos("core.collect_pairs", trace.collect_ns);
      ledger.AddNanos("coverage.build", trace.build_ns);
      ledger.AddNanos("solver.greedy", trace.greedy_ns);
      ledger.AddCount("ingest.item", 1);
      ledger.AddCount("api.annotate",
                      static_cast<double>(input.texts[i].size()));
      ledger.AddCount("text.split", static_cast<double>(trace.sentences));
      ledger.AddCount("text.tokenize", static_cast<double>(trace.tokens));
      ledger.AddCount("extraction.match", static_cast<double>(trace.mentions));
      ledger.AddCount("sentiment.score", static_cast<double>(trace.scored));
      ledger.AddCount("api.summarize", graph.graph.num_candidates());
      ledger.AddCount("core.collect_pairs",
                      static_cast<double>(item_pairs.size()));
      ledger.AddCount("coverage.build",
                      static_cast<double>(graph.graph.num_edges()));
      ledger.AddCount("solver.greedy", static_cast<double>(result.work));
      totals.sentences += trace.sentences;
      totals.tokens += trace.tokens;
      totals.mentions += trace.mentions;
      totals.scored += trace.scored;
      pairs += static_cast<int64_t>(item_pairs.size());
      size_t item_edges = graph.graph.num_edges();
      edges += static_cast<int64_t>(item_edges);
      candidates += graph.graph.num_candidates();
      work += result.work;
      max_build_ms =
          std::max(max_build_ms, static_cast<double>(trace.build_ns) * 1e-6);
      max_graph_mb = std::max(
          max_graph_mb,
          static_cast<double>(osrs::CoverageGraph::EstimateBytes(
              item_edges, static_cast<size_t>(graph.graph.num_candidates()),
              static_cast<size_t>(graph.graph.num_targets()), false)) /
              (1024.0 * 1024.0));

      // The traced walk must be the facade's work: same pairs, same
      // selection, bit-identical cost.
      bool same = SamePairs(item_pairs, osrs::CollectPairs(*facade_item)) &&
                  result.cost == facade->cost &&
                  result.selected.size() == facade->entries.size();
      for (size_t s = 0; same && s < result.selected.size(); ++s) {
        auto origin = graph.group_origin[static_cast<size_t>(
            result.selected[s])];
        same = origin.first == facade->entries[s].review_index &&
               origin.second == facade->entries[s].sentence_index;
      }
      if (!same) {
        ++out->mismatches;
        out->Fail(input.ids[i] + ": traced pipeline disagrees with facade");
      }
    }
    ++passes;
  }

  // Everything below is per pass over the corpus.
  const double per = 1.0 / passes;
  MetricSet& m = out->per_layer;
  m.Set("text.split_ms", ledger.Millis("text.split") * per, "ms");
  m.Set("text.tokenize_ms", ledger.Millis("text.tokenize") * per, "ms");
  m.Set("text.sentences", static_cast<double>(totals.sentences) * per,
        "count");
  m.Set("text.tokens", static_cast<double>(totals.tokens) * per, "count");
  m.Set("extraction.match_ms", ledger.Millis("extraction.match") * per, "ms");
  m.Set("extraction.mentions", static_cast<double>(totals.mentions) * per,
        "count");
  m.Set("sentiment.score_ms", ledger.Millis("sentiment.score") * per, "ms");
  m.Set("sentiment.scored_sentences",
        static_cast<double>(totals.scored) * per, "count");
  double annotate_ms = ledger.Millis("api.annotate");
  double summarize_ms = ledger.Millis("api.summarize");
  m.Set("api.annotate_ms", annotate_ms * per, "ms");
  m.Set("api.summarize_ms", summarize_ms * per, "ms");
  m.Set("api.annotate_share", annotate_ms / (annotate_ms + summarize_ms),
        "ratio");
  m.Set("core.collect_pairs_ms", ledger.Millis("core.collect_pairs") * per,
        "ms");
  m.Set("core.pairs", static_cast<double>(pairs) * per, "count");
  m.Set("coverage.build_ms", ledger.Millis("coverage.build") * per, "ms");
  m.Set("coverage.max_item_build_ms", max_build_ms, "ms");
  m.Set("coverage.edges", static_cast<double>(edges) * per, "count");
  m.Set("coverage.candidates", static_cast<double>(candidates) * per,
        "count");
  m.Set("coverage.graph_mb", max_graph_mb, "MB");
  m.Set("coverage.edges_per_pair",
        pairs > 0 ? static_cast<double>(edges) / static_cast<double>(pairs)
                  : 0.0,
        "ratio");
  m.Set("solver.greedy_ms", ledger.Millis("solver.greedy") * per, "ms");
  m.Set("solver.work", static_cast<double>(work) * per, "count");
  double facade_ms = static_cast<double>(facade_ns) * 1e-6;
  double traced_ms = static_cast<double>(traced_ns) * 1e-6;
  m.Set("trace.overhead_ms", (traced_ms - facade_ms) * per, "ms");
  m.Set("trace.overhead_ratio", (traced_ms - facade_ms) / facade_ms, "ratio");

  out->ledger_text = StrFormat(
      "ledger (ms per pass over %zu items, %d pass(es); share of "
      "ingest.item):\n",
      n, passes);
  out->ledger_text += ledger.Render(per);
  out->ledger_text += StrFormat(
      "  tracing overhead: traced %.3f ms - untraced facade %.3f ms = %.3f ms "
      "per pass (%.2f%% of the untraced %.3f ms)\n",
      traced_ms * per, facade_ms * per, (traced_ms - facade_ms) * per,
      100.0 * (traced_ms - facade_ms) / facade_ms, facade_ms * per);
}

}  // namespace

RunResult RunIngest(const RunConfig& config) {
  RunResult out;
  SetupTimes setups;
  std::unique_ptr<IngestInput> input = setups.Run(config);
  if (config.trace) {
    while (static_cast<int>(setups.setup_s.size()) < config.setup_reps) {
      input.reset();  // free the previous set-up before timing the next
      input = setups.Run(config);
    }
    RunTraced(config, *input, &out);
  } else {
    RunUntraced(config, &setups, input, &out);
  }
  out.end_to_end.Set("setup_s", Median(setups.setup_s), "s");
  out.per_layer.Set("datagen.generate_ms", Median(setups.generate_ms), "ms");
  out.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
