// Annotation-pipeline benchmark: ReviewAnnotator::AnnotateTexts (sentence
// split, tokenize, stem, dictionary match, sentence sentiment) in ms per
// pass over two inputs, fastest of 5 passes, with the process's peak RSS
// after each input.
//
//   doctor      the Table-1 doctor corpus at scale 0.1 as raw review text,
//               built as perfbench's ingest workloads build it. Its
//               vocabulary is tiny, so nearly every token repeats one seen
//               before.
//   high_vocab  seeded random-letter tokens (about 500k, nearly all
//               distinct) in sentences, reviews and items over the same
//               ontology: open-vocabulary text, where a per-token memo
//               cannot help and must neither slow the pass down nor grow
//               with the vocabulary.
//
// Usage:
//   bench_annotate [--smoke] [--out=PATH]
//
// Prints one line per input and the JSON report on stdout, and writes the
// report to --out when given. --smoke shrinks both inputs (doctor scale
// 0.01, 20k random tokens) and runs 2 passes for CI.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "api/annotator.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "datagen/doctor_corpus.h"
#include "sentiment/estimator.h"
#include "text/tokenizer.h"

namespace osrs::bench {
namespace {

/// Raw review texts of the items of one input.
struct TextInput {
  std::vector<std::vector<std::string>> items;
  size_t tokens = 0;
  size_t distinct_tokens = 0;
};

/// Counts tokens as the annotator sees them.
void CountTokens(TextInput* input) {
  std::unordered_set<std::string> distinct;
  for (const auto& item : input->items) {
    for (const std::string& text : item) {
      for (std::string& token : Tokenize(text)) {
        ++input->tokens;
        distinct.insert(std::move(token));
      }
    }
  }
  input->distinct_tokens = distinct.size();
}

TextInput DoctorText(const Corpus& corpus) {
  TextInput input;
  for (const Item& item : corpus.items) {
    std::vector<std::string> texts;
    for (const Review& review : item.reviews) {
      std::string text;
      for (const Sentence& sentence : review.sentences) {
        if (!text.empty()) text += ' ';
        text += sentence.text;
        text += '.';
      }
      texts.push_back(std::move(text));
    }
    input.items.push_back(std::move(texts));
  }
  CountTokens(&input);
  return input;
}

/// About `num_tokens` random lowercase tokens of 4-12 letters, 8-15 per
/// sentence, 5 sentences per review, 50 reviews per item.
TextInput HighVocabularyText(size_t num_tokens, uint64_t seed) {
  Rng rng(seed);
  TextInput input;
  std::vector<std::string> reviews;
  std::string review;
  int sentences_in_review = 0;
  size_t emitted = 0;
  while (emitted < num_tokens) {
    const uint64_t sentence_length = 8 + rng.NextUint64(8);
    for (uint64_t t = 0; t < sentence_length; ++t) {
      if (t > 0) review += ' ';
      const uint64_t length = 4 + rng.NextUint64(9);
      for (uint64_t c = 0; c < length; ++c) {
        review += static_cast<char>('a' + rng.NextUint64(26));
      }
    }
    review += ". ";
    emitted += sentence_length;
    if (++sentences_in_review == 5) {
      reviews.push_back(std::move(review));
      review.clear();
      sentences_in_review = 0;
      if (reviews.size() == 50) {
        input.items.push_back(std::move(reviews));
        reviews.clear();
      }
    }
  }
  if (!review.empty()) reviews.push_back(std::move(review));
  if (!reviews.empty()) input.items.push_back(std::move(reviews));
  CountTokens(&input);
  return input;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Annotates every item of `input` `reps` times; returns the fastest pass
/// in ms and the pairs of one pass (aborts if an item fails).
double FastestPassMs(const ReviewAnnotator& annotator, const TextInput& input,
                     int reps, size_t* pairs) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    size_t pass_pairs = 0;
    Stopwatch watch;
    for (const auto& texts : input.items) {
      Result<Item> item = annotator.AnnotateTexts("item", texts, {});
      OSRS_CHECK_MSG(item.ok(), item.status().ToString());
      for (const Review& review : item->reviews) {
        for (const Sentence& sentence : review.sentences) {
          pass_pairs += sentence.pairs.size();
        }
      }
    }
    const double ms = watch.ElapsedMillis();
    if (rep == 0 || ms < best) best = ms;
    *pairs = pass_pairs;
  }
  return best;
}

int Run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else {
      std::fprintf(stderr, "usage: bench_annotate [--smoke] [--out=PATH]\n");
      return 2;
    }
  }
  const int reps = smoke ? 2 : 5;

  DoctorCorpusOptions corpus_options;
  corpus_options.scale = smoke ? 0.01 : 0.1;
  corpus_options.seed = 42;
  Corpus corpus = GenerateDoctorCorpus(corpus_options);
  const ReviewAnnotator annotator(&corpus.ontology,
                                  SentimentEstimator::LexiconOnly());

  BenchJsonWriter json("bench_annotate");
  json.Bool("smoke", smoke);
  json.Int("reps", reps);
  auto measure = [&](const char* name, const TextInput& input) {
    size_t pairs = 0;
    const double ms = FastestPassMs(annotator, input, reps, &pairs);
    const double rss_mb = PeakRssMb();
    std::printf("%-10s %9zu tokens %8zu distinct %7zu pairs  %9.2f ms/pass  "
                "peak RSS %.1f MB\n",
                name, input.tokens, input.distinct_tokens, pairs, ms, rss_mb);
    json.Raw(name,
             StrFormat("{\"tokens\":%zu,\"distinct_tokens\":%zu,\"pairs\":%zu,"
                       "\"ms_per_pass\":%.3f,\"peak_rss_mb\":%.2f}",
                       input.tokens, input.distinct_tokens, pairs, ms, rss_mb));
  };
  {
    TextInput doctor = DoctorText(corpus);
    corpus.items.clear();
    measure("doctor", doctor);
  }
  measure("high_vocab",
          HighVocabularyText(smoke ? 20000 : 500000, /*seed=*/17));

  std::printf("%s", json.Finish().c_str());
  if (!out_path.empty() && !json.WriteFile(out_path, "bench_annotate")) {
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) { return osrs::bench::Run(argc, argv); }
