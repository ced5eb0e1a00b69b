// Reproduces the §5.3 sentiment-threshold selection experiment: sweep eps
// and report the fraction of pairs the greedy summary covers, then pick
// the knee of the curve with the elbow method. The paper reports the
// elbow lands at eps = 0.5 "most of the time"; the same should hold here
// (the generator's sentiment clusters have ~0.35-0.5 spread).

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "core/model.h"
#include "datagen/doctor_corpus.h"
#include "eval/elbow.h"

int main(int argc, char** argv) {
  osrs::bench::StatsSession stats_session(argc, argv);
  osrs::DoctorCorpusOptions corpus_options;
  corpus_options.scale = 0.012;
  corpus_options.ontology_concepts = 2000;
  osrs::Corpus corpus = osrs::GenerateDoctorCorpus(corpus_options);
  const std::vector<double> epsilons{0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.7, 0.9, 1.2,  1.6, 2.0};
  const int k = 8;

  osrs::TableWriter table(
      "Elbow-method eps selection: covered fraction of greedy k=8 summary");
  std::vector<std::string> header{"item"};
  for (double eps : epsilons) header.push_back(osrs::StrFormat("%.1f", eps));
  header.push_back("chosen");
  table.SetHeader(header);

  std::map<double, int> votes;
  for (const osrs::Item& item : corpus.items) {
    osrs::Item capped = osrs::TruncateToPairBudget(item, 400);
    auto pairs = osrs::PairsOf(osrs::CollectPairs(capped));
    osrs::ElbowResult result =
        osrs::SelectEpsilonByElbow(corpus.ontology, pairs, k, epsilons, {})
            .value();
    std::vector<std::string> row{capped.id};
    for (double fraction : result.covered_fraction) {
      row.push_back(osrs::StrFormat("%.3f", fraction));
    }
    row.push_back(osrs::StrFormat("%.1f", result.chosen_epsilon));
    table.AddRow(row);
    ++votes[result.chosen_epsilon];
  }
  table.Print();

  double mode = 0;
  int best = -1;
  for (const auto& [eps, count] : votes) {
    if (count > best) {
      best = count;
      mode = eps;
    }
  }
  std::printf("\nMost frequent elbow: eps = %.1f (%d of %zu items; the "
              "paper selects 0.5)\n",
              mode, best, corpus.items.size());
  return 0;
}
