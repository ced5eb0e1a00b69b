#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include "harness/util.h"

namespace perfbench {

/// ingest_doctor / ingest_phone: raw review text in, summaries out, one
/// item at a time on one thread (harness/ingest.cpp).
RunResult RunIngest(const RunConfig& config);

/// serve_mixed: open-loop reads and writes against a persistent
/// SummaryServer (harness/serve.cpp).
RunResult RunServe(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
