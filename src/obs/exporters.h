// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Exporters over MetricsRegistry snapshots:
//
//  * PrintMetricsTable — the human-readable table the examples and bench
//    binaries print at exit (counters, gauges, then histograms with
//    count/mean/p50/p95/p99).
//  * MetricsToJson — one JSON object ({"counters":…,"gauges":…,
//    "histograms":…}) for dashboards and scripts.
//  * WriteBenchJson — the machine-readable per-run perf record
//    (BENCH_<name>.json): bench name, scalar results, and the full metrics
//    snapshot, so every bench run leaves an artifact CI can diff. See
//    scripts/bench.sh.

#ifndef SENSORD_OBS_EXPORTERS_H_
#define SENSORD_OBS_EXPORTERS_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace sensord::obs {

/// Scalar results a bench run reports alongside the metrics snapshot.
using BenchResults = std::vector<std::pair<std::string, double>>;

/// Run-environment metadata recorded in the perf record (quick-mode flag,
/// …) — string-valued, distinct from measured results.
using BenchMetadata = std::vector<std::pair<std::string, std::string>>;

/// Prints every registered metric as an aligned table. Histograms show
/// count, mean and interpolated p50/p95/p99 (see Histogram::Quantile).
void PrintMetricsTable(const MetricsRegistry& registry, std::FILE* out);

/// Serializes the registry to one JSON object.
std::string MetricsToJson(const MetricsRegistry& registry);

/// Writes a BENCH_*.json perf record: {"schema":"sensord.bench.v1",
/// "bench":name,"meta":{…},"results":{…},"metrics":{…}}. The "meta" object
/// is omitted when `metadata` is empty. Result and metadata keys are
/// emitted in sorted order (independent of harness collection order) and
/// histogram buckets ascending, so same-configuration runs produce
/// diffable documents. Returns IoError on failure.
Status WriteBenchJson(const std::string& path, const std::string& bench_name,
                      const BenchResults& results,
                      const MetricsRegistry& registry,
                      const BenchMetadata& metadata = {});

}  // namespace sensord::obs

#endif  // SENSORD_OBS_EXPORTERS_H_
