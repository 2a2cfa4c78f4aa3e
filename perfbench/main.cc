// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// sensord benchmark. One closed-loop client on one simulator thread
// drives a named workload through the public API:
//
//   sensord_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--rounds <n>] [--scale full|tiny]
//
// Set-up (hierarchy, nodes, warm-up to one full window) is timed several
// times; the measured phase then runs rounds for --seconds (or exactly
// --rounds). Untraced runs report the end-to-end metrics; traced runs
// (--trace 1) time every Simulator call, enable the library's timing
// histograms on alternate rounds, replay leaf readings through the layer
// calls, and report the per-layer metrics and budget. The last line of
// stdout is the JSON result; see README.md for every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/d3.h"
#include "fleet.h"
#include "layers.h"
#include "obs/trace.h"
#include "score.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// A run that has not reached its round targets by now stops measuring, so
// the process always exits well inside three minutes.
constexpr double kWallCapSeconds = 150.0;
// Epochs of an untraced run, at least, so setup_s is a median of several.
constexpr size_t kMinEpochs = 4;
// Rounds the untraced timings are taken from (ten lie beyond p99).
constexpr size_t kTimedRounds = 1000;
// Seed of the choice of traced rounds.
constexpr uint64_t kTracePickSeed = 0x7EACE5ULL;
// Leaves whose readings the traced run replays through the layer calls.
constexpr size_t kReplayLeaves = 4;
// fig11_relay's message ordering, Centralized >> MGDD >> D3, as the least
// ratio between neighbours.
constexpr double kCentralizedOverMgdd = 10.0;
constexpr double kMgddOverD3 = 1.2;
// Quality and message cost are measured on this fixed input, so they
// compare code versions rather than seeds.
constexpr uint64_t kEvaluationSeed = 2026;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t rounds = 0;  // 0: measure for `seconds`
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: sensord_perfbench --workload "
               "<e2e_detect|engine_fleet|fig11_relay> --seed <n> --seconds "
               "<s> --trace <0|1> [--rounds <n>] [--scale full|tiny]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("flag without a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--rounds") {
      a.rounds = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") Usage("--scale: full|tiny");
      a.tiny = value == "tiny";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + flag).c_str());
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Every reading of one pass, round-major (leaves x dimensions per round):
// the set-up rounds, then the measured rounds.
struct Inputs {
  std::vector<double> setup;
  std::vector<double> measured;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t rounds) {
  ReadingSource source(spec, seed);
  Inputs in;
  std::vector<double> flat;
  for (size_t r = 0; r < SetupRounds(spec); ++r) {
    source.NextRound(&flat);
    in.setup.insert(in.setup.end(), flat.begin(), flat.end());
  }
  for (size_t r = 0; r < rounds; ++r) {
    source.NextRound(&flat);
    in.measured.insert(in.measured.end(), flat.begin(), flat.end());
  }
  return in;
}

// Builds the hierarchy and nodes and runs the set-up rounds.
std::unique_ptr<Fleet> SetUp(const WorkloadSpec& spec, uint64_t seed,
                             const std::vector<double>& setup) {
  auto fleet = std::make_unique<Fleet>(spec, seed);
  const size_t row = spec.leaves * spec.dimensions;
  for (size_t at = 0; at < setup.size(); at += row) {
    fleet->RunRound(&setup[at], nullptr);
  }
  return fleet;
}

uint64_t SimMessages(Fleet& fleet, Strategy s) {
  return fleet.sim(s) != nullptr ? fleet.sim(s)->stats().TotalMessages() : 0;
}

void ClearRecorders(Fleet& fleet) {
  for (int s = 0; s < kNumStrategies; ++s) {
    fleet.recorder(Strategy(s)).Clear();
  }
}

// Untimed pass over the fixed evaluation input: quality against exact
// ground truth and the per-reading message cost, both deterministic.
struct Evaluation {
  sensord::PrecisionRecall d3;
  sensord::PrecisionRecall mgdd;
  uint64_t messages[kNumStrategies] = {};
  uint64_t readings = 0;
  uint64_t violations = 0;
};

Evaluation Evaluate(const WorkloadSpec& spec) {
  const Inputs in = MakeInputs(spec, kEvaluationSeed, spec.eval_rounds);
  std::unique_ptr<Fleet> fleet = SetUp(spec, kEvaluationSeed, in.setup);
  ClearRecorders(*fleet);
  const size_t row = spec.leaves * spec.dimensions;
  std::unique_ptr<Scorer> scorer;
  if (spec.detect) {
    scorer = std::make_unique<Scorer>(*fleet);
    for (size_t at = 0; at < in.setup.size(); at += row) {
      scorer->Add(&in.setup[at]);
    }
  }
  Evaluation ev;
  uint64_t start[kNumStrategies];
  for (int s = 0; s < kNumStrategies; ++s) {
    start[s] = SimMessages(*fleet, Strategy(s));
  }
  for (size_t r = 0; r < spec.eval_rounds; ++r) {
    const double* flat = &in.measured[r * row];
    if (scorer != nullptr) scorer->AddAndJudge(flat);
    fleet->RunRound(flat, nullptr);
    ev.violations += ContainmentViolations(fleet->recorder(kD3));
    if (scorer != nullptr) scorer->Resolve(*fleet, SetupRounds(spec) + r + 1);
    ClearRecorders(*fleet);
  }
  for (int s = 0; s < kNumStrategies; ++s) {
    ev.messages[s] = SimMessages(*fleet, Strategy(s)) - start[s];
  }
  ev.readings = spec.leaves * spec.eval_rounds;
  if (scorer != nullptr) {
    ev.d3 = scorer->d3();
    ev.mgdd = scorer->mgdd();
  }
  return ev;
}

// Everything one run produces.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int threads = 0;
};

RunResult Run(const WorkloadSpec& spec, const Args& args) {
  const auto started = Clock::now();
  RunResult result;
  const size_t leaves = spec.leaves;
  const size_t dims = spec.dimensions;
  const size_t row = leaves * dims;

  // Each epoch sets up a fresh fleet (timed) and runs the same measured
  // rounds on it, so every epoch does identical work and the figures do
  // not depend on how many epochs fit in the run.
  const size_t epoch_rounds = args.rounds > 0 ? args.rounds : spec.epoch_rounds;
  const size_t min_epochs = args.rounds > 0 || args.trace ? 1 : kMinEpochs;
  const Inputs in = MakeInputs(spec, args.seed, epoch_rounds);
  if (!spec.detect &&
      SetupRounds(spec) + std::max(epoch_rounds, spec.eval_rounds) >=
          spec.window) {
    Usage("--rounds would fill the traffic-only workload's windows");
  }

  const Probe probe;
  Probe::Values measured{};  // summed over measured rounds
  Probe::Values traced{};    // summed over traced rounds
  std::vector<double> setup_s;
  std::vector<double> round_ns;
  double measured_ns = 0.0, traced_ns = 0.0, untraced_ns = 0.0;
  size_t traced_rounds = 0, untraced_rounds = 0;
  SimSpans spans[kNumStrategies];
  uint64_t violations = 0;
  double peak_rss_mb = 0.0;
  bool capped = false;
  std::unique_ptr<Fleet> fleet;

  for (size_t epoch = 0;; ++epoch) {
    if (epoch >= min_epochs &&
        (args.rounds > 0 || measured_ns >= args.seconds * 1e9)) {
      break;
    }
    if (Seconds(Clock::now() - started) > kWallCapSeconds) {
      capped = true;
      break;
    }
    fleet.reset();
    const auto t0 = Clock::now();
    fleet = SetUp(spec, args.seed, in.setup);
    setup_s.push_back(Seconds(Clock::now() - t0));
    ClearRecorders(*fleet);

    const Probe::Values epoch_before = probe.Read();
    // Traced runs trace a random half of the rounds, the same in every
    // epoch; alternating would alias with periodic work such as the
    // estimator's age-triggered rebuilds.
    sensord::Rng pick(kTracePickSeed);
    for (size_t r = 0; r < epoch_rounds; ++r) {
      const double* flat = &in.measured[r * row];
      const bool traced_round = args.trace && pick.Bernoulli(0.5);
      Probe::Values before{};
      if (traced_round) {
        before = probe.Read();
        sensord::obs::SetTimingEnabled(true);
      }
      const auto r0 = Clock::now();
      fleet->RunRound(flat, traced_round ? spans : nullptr);
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - r0).count();
      if (traced_round) {
        sensord::obs::SetTimingEnabled(false);
        const Probe::Values after = probe.Read();
        for (size_t q = 0; q < kNumQuantities; ++q) {
          traced[q] += after[q] - before[q];
        }
        traced_ns += ns;
        ++traced_rounds;
      } else {
        untraced_ns += ns;
        ++untraced_rounds;
      }
      round_ns.push_back(ns);
      measured_ns += ns;
      violations += ContainmentViolations(fleet->recorder(kD3));
      ClearRecorders(*fleet);
    }
    const Probe::Values epoch_after = probe.Read();
    for (size_t q = 0; q < kNumQuantities; ++q) {
      measured[q] += epoch_after[q] - epoch_before[q];
    }
    // The first epoch's set-up and rounds; later epochs repeat them, and
    // the evaluation pass (with its ground-truth tracker) comes after.
    if (epoch == 0) peak_rss_mb = PeakRssMb();
  }
  result.threads = fleet != nullptr ? fleet->sim(kD3)->threads() : 0;

  const size_t rounds = round_ns.size();
  result.attempted = static_cast<uint64_t>(leaves * std::max<size_t>(rounds, 1));

  // ---- checks ------------------------------------------------------------
  auto check = [&](const std::string& name, bool ok, std::string detail) {
    result.checks.push_back({name, ok, std::move(detail)});
  };
  check("rounds", rounds > 0 && !capped,
        std::to_string(rounds) + " measured rounds in " +
            std::to_string(setup_s.size()) + " epochs" +
            (capped ? " (stopped at the wall-clock cap)" : ""));
  check("threads", result.threads == 1,
        "simulator threads = " + std::to_string(result.threads));
  if (spec.detect) {
    check("regime.expirations", measured[kChainExpirations] > 0,
          "chain-sample expirations = " + JsonNumber(measured[kChainExpirations]));
    check("regime.rebuilds", measured[kRebuilds] > 0,
          "estimator rebuilds = " + JsonNumber(measured[kRebuilds]));
    check("regime.mdef_evaluations", measured[kMdefEvaluations] > 0,
          "MDEF evaluations = " + JsonNumber(measured[kMdefEvaluations]));
    check("regime.flags",
          measured[kD3LeafFlags] > 0 && measured[kMgddFlags] > 0,
          "D3 leaf flags = " + JsonNumber(measured[kD3LeafFlags]) +
              ", MGDD flags = " + JsonNumber(measured[kMgddFlags]));
  } else {
    check("regime.kde_queries", measured[kBoxQueries] == 0,
          "KDE box queries = " + JsonNumber(measured[kBoxQueries]));
    check("regime.window_never_fills",
          measured[kChainExpirations] == 0 && measured[kRebuilds] == 0,
          "expirations = " + JsonNumber(measured[kChainExpirations]) +
              ", rebuilds = " + JsonNumber(measured[kRebuilds]));
  }

  const Evaluation ev = Evaluate(spec);
  violations += ev.violations;
  if (spec.detect) {
    const bool ok = ev.d3.Precision() >= spec.d3_precision_floor &&
                    ev.d3.Recall() >= spec.d3_recall_floor &&
                    ev.mgdd.Precision() >= spec.mgdd_precision_floor &&
                    ev.mgdd.Recall() >= spec.mgdd_recall_floor;
    check("quality_floors", ok,
          "D3 " + ev.d3.ToString() + "; MGDD " + ev.mgdd.ToString());
  } else {
    const auto c = static_cast<double>(ev.messages[kCentralized]);
    const auto m = static_cast<double>(ev.messages[kMgdd]);
    const auto d = static_cast<double>(ev.messages[kD3]);
    check("regime.message_ordering",
          d > 0 && m >= kMgddOverD3 * d && c >= kCentralizedOverMgdd * m,
          "evaluation messages Centralized/MGDD/D3 = " + JsonNumber(c) +
              "/" + JsonNumber(m) + "/" + JsonNumber(d));
  }
  check("containment", violations == 0,
        std::to_string(violations) + " D3 flags above level 1 without the "
                                     "level below flagging the same reading");

  if (!args.trace) {
    // Every epoch does identical work, so epochs differ only by what else
    // the host was doing. The timings pool the fastest epochs, enough of
    // them for kTimedRounds rounds.
    std::vector<std::pair<double, size_t>> epoch_ns;  // (time, epoch)
    for (size_t e = 0; e * epoch_rounds < rounds; ++e) {
      double ns = 0.0;
      for (size_t r = e * epoch_rounds; r < (e + 1) * epoch_rounds; ++r) {
        ns += round_ns[r];
      }
      epoch_ns.emplace_back(ns, e);
    }
    std::sort(epoch_ns.begin(), epoch_ns.end());
    const size_t pooled = std::min(
        epoch_ns.size(), (kTimedRounds + epoch_rounds - 1) / epoch_rounds);
    std::vector<double> sorted;
    double pooled_ns = 0.0;
    for (size_t i = 0; i < pooled; ++i) {
      const size_t e = epoch_ns[i].second;
      pooled_ns += epoch_ns[i].first;
      sorted.insert(sorted.end(),
                    round_ns.begin() + static_cast<long>(e * epoch_rounds),
                    round_ns.begin() + static_cast<long>((e + 1) * epoch_rounds));
    }
    std::sort(sorted.begin(), sorted.end());
    const double readings = static_cast<double>(leaves * sorted.size());
    result.metrics = {
        {"readings_per_s", Ratio(readings, pooled_ns * 1e-9), "1/s"},
        {"round_p50_us", sorted.empty() ? 0.0 : Percentile(sorted, 0.50) / 1e3,
         "us"},
        {"round_p99_us", sorted.empty() ? 0.0 : Percentile(sorted, 0.99) / 1e3,
         "us"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"messages_per_reading",
         Ratio(static_cast<double>(ev.messages[kD3] + ev.messages[kMgdd]),
               static_cast<double>(ev.readings)),
         "count"},
        // With no detection (fig11_relay) nothing is flagged or scored, and
        // PrecisionRecall's 0/0 convention reads 1.0.
        {"d3_precision", ev.d3.Precision(), "ratio"},
        {"d3_recall", ev.d3.Recall(), "ratio"},
        {"mgdd_precision", ev.mgdd.Precision(), "ratio"},
        {"mgdd_recall", ev.mgdd.Recall(), "ratio"},
    };
    std::printf("rounds: %zu measured in %zu epochs; timings from the "
                "fastest %zu (%zu rounds, %zu beyond p99); %llu evaluation "
                "readings\n",
                rounds, setup_s.size(), pooled, sorted.size(),
                sorted.size() - static_cast<size_t>(std::ceil(0.99 * sorted.size())),
                static_cast<unsigned long long>(ev.readings));
  } else {
    // ---- per-layer metrics (traced rounds only) ---------------------------
    const double readings_t = static_cast<double>(leaves * traced_rounds);
    auto per_reading = [&](Quantity q) { return Ratio(traced[q], readings_t); };
    const ReplayResult replay = Replay(*fleet, in.setup, in.measured,
                                       std::min(kReplayLeaves, leaves));

    // Library timers must record real counts, matching their counters.
    check("timers.observe_ns",
          traced[kObserveNsCount] > 0 &&
              traced[kObserveNsCount] == traced[kObserves],
          "observe_ns count " + JsonNumber(traced[kObserveNsCount]) +
              " vs observes " + JsonNumber(traced[kObserves]));
    check("timers.chain_add_ns",
          traced[kChainAddNsCount] > 0 &&
              traced[kChainAddNsCount] == traced[kChainAdds],
          "add_ns count " + JsonNumber(traced[kChainAddNsCount]) +
              " vs adds " + JsonNumber(traced[kChainAdds]));
    check("timers.rebuild_ns",
          traced[kRebuildNsCount] == traced[kRebuilds] &&
              (!spec.detect || traced[kRebuilds] > 0),
          "rebuild_ns count " + JsonNumber(traced[kRebuildNsCount]) +
              " vs rebuilds " + JsonNumber(traced[kRebuilds]));
    // Every leaf observes each reading once per detector simulator; the
    // library's observe count also covers the leaders.
    const double leaf_observes = readings_t * 2.0;
    check("timers.observe_count_covers_leaves",
          traced[kObserves] >= leaf_observes,
          "observes " + JsonNumber(traced[kObserves]) + " >= leaf deliveries " +
              JsonNumber(leaf_observes));
    check("replay.faithful", replay.faithful && replay.readings > 0,
          replay.faithful ? std::to_string(replay.leaves) +
                                " leaves replayed to the live model state"
                          : replay.mismatch);

    // Budget of the traced wall time, by layer self time. Library timers
    // give the chain sample, the variance sketches (the rest of Observe,
    // which does nothing else) and rebuilds; replayed per-call costs times
    // the live call counts give the decisions; the benchmark's spans give
    // the centralized relay. What is left (event queue, transport, relay
    // in D3/MGDD, message building, timer overhead, estimation error) is
    // the unattributed remainder.
    const double chain_t = traced[kChainAddNsSum];
    const double sketch_t = traced[kObserveNsSum] - chain_t;
    const double rebuild_t = traced[kRebuildNsSum];
    const double d3_decisions =
        (spec.detect ? readings_t : 0.0) + traced[kD3Rechecks];
    const double decide_t = replay.decide_ns * d3_decisions;
    const double mdef_t = replay.mdef_ns * traced[kMdefEvaluations];
    const double central_t =
        spans[kCentralized].deliver_ns + spans[kCentralized].run_ns;
    const double unattributed_t = traced_ns - chain_t - sketch_t -
                                  rebuild_t - decide_t - mdef_t - central_t;

    double buckets = 0.0;
    for (size_t i = 0; i < leaves; ++i) {
      const auto& leaf = static_cast<const sensord::D3LeafNode&>(
          fleet->sim(kD3)->node(fleet->ids(kD3)[static_cast<size_t>(
              fleet->leaf_slots()[i])]));
      for (size_t d = 0; d < dims; ++d) {
        buckets += static_cast<double>(
            leaf.model().variance_sketch(d).NumBuckets());
      }
    }
    buckets /= static_cast<double>(leaves * dims);

    double deliver_ns = 0.0, run_ns = 0.0, deliver_calls = 0.0,
           run_calls = 0.0;
    for (const SimSpans& s : spans) {
      deliver_ns += s.deliver_ns;
      run_ns += s.run_ns;
      deliver_calls += static_cast<double>(s.deliver_calls);
      run_calls += static_cast<double>(s.run_calls);
    }
    auto sim_s = [&](Strategy s) {
      return (spans[s].deliver_ns + spans[s].run_ns) * 1e-9;
    };
    const double traced_per_reading = Ratio(traced_ns, readings_t);
    const double untraced_per_reading = Ratio(
        untraced_ns, static_cast<double>(leaves * untraced_rounds));

    result.metrics = {
        {"stream.chain_sample.adds", per_reading(kChainAdds), "1/reading"},
        {"stream.chain_sample.restarts", per_reading(kChainRestarts),
         "1/reading"},
        {"stream.chain_sample.expirations", per_reading(kChainExpirations),
         "1/reading"},
        {"stream.chain_sample.add_ns",
         Ratio(traced[kChainAddNsSum], traced[kChainAddNsCount]), "ns"},
        {"stream.variance_sketch.add_ns", replay.sketch_add_ns, "ns"},
        {"stream.variance_sketch.buckets", buckets, "count"},
        {"core.density_model.observe_ns",
         Ratio(traced[kObserveNsSum], traced[kObserveNsCount]), "ns"},
        {"core.density_model.rebuild_ns",
         Ratio(traced[kRebuildNsSum], traced[kRebuildNsCount]), "ns"},
        {"core.density_model.estimator_ns", replay.estimator_ns, "ns"},
        {"core.density_model.rebuilds", per_reading(kRebuilds), "1/reading"},
        {"core.density_model.cache_hit_ratio",
         Ratio(traced[kCacheHits], traced[kCacheHits] + traced[kRebuilds]),
         "ratio"},
        {"stats.kde.box_queries", per_reading(kBoxQueries), "1/reading"},
        {"stats.kde.terms_per_query",
         Ratio(traced[kTermsSum], traced[kTermsCount]), "count"},
        {"stats.kde.batch_swept_terms", per_reading(kSweptTerms),
         "1/reading"},
        {"stats.kde.query_ns", replay.query_ns, "ns"},
        {"core.mgdd.mdef_evaluations", per_reading(kMdefEvaluations),
         "1/reading"},
        {"core.mgdd.mdef_ns", replay.mdef_ns, "ns"},
        {"core.d3.decide_ns", replay.decide_ns, "ns"},
        {"core.d3.rechecks", per_reading(kD3Rechecks), "1/reading"},
        {"core.d3.flags",
         Ratio(traced[kD3LeafFlags] + traced[kD3Confirms], readings_t),
         "1/reading"},
        {"net.deliver_ns", Ratio(deliver_ns, deliver_calls), "ns"},
        {"net.run_ns", Ratio(run_ns, run_calls), "ns"},
        {"net.messages.sample_value", per_reading(kMsgSampleValue),
         "1/reading"},
        {"net.messages.outlier_report", per_reading(kMsgOutlierReport),
         "1/reading"},
        {"net.messages.global_model_update",
         per_reading(kMsgGlobalModelUpdate), "1/reading"},
        {"net.messages.raw_reading", per_reading(kMsgRawReading),
         "1/reading"},
        {"net.numbers.total", per_reading(kNumbersTotal), "1/reading"},
        {"baseline.centralized.run_s", sim_s(kCentralized), "s"},
        {"core.d3.run_s", sim_s(kD3), "s"},
        {"core.mgdd.run_s", sim_s(kMgdd), "s"},
        {"obs.trace_overhead", Ratio(traced_per_reading, untraced_per_reading),
         "ratio"},
        {"obs.observe_ns_vs_replay",
         Ratio(Ratio(traced[kObserveNsSum], traced[kObserveNsCount]),
               replay.observe_ns),
         "ratio"},
        {"obs.chain_add_ns_vs_replay",
         Ratio(Ratio(traced[kChainAddNsSum], traced[kChainAddNsCount]),
               replay.chain_add_ns),
         "ratio"},
        {"budget.traced_s", traced_ns * 1e-9, "s"},
        {"budget.chain_sample_share", Ratio(chain_t, traced_ns), "ratio"},
        {"budget.variance_sketch_share", Ratio(sketch_t, traced_ns), "ratio"},
        {"budget.rebuild_share", Ratio(rebuild_t, traced_ns), "ratio"},
        {"budget.d3_decide_share", Ratio(decide_t, traced_ns), "ratio"},
        {"budget.mdef_share", Ratio(mdef_t, traced_ns), "ratio"},
        {"budget.centralized_share", Ratio(central_t, traced_ns), "ratio"},
        {"budget.unattributed_share", Ratio(unattributed_t, traced_ns),
         "ratio"},
        {"bench.rounds", static_cast<double>(rounds), "count"},
    };
    std::printf("rounds: %zu measured, %zu traced; replayed %zu leaves "
                "(%llu readings)\n",
                rounds, traced_rounds, replay.leaves,
                static_cast<unsigned long long>(replay.readings));
  }

  // A failed check taints every reading of the run; a containment breach
  // alone taints only the readings it concerns.
  bool other_failed = false;
  for (const Check& c : result.checks) {
    if (!c.ok && c.name != "containment") other_failed = true;
  }
  result.failed = other_failed ? result.attempted
                               : std::min<uint64_t>(violations,
                                                    result.attempted);
  return result;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const std::optional<WorkloadSpec> spec = FindWorkload(args.workload,
                                                        args.tiny);
  if (!spec.has_value()) Usage(("unknown workload " + args.workload).c_str());

  const RunResult result = Run(*spec, args);

  std::printf("record: {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"scale\": %s, \"host\": {\"cpu\": %s, \"nproc\": %d, "
              "\"compiler\": %s, \"build_type\": %s, \"threads\": %d}}\n",
              JsonString(spec->name).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.tiny ? "\"tiny\"" : "\"full\"", JsonString(CpuModel()).c_str(),
              UsableCpus(), JsonString(Compiler()).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(), result.threads);
  for (const Check& c : result.checks) {
    std::printf("check %-34s %s  %s\n", c.name.c_str(),
                c.ok ? "ok    " : "FAILED", c.detail.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
