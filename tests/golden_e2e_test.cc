// Golden end-to-end regression: one fixed seeded D3 + MGDD scenario with
// loss, faults, and the reliable transport, run over 1-d and 2-d readings,
// whose complete detection history and traffic counters are committed at
// tests/golden/e2e_outliers.txt.
// Any change to detector logic, transport behaviour, fault scheduling, RNG
// consumption, or event ordering shows up as a diff here — intentional
// changes regenerate via scripts/regen_golden.sh (or SENSORD_REGEN_GOLDEN=1).
//
// The golden file records integer identities and counters only (node ids,
// levels, sequence numbers, message tallies) — no floating-point text — so
// it is stable across build types and optimization levels.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/d3.h"
#include "core/mgdd.h"
#include "net/fault_schedule.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {
namespace {

constexpr char kGoldenRelPath[] = "/tests/golden/e2e_outliers.txt";

class RecordingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    events.push_back(event);
  }
  std::vector<OutlierEvent> events;
};

void AppendEvents(const char* tag, const std::vector<OutlierEvent>& events,
                  std::string* out) {
  for (const OutlierEvent& e : events) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "%s node=%u level=%d leaf=%u seq=%llu deg=%d\n", tag,
                  e.node, e.level, e.source_leaf,
                  static_cast<unsigned long long>(e.source_seq),
                  e.degraded ? 1 : 0);
    *out += line;
  }
}

void AppendCounters(const char* tag, const Simulator& sim, std::string* out) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s messages=%llu dropped=%llu retries=%llu timeouts=%llu "
                "dup_suppressed=%llu abandoned=%llu acks=%llu\n",
                tag,
                static_cast<unsigned long long>(sim.stats().TotalMessages()),
                static_cast<unsigned long long>(sim.MessagesDropped()),
                static_cast<unsigned long long>(sim.transport().retries()),
                static_cast<unsigned long long>(sim.transport().timeouts()),
                static_cast<unsigned long long>(
                    sim.transport().dup_suppressed()),
                static_cast<unsigned long long>(sim.transport().abandoned()),
                static_cast<unsigned long long>(sim.transport().acks_sent()));
  *out += line;
}

// The scenario: 8 leaves / fanout 2 (three levels), 400 rounds of a tight
// Gaussian band with injected extremes, 10% uniform loss + a flaky default
// link fault, one leaf crash, one subtree partition, reliable transport.
// It runs once over 1-d readings and once over 2-d readings; the 2-d pass
// covers the d > 1 KDE and MDEF paths (product kernels, cell grid), which
// the 1-d pass never reaches. Each coordinate is one draw, so a 1-d point
// consumes exactly the draws of a scalar reading.
void AppendScenario(size_t dims, const std::string& tag_suffix,
                    std::string* out) {
  const int kRounds = 400;
  const int kLeaves = 8;

  // Per-detector workloads, matching the regimes the soak suite validates:
  // D3 gets a tight Gaussian band with wide far extremes (distance
  // outliers); MGDD gets two uniform bands with rare gap readings (MDEF
  // local-density outliers).
  Rng d3_rng(20260806);
  std::vector<std::vector<Point>> d3_readings(
      kRounds, std::vector<Point>(kLeaves, Point(dims)));
  for (int round = 0; round < kRounds; ++round) {
    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      for (double& x : d3_readings[round][leaf]) {
        x = Clamp(d3_rng.Gaussian(0.4, 0.01), 0.0, 1.0);
      }
    }
    if (round % 7 == 0) {
      for (double& x : d3_readings[round][(round / 7) % kLeaves]) {
        x = d3_rng.UniformDouble(0.6, 1.0);
      }
    }
  }
  Rng mgdd_rng(20060915);
  std::vector<std::vector<Point>> mgdd_readings(
      kRounds, std::vector<Point>(kLeaves, Point(dims)));
  for (int round = 0; round < kRounds; ++round) {
    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      const bool low_band = mgdd_rng.Bernoulli(0.5);
      for (double& x : mgdd_readings[round][leaf]) {
        x = low_band ? mgdd_rng.UniformDouble(0.30, 0.42)
                     : mgdd_rng.UniformDouble(0.50, 0.62);
      }
    }
    if (round % 7 == 0) {
      for (double& x : mgdd_readings[round][(round / 7) % kLeaves]) {
        x = mgdd_rng.UniformDouble(0.44, 0.48);
      }
    }
  }

  for (const bool run_d3 : {true, false}) {
    SimulatorOptions sim_opts;
    sim_opts.drop_probability = 0.1;
    sim_opts.loss_seed = 0xD0;
    sim_opts.fault_seed = 0xFA;
    sim_opts.transport.reliable = true;
    sim_opts.transport.ack_timeout = 0.05;
    sim_opts.transport.max_retries = 4;
    Simulator sim(sim_opts);
    LinkFault flaky;
    flaky.drop_probability = 0.05;
    flaky.duplicate_probability = 0.02;
    sim.faults().SetDefaultLinkFault(flaky);
    sim.faults().CrashNode(2, 120.0, 160.0);
    sim.faults().Partition({4, 5}, 220.0, 260.0);

    RecordingObserver observer;
    Rng node_rng(99);
    auto layout = BuildGridHierarchy(kLeaves, 2);
    std::vector<NodeId> ids;
    if (run_d3) {
      D3Options leaf_opts;
      leaf_opts.model.dimensions = dims;
      leaf_opts.model.window_size = 500;
      leaf_opts.model.sample_size = 100;
      leaf_opts.outlier.radius = 0.02;
      leaf_opts.outlier.neighbor_threshold = 10.0;
      leaf_opts.min_observations = 200;
      leaf_opts.staleness_threshold = 30.0;
      ids = sim.Instantiate(
          *layout,
          [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
            if (spec.level == 1) {
              return std::make_unique<D3LeafNode>(leaf_opts, node_rng.Split(),
                                                  &observer);
            }
            D3Options opts = leaf_opts;
            opts.model =
                LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
            opts.min_observations = 50;
            return std::make_unique<D3ParentNode>(opts, node_rng.Split(),
                                                  &observer);
          });
    } else {
      MgddOptions leaf_opts;
      leaf_opts.model.dimensions = dims;
      leaf_opts.model.window_size = 400;
      leaf_opts.model.sample_size = 64;
      leaf_opts.min_observations = 200;
      leaf_opts.staleness_threshold = 30.0;
      // Scott's-rule bandwidths partially smear the bimodal gap; same
      // regime as MgddTest.DetectsDeviationAgainstGlobalModel.
      leaf_opts.mdef.k_sigma = 0.5;
      ids = sim.Instantiate(
          *layout,
          [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
            if (spec.level == 1) {
              return std::make_unique<MgddLeafNode>(
                  leaf_opts, node_rng.Split(), &observer);
            }
            MgddOptions opts = leaf_opts;
            opts.model =
                LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
            return std::make_unique<MgddInternalNode>(opts, node_rng.Split());
          });
    }

    double t = 0.0;
    for (const auto& round : run_d3 ? d3_readings : mgdd_readings) {
      for (int leaf = 0; leaf < kLeaves; ++leaf) {
        sim.DeliverReading(ids[static_cast<size_t>(leaf)],
                           round[static_cast<size_t>(leaf)]);
      }
      t += 1.0;
      sim.RunUntil(t);
    }
    sim.RunAll();

    const std::string tag = (run_d3 ? "d3" : "mgdd") + tag_suffix;
    AppendEvents(tag.c_str(), observer.events, out);
    AppendCounters((tag + ".counters").c_str(), sim, out);
  }
}

std::string RunScenario() {
  std::string out = "# sensord golden e2e history; regenerate with "
                    "scripts/regen_golden.sh\n";
  AppendScenario(1, "", &out);
  AppendScenario(2, "_2d", &out);
  return out;
}

TEST(GoldenE2eTest, DetectionHistoryMatchesGolden) {
  const std::string golden_path =
      std::string(SENSORD_SOURCE_DIR) + kGoldenRelPath;
  const std::string actual = RunScenario();

  if (std::getenv("SENSORD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path
      << " — run scripts/regen_golden.sh and commit the result";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();

  // Compare line by line for a readable first-divergence message.
  std::istringstream exp_stream(expected), act_stream(actual);
  std::string exp_line, act_line;
  size_t line_no = 0;
  while (std::getline(exp_stream, exp_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(act_stream, act_line))
        << "output ends early at golden line " << line_no << ": " << exp_line;
    ASSERT_EQ(act_line, exp_line) << "first divergence at line " << line_no;
  }
  EXPECT_FALSE(std::getline(act_stream, act_line))
      << "output has extra lines beyond the golden file: " << act_line;
}

// The scenario itself must be reproducible within one build before a
// committed golden can be meaningful across builds.
TEST(GoldenE2eTest, ScenarioIsDeterministicInProcess) {
  EXPECT_EQ(RunScenario(), RunScenario());
}

}  // namespace
}  // namespace sensord
