// Campaign engine end-to-end properties on the modelled fleet: `--jobs`
// determinism (byte-identical state and findings artifacts), crash/resume
// byte-identity, fingerprint uniqueness, config-signature protection, and
// the PR-2 quarantine/retry integration under persistent harness faults.
#include "campaign/engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "abnf/parser.h"
#include "analysis/coverage.h"
#include "campaign/store.h"
#include "core/probes.h"
#include "impls/products.h"
#include "net/chain.h"
#include "net/fault.h"

namespace hdiff::campaign {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-engine-test-" + std::to_string(::getpid()) +
                        "-" + tag + "-" + std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Small but divergence-rich bootstrap: the first Table II verification
// probes keep each round fast while still tripping every detector class.
std::vector<core::TestCase> small_bootstrap() {
  auto probes = core::verification_probes();
  if (probes.size() > 12) probes.resize(12);
  return probes;
}

CampaignConfig make_config(const std::string& dir, std::size_t rounds,
                           std::size_t jobs) {
  CampaignConfig config;
  config.state_dir = dir;
  config.rounds = rounds;
  config.budget_per_round = 16;
  config.minimize.max_steps = 64;
  config.executor.jobs = jobs;
  config.bootstrap = small_bootstrap();
  return config;
}

// A miniature grammar whose rule names line up with the mutation engine's
// touched-rule names, so coverage attribution has something to bind to.
analysis::CoveragePlan coverage_fixture() {
  std::vector<std::string> errors;
  abnf::Grammar g = abnf::parse_rulelist(
      "HTTP-message = request-line *header-field\n"
      "request-line = \"GET \" HTTP-version\n"
      "HTTP-version = \"HTTP/1.1\" / \"HTTP/1.0\"\n"
      "header-field = field-name \":\" field-value\n"
      "field-name = 1*%x41-5A\n"
      "field-value = Transfer-Encoding / 1*%x61-7A\n"
      "Transfer-Encoding = \"chunked\" / \"compress\"\n",
      "fixture", &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  return analysis::build_coverage_plan(g, {"HTTP-message"});
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { fleet_ = impls::make_all_implementations(); }
  std::vector<std::unique_ptr<impls::HttpImplementation>> fleet_;
};

TEST_F(EngineTest, StateAndFindingsAreByteIdenticalAcrossJobs) {
  const std::string dir1 = fresh_dir("jobs1");
  const std::string dir8 = fresh_dir("jobs8");

  const auto r1 = CampaignEngine(make_config(dir1, 2, 1)).run(fleet_);
  const auto r8 = CampaignEngine(make_config(dir8, 2, 8)).run(fleet_);
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  ASSERT_TRUE(r8.error.empty()) << r8.error;
  EXPECT_GT(r1.total_findings, 0u);

  StateStore s1(dir1), s8(dir8);
  EXPECT_EQ(slurp(s1.state_path()), slurp(s8.state_path()));
  EXPECT_EQ(slurp(s1.findings_path()), slurp(s8.findings_path()));

  fs::remove_all(dir1);
  fs::remove_all(dir8);
}

TEST_F(EngineTest, CrashedRoundResumesByteIdentically) {
  const std::string ref_dir = fresh_dir("ref");
  const std::string crash_dir = fresh_dir("crash");

  const auto ref = CampaignEngine(make_config(ref_dir, 2, 1)).run(fleet_);
  ASSERT_TRUE(ref.error.empty()) << ref.error;

  // Kill in the worst window: round 1's findings appended, checkpoint not
  // yet renamed.
  auto crashing = make_config(crash_dir, 2, 1);
  crashing.crash_after_round = 1;
  const auto interrupted = CampaignEngine(crashing).run(fleet_);
  ASSERT_TRUE(interrupted.error.empty()) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_LT(interrupted.rounds_completed, ref.rounds_completed);

  const auto resumed =
      CampaignEngine(make_config(crash_dir, 2, 1)).run(fleet_);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.rounds_completed, ref.rounds_completed);

  StateStore a(ref_dir), b(crash_dir);
  EXPECT_EQ(slurp(a.state_path()), slurp(b.state_path()));
  EXPECT_EQ(slurp(a.findings_path()), slurp(b.findings_path()));

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

TEST_F(EngineTest, CoverageWeightedRunsAreByteIdenticalAcrossJobs) {
  const std::string dir1 = fresh_dir("cov-jobs1");
  const std::string dir8 = fresh_dir("cov-jobs8");

  auto config1 = make_config(dir1, 2, 1);
  auto config8 = make_config(dir8, 2, 8);
  config1.coverage = coverage_fixture();
  config8.coverage = coverage_fixture();

  const auto r1 = CampaignEngine(config1).run(fleet_);
  const auto r8 = CampaignEngine(config8).run(fleet_);
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  ASSERT_TRUE(r8.error.empty()) << r8.error;
  EXPECT_TRUE(r1.coverage_enabled);
  EXPECT_TRUE(r1.coverage_weighting);
  EXPECT_GT(r1.coverage_total, 0u);
  // Every bootstrap probe mutates headers, so header-field coverage is hit
  // in round 1 at the latest.
  EXPECT_GT(r1.coverage_covered, 0u);
  EXPECT_EQ(r1.coverage_covered, r8.coverage_covered);
  EXPECT_EQ(r1.gap_sites_hit, r8.gap_sites_hit);

  StateStore s1(dir1), s8(dir8);
  EXPECT_EQ(slurp(s1.state_path()), slurp(s8.state_path()));
  EXPECT_EQ(slurp(s1.findings_path()), slurp(s8.findings_path()));

  fs::remove_all(dir1);
  fs::remove_all(dir8);
}

TEST_F(EngineTest, CoverageCrashedRoundResumesByteIdentically) {
  const std::string ref_dir = fresh_dir("cov-ref");
  const std::string crash_dir = fresh_dir("cov-crash");

  auto ref_config = make_config(ref_dir, 2, 1);
  ref_config.coverage = coverage_fixture();
  const auto ref = CampaignEngine(ref_config).run(fleet_);
  ASSERT_TRUE(ref.error.empty()) << ref.error;

  auto crashing = make_config(crash_dir, 2, 1);
  crashing.coverage = coverage_fixture();
  crashing.crash_after_round = 1;
  const auto interrupted = CampaignEngine(crashing).run(fleet_);
  ASSERT_TRUE(interrupted.error.empty()) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);

  auto resume_config = make_config(crash_dir, 2, 1);
  resume_config.coverage = coverage_fixture();
  const auto resumed = CampaignEngine(resume_config).run(fleet_);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.coverage_covered, ref.coverage_covered);
  EXPECT_EQ(resumed.gap_sites_hit, ref.gap_sites_hit);

  StateStore a(ref_dir), b(crash_dir);
  EXPECT_EQ(slurp(a.state_path()), slurp(b.state_path()));
  EXPECT_EQ(slurp(a.findings_path()), slurp(b.findings_path()));

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

TEST_F(EngineTest, PreCoverageCheckpointResumesAndAdoptsThePlan) {
  // The healed upgrade path: a state dir written before coverage existed
  // (no cov* keys, same config signature) must resume under a
  // coverage-aware config, adopting the plan mid-campaign.
  const std::string dir = fresh_dir("cov-upgrade");

  const auto old = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(old.error.empty()) << old.error;
  EXPECT_FALSE(old.coverage_enabled);
  {
    StateStore s(dir);
    EXPECT_EQ(slurp(s.state_path()).find("cov"), std::string::npos);
  }

  auto upgraded = make_config(dir, 2, 1);
  upgraded.coverage = coverage_fixture();
  const auto resumed = CampaignEngine(upgraded).run(fleet_);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(resumed.coverage_enabled);
  EXPECT_GT(resumed.rounds_completed, old.rounds_completed);

  // The adopted plan is now pinned in the checkpoint.
  StateStore s(dir);
  ASSERT_TRUE(s.load()) << s.error();
  EXPECT_TRUE(s.coverage_enabled());
  EXPECT_EQ(s.coverage.sig, upgraded.coverage.sig);

  fs::remove_all(dir);
}

TEST_F(EngineTest, AdoptCoverageNeverOverwritesACheckpointPlan) {
  StateStore store(fresh_dir("cov-adopt"));
  CampaignConfig config;
  config.coverage = coverage_fixture();
  config.coverage.bootstrap_covered = {0};

  adopt_coverage(store, config);
  ASSERT_TRUE(store.coverage_enabled());
  EXPECT_EQ(store.covered, config.coverage.bootstrap_covered);

  // Live state diverges; a second adoption (e.g. on resume) must not reset
  // it — the checkpoint wins.
  store.covered.insert(3);
  store.gap_hits[0] = 2;
  adopt_coverage(store, config);
  EXPECT_EQ(store.covered.size(), 2u);
  EXPECT_EQ(store.gap_hits.at(0), 2u);

  // And a coverage-free config never erases an existing plan.
  CampaignConfig plain;
  adopt_coverage(store, plain);
  EXPECT_TRUE(store.coverage_enabled());
}

void expect_same_cursors(const ArmTable& warm, const ArmTable& cold) {
  ASSERT_EQ(warm.size(), cold.size());
  for (const auto& [key, stats] : warm) {
    const auto it = cold.find(key);
    ASSERT_NE(it, cold.end()) << key.first << " " << key.second;
    EXPECT_EQ(stats.cursor, it->second.cursor) << key.first << " "
                                               << key.second;
    // Reading an arm's weight never creates it: every stored arm has been
    // scheduled or observed.
    EXPECT_GT(stats.cursor + stats.attempts, 0u);
  }
}

// The arm index plan_round keeps in a long-lived store is derived state:
// every round it must plan exactly what a cold store loaded from the same
// checkpoint plans (the serve-worker path), and leave the same cursors.
void expect_warm_index_plans_like_cold(
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet,
    bool streams, bool weighting) {
  const std::string dir = fresh_dir("plan-index");
  CampaignConfig config = make_config(dir, 4, 1);
  config.coverage = coverage_fixture();
  config.coverage_weighting = weighting;
  config.streams = streams;
  // Enough budget that entries added mid-campaign get arms scheduled, so a
  // stale warm index would change the plan.
  config.budget_per_round = 64;
  StateStore live(dir);
  ASSERT_TRUE(open_campaign(live, config).error.empty()) << live.error();
  const net::Chain chain = net::Chain::from_fleet(fleet);
  core::ObservationMemo memo;
  net::VerdictCache verdicts;
  std::size_t seed_entries = 0;

  for (std::size_t round = 0; round <= config.rounds; ++round) {
    StateStore cold(dir);
    ASSERT_TRUE(cold.load_readonly()) << cold.error();
    adopt_coverage(cold, config);
    if (round == 1) seed_entries = live.entries.size();
    const RoundPlan want = plan_round(cold, config, round);
    const RoundPlan got = plan_round(live, config, round);

    EXPECT_EQ(got.replayed, want.replayed) << "round " << round;
    ASSERT_EQ(got.cases.size(), want.cases.size()) << "round " << round;
    for (std::size_t i = 0; i < got.cases.size(); ++i) {
      const PlannedCase& g = got.cases[i];
      const PlannedCase& w = want.cases[i];
      SCOPED_TRACE("round " + std::to_string(round) + " case " +
                   std::to_string(i));
      EXPECT_EQ(g.tc.uuid, w.tc.uuid);
      EXPECT_EQ(g.tc.raw, w.tc.raw);
      EXPECT_EQ(g.provenance, w.provenance);
      EXPECT_EQ(g.arm_entry, w.arm_entry);
      EXPECT_EQ(g.arm_kind, w.arm_kind);
      EXPECT_EQ(g.spec_text, w.spec_text);
      EXPECT_EQ(g.cov_ids, w.cov_ids);
      EXPECT_EQ(g.gap_ids, w.gap_ids);
      EXPECT_EQ(g.is_stream, w.is_stream);
    }
    expect_same_cursors(live.arms, cold.arms);
    expect_same_cursors(live.stream_arms, cold.stream_arms);

    const ExecutedRound executed =
        execute_round(config, chain, got.cases, &memo, &verdicts);
    integrate_round(live, config, round, got.cases, executed.outcomes, chain,
                    &memo, &verdicts);
    ASSERT_TRUE(live.commit_round(round)) << live.error();
  }
  // The warm index must have been extended mid-campaign, not only built.
  EXPECT_GT(live.entries.size(), seed_entries);
  EXPECT_EQ(live.stream_arms.empty(), !streams);
  fs::remove_all(dir);
}

TEST_F(EngineTest, WarmArmIndexPlansLikeAColdStore) {
  expect_warm_index_plans_like_cold(fleet_, false, true);
}

TEST_F(EngineTest, WarmArmIndexPlansLikeAColdStoreUnweighted) {
  expect_warm_index_plans_like_cold(fleet_, false, false);
}

TEST_F(EngineTest, WarmArmIndexPlansLikeAColdStoreWithStreams) {
  expect_warm_index_plans_like_cold(fleet_, true, true);
}

TEST_F(EngineTest, WarmArmIndexPlansLikeAColdStoreWithStreamsUnweighted) {
  expect_warm_index_plans_like_cold(fleet_, true, false);
}

TEST_F(EngineTest, EveryFingerprintIsReportedExactlyOnce) {
  const std::string dir = fresh_dir("unique");
  const auto report = CampaignEngine(make_config(dir, 2, 1)).run(fleet_);
  ASSERT_TRUE(report.error.empty()) << report.error;

  StateStore store(dir);
  ASSERT_TRUE(store.load()) << store.error();
  std::set<std::string> seen;
  for (const auto& f : store.findings) {
    EXPECT_TRUE(seen.insert(f.fingerprint).second)
        << "duplicate fingerprint " << f.fingerprint;
  }
  EXPECT_EQ(seen.size(), report.total_findings);

  fs::remove_all(dir);
}

TEST_F(EngineTest, ResumeRunsOnlyTheMissingRounds) {
  const std::string dir = fresh_dir("extend");
  const auto first = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(first.error.empty()) << first.error;
  EXPECT_EQ(first.rounds_completed, 2u);  // bootstrap + 1 mutation round

  // Same signature (rounds are excluded from it): extends by one round.
  const auto second = CampaignEngine(make_config(dir, 2, 1)).run(fleet_);
  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.resumed);
  ASSERT_EQ(second.rounds.size(), 1u);
  EXPECT_EQ(second.rounds[0].round, 2u);
  EXPECT_EQ(second.rounds_completed, 3u);

  const auto status = CampaignEngine::status(dir);
  EXPECT_EQ(status.rounds_completed, 3u);
  EXPECT_EQ(status.total_findings, second.total_findings);

  fs::remove_all(dir);
}

TEST_F(EngineTest, ConfigSignatureMismatchRefusesToTouchState) {
  const std::string dir = fresh_dir("sig");
  const auto first = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(first.error.empty()) << first.error;

  auto other = make_config(dir, 1, 1);
  other.budget_per_round = 99;  // budget is part of the signature
  const auto rejected = CampaignEngine(other).run(fleet_);
  EXPECT_FALSE(rejected.error.empty());

  const auto status = CampaignEngine::status(dir);
  EXPECT_EQ(status.rounds_completed, first.rounds_completed);
  EXPECT_EQ(status.total_findings, first.total_findings);

  fs::remove_all(dir);
}

TEST_F(EngineTest, PersistentFaultsQuarantineAndReplayOnResume) {
  const std::string dir = fresh_dir("fault");

  // Every model call faults, forever: round 0 must quarantine every case
  // into the retry queue instead of filing findings or aborting.
  net::FaultPlanConfig plan_config;
  plan_config.rate = 1.0;
  plan_config.max_faults_per_site = 0;  // persistent
  plan_config.kinds = {net::FaultKind::kReset};
  auto plan = std::make_shared<net::FaultPlan>(plan_config);
  auto faulty = net::wrap_fleet_with_faults(fleet_, plan);

  auto config = make_config(dir, 0, 1);
  config.executor.retry.attempts = 1;  // no retries: quarantine fast
  const auto broken = CampaignEngine(config).run(faulty);
  ASSERT_TRUE(broken.error.empty()) << broken.error;
  ASSERT_EQ(broken.rounds.size(), 1u);
  EXPECT_EQ(broken.rounds[0].quarantined, config.bootstrap.size());
  EXPECT_EQ(broken.total_findings, 0u);
  EXPECT_EQ(broken.retry_depth, config.bootstrap.size());

  // Fleet health is not part of the signature: resuming against the healthy
  // fleet replays the quarantined cases first and recovers their findings.
  auto healthy_config = make_config(dir, 1, 1);
  healthy_config.executor.retry.attempts = 1;
  const auto recovered = CampaignEngine(healthy_config).run(fleet_);
  ASSERT_TRUE(recovered.error.empty()) << recovered.error;
  EXPECT_TRUE(recovered.resumed);
  ASSERT_FALSE(recovered.rounds.empty());
  EXPECT_EQ(recovered.rounds[0].replayed, config.bootstrap.size());
  EXPECT_GT(recovered.total_findings, 0u);
  EXPECT_EQ(recovered.retry_depth, 0u);

  fs::remove_all(dir);
}

TEST_F(EngineTest, ReportJsonCarriesTheCampaignBlock) {
  const std::string dir = fresh_dir("json");
  const auto report = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(report.error.empty()) << report.error;

  const std::string json = campaign_report_json(report);
  EXPECT_NE(json.find("\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds_completed\""), std::string::npos);
  EXPECT_NE(json.find("\"dedup_ratio\""), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace hdiff::campaign
