// Tests for the WiFi positioning substrate: propagation model properties,
// fingerprint surveying, k-NN estimation quality, bit-for-bit equivalence
// of the interned k-NN index with a brute-force oracle, and the pipeline
// components.

#include "perpos/core/components.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/wifi/components.hpp"
#include "perpos/wifi/features.hpp"
#include "perpos/wifi/fingerprint.hpp"
#include "perpos/wifi/signal_model.hpp"

#include "knn_reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace wifi = perpos::wifi;
namespace core = perpos::core;
namespace lm = perpos::locmodel;
namespace sim = perpos::sim;
using wifi::LocalPoint;

namespace {

wifi::SignalModel free_space_model() {
  return wifi::SignalModel({{"AP1", {0.0, 0.0}, -30.0}},
                           wifi::SignalModelConfig{});
}

/// Bitwise comparison of point and accuracy (memcmp, so -0.0 vs 0.0 or a
/// NaN cannot pass for equal).
::testing::AssertionResult bit_identical(
    const std::optional<lm::LocalPosition>& got,
    const std::optional<lm::LocalPosition>& want) {
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "estimate " << (got ? "present" : "absent") << ", oracle "
           << (want ? "present" : "absent");
  }
  if (!got) return ::testing::AssertionSuccess();
  if (std::memcmp(&got->point, &want->point, sizeof(LocalPoint)) != 0 ||
      std::memcmp(&got->accuracy_m, &want->accuracy_m, sizeof(double)) !=
          0 ||
      !(got->timestamp == want->timestamp)) {
    return ::testing::AssertionFailure()
           << std::setprecision(17) << "estimate (" << got->point.x << ", "
           << got->point.y << ") acc " << got->accuracy_m << ", oracle ("
           << want->point.x << ", " << want->point.y << ") acc "
           << want->accuracy_m;
  }
  return ::testing::AssertionSuccess();
}

/// Checks estimate() against the oracle on every scan; returns how many
/// scans produced an estimate.
std::size_t expect_matches_oracle(const wifi::FingerprintDatabase& db,
                                  const std::vector<wifi::RssiScan>& scans,
                                  const wifi::KnnConfig& config = {}) {
  std::size_t estimated = 0;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    const auto got = db.estimate(scans[i], config);
    const auto want = wifi::oracle::estimate(db, scans[i], config);
    EXPECT_TRUE(bit_identical(got, want))
        << "scan " << i << " (k=" << config.k << ")";
    if (got) ++estimated;
  }
  return estimated;
}

/// `n` noisy scans at seeded random points inside the building.
std::vector<wifi::RssiScan> random_scans(const wifi::SignalModel& model,
                                         const lm::Building& building,
                                         std::size_t n, std::uint64_t seed) {
  sim::Random random(seed);
  const auto& box = building.footprint();
  std::vector<wifi::RssiScan> scans;
  while (scans.size() < n) {
    const LocalPoint p{random.uniform(box.min_x, box.max_x),
                       random.uniform(box.min_y, box.max_y)};
    if (!building.inside_footprint(p)) continue;
    scans.push_back(model.scan_at(
        p, random,
        sim::SimTime::from_seconds(static_cast<double>(scans.size()))));
  }
  return scans;
}

/// A reading list over `aps` in shuffled order, each AP kept with
/// probability `keep`, with random non-integer RSSI values.
std::vector<wifi::RssiReading> random_readings(
    const std::vector<std::string>& aps, double keep, sim::Random& random) {
  std::vector<wifi::RssiReading> readings;
  for (const std::string& ap : aps) {
    if (random.chance(keep)) {
      readings.push_back({ap, random.uniform(-92.0, -30.0)});
    }
  }
  std::shuffle(readings.begin(), readings.end(), random.engine());
  return readings;
}

std::vector<std::string> ap_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("ap-" + std::to_string(i));
  }
  return names;
}

}  // namespace

TEST(SignalModel, RssiDecreasesWithDistance) {
  const wifi::SignalModel model = free_space_model();
  const wifi::AccessPoint& ap = model.access_points()[0];
  double prev = model.mean_rssi(ap, {1.0, 0.0});
  for (double d : {2.0, 5.0, 10.0, 30.0, 100.0}) {
    const double rssi = model.mean_rssi(ap, {d, 0.0});
    EXPECT_LT(rssi, prev);
    prev = rssi;
  }
}

TEST(SignalModel, ReferenceDistanceGivesTxPower) {
  const wifi::SignalModel model = free_space_model();
  EXPECT_DOUBLE_EQ(model.mean_rssi(model.access_points()[0], {1.0, 0.0}),
                   -30.0);
  // Distances below 1 m clamp to the reference distance.
  EXPECT_DOUBLE_EQ(model.mean_rssi(model.access_points()[0], {0.1, 0.0}),
                   -30.0);
}

TEST(SignalModel, PathLossExponentControlsSlope) {
  wifi::SignalModelConfig steep;
  steep.path_loss_exponent = 4.0;
  wifi::SignalModelConfig shallow;
  shallow.path_loss_exponent = 2.0;
  const wifi::AccessPoint ap{"AP", {0.0, 0.0}, -30.0};
  const wifi::SignalModel m_steep({ap}, steep);
  const wifi::SignalModel m_shallow({ap}, shallow);
  EXPECT_LT(m_steep.mean_rssi(ap, {10.0, 0.0}),
            m_shallow.mean_rssi(ap, {10.0, 0.0}));
  // At 10 m: -30 - 10*n*log10(10) = -30 - 10n.
  EXPECT_DOUBLE_EQ(m_steep.mean_rssi(ap, {10.0, 0.0}), -70.0);
  EXPECT_DOUBLE_EQ(m_shallow.mean_rssi(ap, {10.0, 0.0}), -50.0);
}

TEST(SignalModel, WallsAttenuate) {
  const lm::Building building = lm::make_two_room_building();
  const wifi::AccessPoint ap{"AP", {2.5, 2.5}, -30.0};
  const wifi::SignalModel model({ap}, {}, &building);
  // Same distance, one through the shared wall at y=1 (solid below y=2).
  const double same_room = model.mean_rssi(ap, {2.5, 0.6});
  const double through_wall = model.mean_rssi(ap, {6.3, 1.0});
  const double same_dist_no_wall = model.mean_rssi(ap, {2.5, 4.4});
  EXPECT_LT(through_wall, same_room);
  EXPECT_LT(through_wall, same_dist_no_wall);
}

TEST(SignalModel, SensitivityCutoffLimitsScan) {
  wifi::SignalModelConfig config;
  config.sensitivity_dbm = -60.0;  // Very deaf receiver.
  const wifi::AccessPoint ap{"AP", {0.0, 0.0}, -30.0};
  const wifi::SignalModel model({ap}, config);
  sim::Random random(1);
  const wifi::RssiScan near = model.ideal_scan_at({2.0, 0.0}, {});
  const wifi::RssiScan far = model.ideal_scan_at({500.0, 0.0}, {});
  EXPECT_EQ(near.readings.size(), 1u);
  EXPECT_TRUE(far.readings.empty());
}

TEST(SignalModel, NoisyScansVary) {
  const wifi::SignalModel model = free_space_model();
  sim::Random random(5);
  const auto s1 = model.scan_at({5.0, 5.0}, random, {});
  const auto s2 = model.scan_at({5.0, 5.0}, random, {});
  ASSERT_FALSE(s1.readings.empty());
  ASSERT_FALSE(s2.readings.empty());
  EXPECT_NE(s1.readings[0].rssi_dbm, s2.readings[0].rssi_dbm);
}

TEST(Scan, FindByApId) {
  wifi::RssiScan scan;
  scan.readings = {{"A", -40.0}, {"B", -55.0}};
  ASSERT_NE(scan.find("B"), nullptr);
  EXPECT_DOUBLE_EQ(scan.find("B")->rssi_dbm, -55.0);
  EXPECT_EQ(scan.find("C"), nullptr);
}

class FingerprintFixture : public ::testing::Test {
 protected:
  FingerprintFixture()
      : building(lm::make_office_building()),
        model(wifi::office_access_points(), wifi::SignalModelConfig{},
              &building),
        db(wifi::FingerprintDatabase::survey(model, building, 2.0)) {}

  lm::Building building;
  wifi::SignalModel model;
  wifi::FingerprintDatabase db;
};

TEST_F(FingerprintFixture, SurveyCoversBuilding) {
  EXPECT_GT(db.size(), 100u);  // 40x20 m at 2 m grid.
}

TEST_F(FingerprintFixture, IdealScanResolvesNearTruth) {
  for (const LocalPoint truth :
       {LocalPoint{12.0, 4.0}, LocalPoint{20.0, 10.0}, LocalPoint{36.0, 15.0}}) {
    const auto estimate = db.estimate(model.ideal_scan_at(truth, {}));
    ASSERT_TRUE(estimate.has_value());
    const double err = std::hypot(estimate->point.x - truth.x,
                                  estimate->point.y - truth.y);
    EXPECT_LT(err, 2.5) << "at " << truth.x << "," << truth.y;
  }
}

TEST_F(FingerprintFixture, NoisyScanErrorIsBounded) {
  sim::Random random(17);
  double total_err = 0.0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const LocalPoint truth{4.0 + i * 0.5, 10.0};
    const auto estimate =
        db.estimate(model.scan_at(truth, random, {}));
    ASSERT_TRUE(estimate.has_value());
    total_err += std::hypot(estimate->point.x - truth.x,
                            estimate->point.y - truth.y);
  }
  EXPECT_LT(total_err / n, 6.0);  // Typical indoor WiFi accuracy.
}

TEST_F(FingerprintFixture, EmptyScanYieldsNoEstimate) {
  EXPECT_FALSE(db.estimate(wifi::RssiScan{}).has_value());
}

TEST_F(FingerprintFixture, AccuracyEstimatePositive) {
  const auto estimate = db.estimate(model.ideal_scan_at({10.0, 10.0}, {}));
  ASSERT_TRUE(estimate.has_value());
  EXPECT_GT(estimate->accuracy_m, 0.0);
}

TEST(Fingerprint, SignalDistanceHandlesMissingAps) {
  wifi::RssiScan scan;
  scan.readings = {{"A", -40.0}};
  const std::vector<wifi::RssiReading> ref = {{"A", -40.0}, {"B", -50.0}};
  // Identical on A; B missing from the scan is treated as very weak.
  const double d = wifi::FingerprintDatabase::signal_distance(scan, ref, -95.0);
  EXPECT_GT(d, 0.0);
  const double exact = wifi::FingerprintDatabase::signal_distance(
      wifi::RssiScan{{{"A", -40.0}, {"B", -50.0}}, {}}, ref, -95.0);
  EXPECT_DOUBLE_EQ(exact, 0.0);
}

TEST(Fingerprint, SurveyWithNoiseAveragesOut) {
  const lm::Building building = lm::make_two_room_building();
  const wifi::SignalModel model(
      {{"AP1", {2.0, 2.0}, -30.0}, {"AP2", {8.0, 2.0}, -30.0}},
      wifi::SignalModelConfig{}, &building);
  sim::Random random(3);
  const auto noisy_db = wifi::FingerprintDatabase::survey(
      model, building, 1.0, /*surveys_per_point=*/8, &random);
  const auto ideal_db =
      wifi::FingerprintDatabase::survey(model, building, 1.0);
  ASSERT_EQ(noisy_db.size(), ideal_db.size());
  // The averaged noisy readings should be close to the ideal ones.
  double max_gap = 0.0;
  for (std::size_t i = 0; i < noisy_db.size(); ++i) {
    for (const auto& r : noisy_db.fingerprints()[i].readings) {
      const auto* ideal = ideal_db.fingerprints()[i].readings.data();
      for (std::size_t j = 0; j < ideal_db.fingerprints()[i].readings.size();
           ++j) {
        if (ideal[j].ap_id == r.ap_id) {
          max_gap = std::max(max_gap, std::fabs(ideal[j].rssi_dbm - r.rssi_dbm));
        }
      }
    }
  }
  EXPECT_LT(max_gap, 6.0);
}

TEST_F(FingerprintFixture, PositionerComponentEmitsLocalPosition) {
  core::ProcessingGraph g;
  auto source = std::make_shared<core::SourceComponent>(
      "WiFi", std::vector<core::DataSpec>{core::provide<wifi::RssiScan>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  auto positioner = std::make_shared<wifi::WifiPositioner>(db);
  const auto a = g.add(source);
  const auto p = g.add(positioner);
  const auto z = g.add(sink);
  g.connect(a, p);
  g.connect(p, z);

  source->push(model.ideal_scan_at({12.0, 10.0}, {}));
  ASSERT_TRUE(sink->last().has_value());
  const auto& local = sink->last()->payload.as<lm::LocalPosition>();
  EXPECT_NEAR(local.point.x, 12.0, 3.0);
  EXPECT_NEAR(local.point.y, 10.0, 3.0);

  // An empty scan produces nothing but counts as a failure (seam).
  source->push(wifi::RssiScan{});
  EXPECT_EQ(positioner->failed(), 1u);
  EXPECT_EQ(sink->received(), 1u);
}

TEST_F(FingerprintFixture, LocalToGeoRoundTrips) {
  core::ProcessingGraph g;
  auto source = std::make_shared<core::SourceComponent>(
      "Pos",
      std::vector<core::DataSpec>{core::provide<lm::LocalPosition>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto c = g.add(std::make_shared<wifi::LocalToGeoConverter>(building));
  const auto z = g.add(sink);
  g.connect(a, c);
  g.connect(c, z);

  source->push(lm::LocalPosition{{10.0, 5.0}, 0, 3.0,
                                 sim::SimTime::from_seconds(9.0)});
  ASSERT_TRUE(sink->last().has_value());
  const auto& fix = sink->last()->payload.as<core::PositionFix>();
  EXPECT_EQ(fix.technology, "WiFi");
  EXPECT_DOUBLE_EQ(fix.timestamp.seconds(), 9.0);
  const LocalPoint back = building.frame().to_local(fix.position);
  EXPECT_NEAR(back.x, 10.0, 1e-6);
  EXPECT_NEAR(back.y, 5.0, 1e-6);
}

TEST_F(FingerprintFixture, ApOutageDegradesGracefully) {
  // Disable a corridor AP after the survey: accuracy degrades but the
  // estimator keeps working — the coverage seam of Sec. 4.
  wifi::SignalModel live = model;  // Copy shares AP layout + walls.
  ASSERT_TRUE(live.set_enabled("AP-C12", false));
  EXPECT_FALSE(live.is_enabled("AP-C12"));
  EXPECT_FALSE(live.set_enabled("AP-NOPE", false));

  const LocalPoint truth{12.0, 10.0};  // Right under the dead AP.
  const auto healthy = db.estimate(model.ideal_scan_at(truth, {}));
  const auto degraded = db.estimate(live.ideal_scan_at(truth, {}));
  ASSERT_TRUE(healthy.has_value());
  ASSERT_TRUE(degraded.has_value());
  const double healthy_err = std::hypot(healthy->point.x - truth.x,
                                        healthy->point.y - truth.y);
  const double degraded_err = std::hypot(degraded->point.x - truth.x,
                                         degraded->point.y - truth.y);
  EXPECT_LT(healthy_err, 2.5);
  EXPECT_LT(degraded_err, 12.0);  // Worse but not absurd.

  // Re-enabling restores the scan.
  ASSERT_TRUE(live.set_enabled("AP-C12", true));
  EXPECT_TRUE(live.is_enabled("AP-C12"));
  EXPECT_EQ(live.ideal_scan_at(truth, {}).readings.size(),
            model.ideal_scan_at(truth, {}).readings.size());
}

TEST_F(FingerprintFixture, ScanQualityChannelFeature) {
  // The WiFi channel exposes coverage quality exactly as the GPS channel
  // exposes HDOP — same Channel Feature mechanism, different technology.
  core::ProcessingGraph g;
  core::ChannelManager channels(g);
  auto source = std::make_shared<core::SourceComponent>(
      "WiFi", std::vector<core::DataSpec>{core::provide<wifi::RssiScan>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto p = g.add(std::make_shared<wifi::WifiPositioner>(db));
  const auto z = g.add(sink);
  g.connect(a, p);
  g.connect(p, z);

  auto quality = std::make_shared<wifi::ScanQualityFeature>();
  channels.attach_feature(*channels.channel_from_source(a), quality);

  source->push(model.ideal_scan_at({12.0, 10.0}, {}));
  EXPECT_GE(quality->ap_count(), 3u);
  EXPECT_TRUE(quality->adequate_coverage());
  ASSERT_TRUE(quality->strongest_dbm().has_value());
  EXPECT_GT(*quality->strongest_dbm(), *quality->mean_dbm());

  // Time-scoped retrieval works through the channel, like Likelihood.
  core::Channel* c = channels.channel_from_source(a);
  EXPECT_NE(c->get_feature<wifi::ScanQualityFeature>(*sink->last()), nullptr);

  // A sparse scan (most APs disabled) flips the coverage verdict.
  wifi::SignalModel degraded = model;
  for (const char* ap : {"AP-C12", "AP-C24", "AP-LAB", "AP-S", "AP-N"}) {
    degraded.set_enabled(ap, false);
  }
  source->push(degraded.ideal_scan_at({2.0, 10.0}, {}));
  EXPECT_LE(quality->ap_count(), 2u);
  EXPECT_FALSE(quality->adequate_coverage());
}

// --- Interned k-NN index: bit-for-bit equivalence with the oracle ---------

TEST_F(FingerprintFixture, IndexMatchesOracleOnIdealSurvey) {
  const auto scans = random_scans(model, building, 2000, 101);
  EXPECT_GT(expect_matches_oracle(db, scans), 1900u);
}

TEST_F(FingerprintFixture, IndexMatchesOracleOnNoisySurvey) {
  sim::Random survey_random(9);
  const auto noisy = wifi::FingerprintDatabase::survey(
      model, building, 2.0, /*surveys_per_point=*/4, &survey_random);
  ASSERT_GT(noisy.size(), 100u);
  const auto scans = random_scans(model, building, 2000, 202);
  EXPECT_GT(expect_matches_oracle(noisy, scans), 1900u);
}

TEST(Fingerprint, IndexMatchesOracleWithShuffledApOrders) {
  // Each fingerprint lists the same APs in a different order, some skip
  // one; the scans use yet other orders.
  wifi::FingerprintDatabase db;
  db.add({{0.0, 0.0}, {{"A", -40.5}, {"B", -60.25}, {"C", -71.0}}});
  db.add({{5.0, 0.0}, {{"C", -52.75}, {"A", -48.0}, {"B", -66.5}}});
  db.add({{0.0, 5.0}, {{"B", -44.125}, {"C", -63.0}}});
  db.add({{5.0, 5.0}, {{"C", -41.0}, {"B", -58.5}, {"A", -77.25}}});
  std::vector<wifi::RssiScan> scans = {
      {{{"A", -45.0}, {"B", -61.0}, {"C", -66.0}}, {}},
      {{{"C", -50.0}, {"B", -55.5}, {"A", -70.0}}, {}},
      {{{"B", -47.0}, {"A", -80.0}}, {}},
      {{{"C", -43.0}}, {}},
  };
  expect_matches_oracle(db, scans);
  expect_matches_oracle(db, scans, {.k = 1});
  expect_matches_oracle(db, scans, {.k = 3, .missing_rssi_dbm = -100.0});
}

TEST(Fingerprint, IndexMatchesOracleOnUnsurveyedAp) {
  wifi::FingerprintDatabase db;
  db.add({{0.0, 0.0}, {{"A", -40.0}, {"B", -60.0}}});
  db.add({{4.0, 0.0}, {{"B", -45.0}, {"A", -65.0}}});
  db.add({{2.0, 3.0}, {{"A", -55.0}}});
  // "ROGUE" was never surveyed: it must count as a scan term against the
  // missing-AP RSSI in every fingerprint, including in first position.
  const std::vector<wifi::RssiScan> scans = {
      {{{"ROGUE", -50.0}, {"A", -42.0}, {"B", -61.0}}, {}},
      {{{"A", -42.0}, {"ROGUE", -50.0}}, {}},
      {{{"ROGUE", -38.0}}, {}},
  };
  EXPECT_EQ(expect_matches_oracle(db, scans, {.k = 2}), scans.size());
}

TEST(Fingerprint, IndexMatchesOracleOnDuplicateApIds) {
  // A fingerprint listing an AP twice: the first reading is its lookup
  // value, but both count when the scan lacks the AP. A scan listing an AP
  // twice contributes two scan terms.
  wifi::FingerprintDatabase db;
  db.add({{0.0, 0.0}, {{"A", -40.0}, {"B", -60.0}, {"A", -52.0}}});
  db.add({{6.0, 0.0}, {{"B", -41.0}, {"B", -47.5}, {"C", -70.0}}});
  db.add({{3.0, 4.0}, {{"C", -45.0}, {"A", -66.0}}});
  const std::vector<wifi::RssiScan> scans = {
      {{{"A", -44.0}, {"A", -48.0}}, {}},
      {{{"B", -43.0}, {"C", -69.0}, {"B", -50.0}}, {}},
      {{{"C", -47.0}}, {}},
      {{{"B", -40.0}, {"A", -41.0}, {"B", -40.0}}, {}},
  };
  EXPECT_EQ(expect_matches_oracle(db, scans, {.k = 2}), scans.size());
}

TEST_F(FingerprintFixture, IndexMatchesOracleWithDisabledAp) {
  wifi::SignalModel live = model;
  ASSERT_TRUE(live.set_enabled("AP-C12", false));
  const auto scans = random_scans(live, building, 500, 303);
  for (const auto& scan : scans) {
    ASSERT_EQ(scan.find("AP-C12"), nullptr);
  }
  expect_matches_oracle(db, scans);
}

TEST(Fingerprint, IndexMatchesOracleWithEmptyFingerprint) {
  wifi::FingerprintDatabase db;
  db.add({{0.0, 0.0}, {{"A", -40.0}, {"B", -60.0}}});
  db.add({{9.0, 9.0}, {}});
  db.add({{4.0, 0.0}, {{"B", -45.0}}});
  ASSERT_EQ(db.size(), 3u);
  const std::vector<wifi::RssiScan> scans = {
      {{{"A", -42.0}, {"B", -61.0}}, {}},
      {{{"Z", -90.0}}, {}},
  };
  EXPECT_EQ(expect_matches_oracle(db, scans, {.k = 3}), scans.size());
}

TEST(Fingerprint, IndexMatchesOracleWithManyAps) {
  // 100 distinct APs (more than one 64-bit presence word), fingerprints
  // and scans over random shuffled subsets; scans also hear 20 APs no
  // fingerprint lists.
  sim::Random random(404);
  const std::vector<std::string> aps = ap_names(100);
  wifi::FingerprintDatabase db;
  for (int i = 0; i < 80; ++i) {
    db.add({{random.uniform(0.0, 50.0), random.uniform(0.0, 50.0)},
            random_readings(aps, 0.15, random)});
  }
  std::set<std::string> distinct;
  for (const wifi::Fingerprint& fp : db.fingerprints()) {
    for (const wifi::RssiReading& r : fp.readings) distinct.insert(r.ap_id);
  }
  ASSERT_GT(distinct.size(), 64u);
  std::vector<std::string> heard = ap_names(120);
  std::vector<wifi::RssiScan> scans;
  for (int i = 0; i < 120; ++i) {
    scans.push_back({random_readings(heard, 0.15, random),
                     sim::SimTime::from_seconds(i)});
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
    expect_matches_oracle(db, scans, {.k = k});
  }
}

TEST_F(FingerprintFixture, IndexMatchesOracleWhenKExceedsSize) {
  const auto scans = random_scans(model, building, 50, 505);
  const wifi::KnnConfig all{.k = db.size() + 7};
  EXPECT_EQ(expect_matches_oracle(db, scans, all), scans.size());

  wifi::FingerprintDatabase tiny;
  tiny.add({{0.0, 0.0}, {{"A", -40.0}}});
  tiny.add({{2.0, 0.0}, {{"A", -60.0}}});
  EXPECT_EQ(expect_matches_oracle(tiny, {{{{"A", -50.0}}, {}}}, {.k = 10}),
            1u);
}

TEST_F(FingerprintFixture, ZeroKYieldsNoEstimate) {
  const wifi::RssiScan scan = model.ideal_scan_at({12.0, 10.0}, {});
  EXPECT_FALSE(db.estimate(scan, {.k = 0}).has_value());

  core::ProcessingGraph g;
  auto source = std::make_shared<core::SourceComponent>(
      "WiFi", std::vector<core::DataSpec>{core::provide<wifi::RssiScan>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  auto positioner =
      std::make_shared<wifi::WifiPositioner>(db, wifi::KnnConfig{.k = 0});
  const auto a = g.add(source);
  const auto p = g.add(positioner);
  const auto z = g.add(sink);
  g.connect(a, p);
  g.connect(p, z);
  source->push(scan);
  EXPECT_EQ(positioner->failed(), 1u);
  EXPECT_EQ(sink->received(), 0u);
}

TEST_F(FingerprintFixture, ConcurrentEstimatesMatchSingleThreaded) {
  // One database shared by many threads, as engine lanes share it: every
  // result must equal the single-threaded one.
  const auto scans = random_scans(model, building, 400, 606);
  std::vector<std::optional<lm::LocalPosition>> expected;
  for (const auto& scan : scans) expected.push_back(db.estimate(scan));

  constexpr std::size_t kThreads = 6;
  std::vector<std::vector<std::optional<lm::LocalPosition>>> results(
      kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the scans from a different offset.
      for (std::size_t i = 0; i < scans.size(); ++i) {
        const std::size_t j = (i + t * 67) % scans.size();
        results[t].push_back(db.estimate(scans[j]));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), scans.size());
    for (std::size_t i = 0; i < scans.size(); ++i) {
      const std::size_t j = (i + t * 67) % scans.size();
      EXPECT_TRUE(bit_identical(results[t][i], expected[j]))
          << "thread " << t << " scan " << j;
    }
  }
}
