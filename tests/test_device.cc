/**
 * @file
 * Unit tests for the device module: the Fan et al. power curve, the
 * gamma throughput model (calibrated against the paper's measurements),
 * supply load splitting and failure, node-manager actuation dynamics,
 * sensors, and workload profiles; the cached server power is checked
 * bit for bit against closed-form reference copies.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "device/node_manager.hh"
#include "device/sensor.hh"
#include "device/server.hh"
#include "device/workload.hh"
#include "util/logging.hh"
#include "util/numeric.hh"
#include "util/random.hh"

namespace cd = capmaestro::dev;

namespace {

/** The paper's testbed server: idle 160 W, Pcap_min 270 W, Pcap_max 490 W. */
cd::ServerSpec
testbedSpec()
{
    cd::ServerSpec spec;
    spec.name = "testbed";
    spec.idle = 160.0;
    spec.capMin = 270.0;
    spec.capMax = 490.0;
    spec.gamma = 2.7;
    spec.supplies = {{0.5, 0.94}, {0.5, 0.94}};
    return spec;
}

/** Find the utilization whose demand equals @p target (bisection). */
double
utilizationForDemand(const cd::ServerModel &server, double target)
{
    double lo = 0.0, hi = 1.0;
    for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (lo + hi);
        (server.demandAcAt(mid) < target ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace

TEST(ServerModel, PowerCurveEndpoints)
{
    cd::ServerModel server(testbedSpec());
    EXPECT_DOUBLE_EQ(server.demandAcAt(0.0), 160.0);
    EXPECT_DOUBLE_EQ(server.demandAcAt(1.0), 490.0);
}

TEST(ServerModel, PowerCurveMonotone)
{
    cd::ServerModel server(testbedSpec());
    double prev = server.demandAcAt(0.0);
    for (double u = 0.01; u <= 1.0; u += 0.01) {
        const double p = server.demandAcAt(u);
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(ServerModel, UncappedRunsAtDemand)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(0.7);
    EXPECT_DOUBLE_EQ(server.actualAc(), server.demandAc());
    EXPECT_DOUBLE_EQ(server.performance(), 1.0);
    EXPECT_DOUBLE_EQ(server.throttleLevel(), 0.0);
}

TEST(ServerModel, PaperThroughputCalibration)
{
    // Paper §6.2: a 420 W-demand server capped at 314 W (No Priority)
    // measured 18 % lower throughput; capped at 344 W (Local Priority),
    // 13 % lower. Our gamma = 2.7 model must reproduce both.
    cd::ServerModel server(testbedSpec());
    server.setUtilization(utilizationForDemand(server, 420.0));
    ASSERT_NEAR(server.demandAc(), 420.0, 0.01);

    server.setEnforcedCapAc(314.0);
    EXPECT_NEAR(server.normalizedThroughput(), 0.82, 0.01);

    server.setEnforcedCapAc(344.0);
    EXPECT_NEAR(server.normalizedThroughput(), 0.88, 0.015);

    server.setEnforcedCapAc(419.0);
    EXPECT_NEAR(server.normalizedThroughput(), 1.0, 0.005);
}

TEST(ServerModel, CapAboveDemandDoesNothing)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(0.5);
    const double demand = server.demandAc();
    server.setEnforcedCapAc(demand + 100.0);
    EXPECT_DOUBLE_EQ(server.actualAc(), demand);
    EXPECT_DOUBLE_EQ(server.performance(), 1.0);
}

TEST(ServerModel, CapBelowFloorClampsToFloor)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(1.0);
    server.setEnforcedCapAc(100.0); // below Pcap_min = 270
    EXPECT_NEAR(server.actualAc(), 270.0, 1e-9);
}

TEST(ServerModel, FloorScalesWithUtilization)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(1.0);
    EXPECT_NEAR(server.floorAc(), 270.0, 1e-9);
    server.setUtilization(0.3);
    EXPECT_LT(server.floorAc(), 270.0);
    EXPECT_GT(server.floorAc(), 160.0);
}

TEST(ServerModel, IdleWorkloadCappingIsFree)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(0.0);
    server.setEnforcedCapAc(200.0);
    EXPECT_DOUBLE_EQ(server.performance(), 1.0);
}

TEST(ServerModel, SupplySplitEven)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(1.0);
    EXPECT_DOUBLE_EQ(server.supplyAc(0), 245.0);
    EXPECT_DOUBLE_EQ(server.supplyAc(1), 245.0);
}

TEST(ServerModel, SupplySplitMismatch)
{
    // §3.1: up to 65/35 split observed in practice.
    cd::ServerSpec spec = testbedSpec();
    spec.supplies = {{0.35, 0.94}, {0.65, 0.94}};
    cd::ServerModel server(spec);
    server.setUtilization(1.0);
    EXPECT_NEAR(server.supplyAc(0), 0.35 * 490.0, 1e-9);
    EXPECT_NEAR(server.supplyAc(1), 0.65 * 490.0, 1e-9);
}

TEST(ServerModel, SupplyFailureShiftsLoad)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(1.0);
    server.setSupplyState(0, cd::SupplyState::Failed);
    EXPECT_EQ(server.workingSupplies(), 1u);
    EXPECT_DOUBLE_EQ(server.supplyAc(0), 0.0);
    EXPECT_DOUBLE_EQ(server.supplyAc(1), 490.0);
    EXPECT_DOUBLE_EQ(server.effectiveShare(1), 1.0);
}

TEST(ServerModel, DarkWhenAllSuppliesFail)
{
    cd::ServerModel server(testbedSpec());
    server.setUtilization(1.0);
    server.setSupplyState(0, cd::SupplyState::Failed);
    server.setSupplyState(1, cd::SupplyState::Failed);
    EXPECT_DOUBLE_EQ(server.actualAc(), 0.0);
    EXPECT_DOUBLE_EQ(server.performance(), 0.0);
    EXPECT_DOUBLE_EQ(server.supplyAc(0) + server.supplyAc(1), 0.0);
    // Power restored: back to normal.
    server.setSupplyState(0, cd::SupplyState::Ok);
    EXPECT_DOUBLE_EQ(server.actualAc(), 490.0);
}

TEST(ServerModel, HotSpareStandby)
{
    cd::ServerSpec spec = testbedSpec();
    spec.hotSpareEnabled = true;
    spec.standbyThreshold = 250.0;
    cd::ServerModel server(spec);

    server.setUtilization(0.05); // light load, below threshold
    EXPECT_EQ(server.workingSupplies(), 1u);
    const double total =
        server.supplyAc(0) + server.supplyAc(1);
    EXPECT_NEAR(total, server.actualAc(), 1e-9);

    server.setUtilization(1.0); // heavy load wakes the spare
    EXPECT_EQ(server.workingSupplies(), 2u);
}

TEST(ServerModel, BlendedEfficiency)
{
    cd::ServerSpec spec = testbedSpec();
    spec.supplies = {{0.5, 0.90}, {0.5, 0.98}};
    cd::ServerModel server(spec);
    EXPECT_NEAR(server.blendedEfficiency(), 0.94, 1e-9);
    server.setSupplyState(0, cd::SupplyState::Failed);
    EXPECT_NEAR(server.blendedEfficiency(), 0.98, 1e-9);
}

TEST(SupplySpec, EfficiencyCurveInterpolation)
{
    cd::SupplySpec s;
    s.ratedPower = 800.0;
    s.efficiencyAt20 = 0.88;
    s.efficiencyAt50 = 0.94;
    s.efficiencyAt100 = 0.90;
    // Below/at 20 % of rating: the 20 % point.
    EXPECT_DOUBLE_EQ(s.efficiencyAtLoad(0.0), 0.88);
    EXPECT_DOUBLE_EQ(s.efficiencyAtLoad(160.0), 0.88);
    // Midpoints interpolate linearly.
    EXPECT_NEAR(s.efficiencyAtLoad(280.0), 0.91, 1e-12);  // 35 % load
    EXPECT_DOUBLE_EQ(s.efficiencyAtLoad(400.0), 0.94);    // 50 %
    EXPECT_NEAR(s.efficiencyAtLoad(600.0), 0.92, 1e-12);  // 75 %
    EXPECT_DOUBLE_EQ(s.efficiencyAtLoad(800.0), 0.90);    // 100 %
    EXPECT_DOUBLE_EQ(s.efficiencyAtLoad(1000.0), 0.90);   // overload
}

TEST(SupplySpec, FlatWhenNoRating)
{
    cd::SupplySpec s;
    s.efficiency = 0.93;
    EXPECT_DOUBLE_EQ(s.efficiencyAtLoad(100.0), 0.93);
    EXPECT_DOUBLE_EQ(s.efficiencyAtLoad(700.0), 0.93);
}

TEST(ServerModel, CurvedEfficiencyVariesWithLoad)
{
    cd::ServerSpec spec = testbedSpec();
    for (auto &s : spec.supplies) {
        s.ratedPower = 400.0;
        s.efficiencyAt20 = 0.88;
        s.efficiencyAt50 = 0.94;
        s.efficiencyAt100 = 0.91;
    }
    cd::ServerModel server(spec);
    server.setUtilization(0.1); // light: supplies near 20 % of rating
    const double light = server.blendedEfficiency();
    server.setUtilization(0.5); // mid-load: near the 0.94 peak
    const double mid = server.blendedEfficiency();
    EXPECT_GT(mid, light);
}

TEST(ServerModelDeath, BadSpecRejected)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    cd::ServerSpec spec = testbedSpec();
    spec.capMin = 500.0; // above capMax
    EXPECT_EXIT(cd::ServerModel{spec}, testing::ExitedWithCode(1),
                "idle < capMin < capMax");

    spec = testbedSpec();
    spec.supplies = {{0.5, 0.94}, {0.3, 0.94}}; // shares sum to 0.8
    EXPECT_EXIT(cd::ServerModel{spec}, testing::ExitedWithCode(1),
                "shares sum");
}

TEST(NodeManager, SettlesWithinSixSeconds)
{
    cd::ServerModel server(testbedSpec());
    cd::NodeManager nm(server);
    server.setUtilization(1.0); // demand 490, DC = 460.6

    // Cap to 300 W DC; after 6 one-second steps the applied cap must be
    // within 5 % of the target (paper: cap enforced within 6 s).
    nm.setDcCap(300.0);
    for (int s = 0; s < 6; ++s)
        nm.step(1.0);
    EXPECT_NEAR(nm.appliedDcCap(), 300.0, 15.0);
    EXPECT_NEAR(server.actualDc(), 300.0, 15.0);
}

TEST(NodeManager, ExactAfterDeadband)
{
    cd::ServerModel server(testbedSpec());
    cd::NodeManager nm(server);
    server.setUtilization(1.0);
    nm.setDcCap(300.0);
    for (int s = 0; s < 20; ++s)
        nm.step(1.0);
    EXPECT_DOUBLE_EQ(nm.appliedDcCap(), 300.0);
}

TEST(NodeManager, ClearCapRestoresFullPower)
{
    cd::ServerModel server(testbedSpec());
    cd::NodeManager nm(server);
    server.setUtilization(1.0);
    nm.setDcCap(300.0);
    for (int s = 0; s < 20; ++s)
        nm.step(1.0);
    EXPECT_LT(server.actualAc(), 489.0);
    nm.clearCap();
    nm.step(1.0);
    EXPECT_DOUBLE_EQ(server.actualAc(), 490.0);
}

TEST(NodeManager, RaisingCapRestoresPerformance)
{
    cd::ServerModel server(testbedSpec());
    cd::NodeManager nm(server);
    server.setUtilization(1.0);
    nm.setDcCap(280.0);
    for (int s = 0; s < 20; ++s)
        nm.step(1.0);
    const double throttled = server.performance();
    nm.setDcCap(450.0);
    for (int s = 0; s < 20; ++s)
        nm.step(1.0);
    EXPECT_GT(server.performance(), throttled);
}

TEST(Sensor, TrueReadingMatchesModel)
{
    cd::ServerModel server(testbedSpec());
    cd::NodeManager nm(server);
    cd::SensorEmulator sensors(server, nm, capmaestro::util::Rng(1));
    server.setUtilization(1.0);
    const auto r = sensors.readTrue();
    EXPECT_DOUBLE_EQ(r.totalAc, 490.0);
    EXPECT_DOUBLE_EQ(r.supplyAc[0], 245.0);
    EXPECT_DOUBLE_EQ(r.throttleLevel, 0.0);
}

TEST(Sensor, NoisyReadingNearTruth)
{
    cd::ServerModel server(testbedSpec());
    cd::NodeManager nm(server);
    cd::SensorConfig cfg;
    cfg.powerNoiseStddev = 2.0;
    cd::SensorEmulator sensors(server, nm, capmaestro::util::Rng(1), cfg);
    server.setUtilization(1.0);
    double sum = 0.0;
    for (int i = 0; i < 200; ++i)
        sum += sensors.read().totalAc;
    EXPECT_NEAR(sum / 200.0, 490.0, 2.0);
}

TEST(Sensor, DeterministicForSeed)
{
    cd::ServerModel server(testbedSpec());
    cd::NodeManager nm(server);
    server.setUtilization(0.6);
    cd::SensorEmulator a(server, nm, capmaestro::util::Rng(9));
    cd::SensorEmulator b(server, nm, capmaestro::util::Rng(9));
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(a.read().totalAc, b.read().totalAc);
}

TEST(Workload, Constant)
{
    cd::ConstantWorkload w(0.4);
    EXPECT_DOUBLE_EQ(w.utilizationAt(0), 0.4);
    EXPECT_DOUBLE_EQ(w.utilizationAt(1000), 0.4);
}

TEST(Workload, Steps)
{
    cd::StepWorkload w({{0, 0.2}, {30, 0.8}, {110, 0.5}});
    EXPECT_DOUBLE_EQ(w.utilizationAt(0), 0.2);
    EXPECT_DOUBLE_EQ(w.utilizationAt(29), 0.2);
    EXPECT_DOUBLE_EQ(w.utilizationAt(30), 0.8);
    EXPECT_DOUBLE_EQ(w.utilizationAt(109), 0.8);
    EXPECT_DOUBLE_EQ(w.utilizationAt(500), 0.5);
}

TEST(Workload, SineBounded)
{
    cd::SineWorkload w(0.5, 0.9, 100); // amplitude overshoots: must clamp
    for (capmaestro::Seconds t = 0; t < 200; ++t) {
        const double u = w.utilizationAt(t);
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(Workload, RandomWalkStableWithinSecond)
{
    cd::RandomWalkWorkload w(0.5, 0.05, capmaestro::util::Rng(4));
    const double u10a = w.utilizationAt(10);
    const double u10b = w.utilizationAt(10);
    EXPECT_DOUBLE_EQ(u10a, u10b);
    for (capmaestro::Seconds t = 0; t < 500; t += 7) {
        const double u = w.utilizationAt(t);
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(Workload, TraceInterpolatesAndLoops)
{
    cd::TraceWorkload w({0.2, 0.8, 0.4}, /*sample_period=*/10);
    EXPECT_DOUBLE_EQ(w.utilizationAt(0), 0.2);
    EXPECT_DOUBLE_EQ(w.utilizationAt(10), 0.8);
    EXPECT_NEAR(w.utilizationAt(5), 0.5, 1e-12);  // midway 0.2 -> 0.8
    EXPECT_NEAR(w.utilizationAt(15), 0.6, 1e-12); // midway 0.8 -> 0.4
    // Wraps back toward the first sample, then repeats.
    EXPECT_NEAR(w.utilizationAt(25), 0.3, 1e-12); // midway 0.4 -> 0.2
    EXPECT_DOUBLE_EQ(w.utilizationAt(30), 0.2);
    EXPECT_DOUBLE_EQ(w.utilizationAt(40), 0.8);
}

TEST(Workload, TraceClampsSamples)
{
    cd::TraceWorkload w({-0.5, 1.5}, 10);
    EXPECT_DOUBLE_EQ(w.utilizationAt(0), 0.0);
    EXPECT_DOUBLE_EQ(w.utilizationAt(10), 1.0);
}

TEST(Workload, TraceFileParsing)
{
    const std::string path = testing::TempDir() + "/trace_test.txt";
    {
        std::ofstream out(path);
        out << "# a comment\n0.25\n  0.75\n\n0.5\n";
    }
    const auto samples = cd::TraceWorkload::loadTraceFile(path);
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples[0], 0.25);
    EXPECT_DOUBLE_EQ(samples[1], 0.75);
    EXPECT_DOUBLE_EQ(samples[2], 0.5);
}

TEST(Workload, NoisyWrapsInner)
{
    auto inner = std::make_unique<cd::ConstantWorkload>(0.5);
    cd::NoisyWorkload w(std::move(inner), 0.05,
                        capmaestro::util::Rng(5));
    double sum = 0.0;
    for (capmaestro::Seconds t = 0; t < 400; ++t)
        sum += w.utilizationAt(t);
    EXPECT_NEAR(sum / 400.0, 0.5, 0.02);
}

namespace {

/**
 * Reference model: ServerModel's power arithmetic as closed forms
 * recomputed on every read (the model caches it). Mutators mirror the
 * model's, including the hot-spare standby transitions, so the two can
 * be driven in lockstep and compared bit for bit.
 */
class ReferenceServer
{
  public:
    explicit ReferenceServer(cd::ServerSpec spec)
        : spec_(std::move(spec)),
          states_(spec_.supplies.size(), cd::SupplyState::Ok)
    {
    }

    void setUtilization(double u)
    {
        utilization_ = capmaestro::util::clamp(u, 0.0, 1.0);
        updateStandby();
    }
    void setEnforcedCapAc(double cap)
    {
        cap_ = cap;
        updateStandby();
    }
    void setSupplyState(std::size_t s, cd::SupplyState state)
    {
        states_[s] = state;
        if (state == cd::SupplyState::Failed && workingSupplies() == 0) {
            for (auto &st : states_) {
                if (st == cd::SupplyState::Standby)
                    st = cd::SupplyState::Ok;
            }
        }
    }

    cd::SupplyState supplyState(std::size_t s) const { return states_[s]; }

    double demandAc() const
    {
        return cd::fanPower(spec_.idle, spec_.capMax, utilization_);
    }
    double minPerformance() const
    {
        const double ratio =
            (spec_.capMin - spec_.idle) / (spec_.capMax - spec_.idle);
        return std::pow(ratio, 1.0 / spec_.gamma);
    }
    double floorAc() const
    {
        const double demand = demandAc();
        return spec_.idle + (demand - spec_.idle)
                                * std::pow(minPerformance(), spec_.gamma);
    }
    std::size_t workingSupplies() const
    {
        std::size_t ok = 0;
        for (auto st : states_)
            ok += (st == cd::SupplyState::Ok) ? 1 : 0;
        return ok;
    }
    double actualAc() const
    {
        if (workingSupplies() == 0)
            return 0.0;
        const double demand = demandAc();
        if (cap_ == cd::ServerModel::kNoCap || cap_ >= demand)
            return demand;
        return capmaestro::util::clamp(cap_, floorAc(), demand);
    }
    double effectiveShare(std::size_t s) const
    {
        if (states_[s] != cd::SupplyState::Ok)
            return 0.0;
        double ok_sum = 0.0;
        for (std::size_t i = 0; i < states_.size(); ++i) {
            if (states_[i] == cd::SupplyState::Ok)
                ok_sum += spec_.supplies[i].loadShare;
        }
        if (ok_sum <= 0.0)
            return 0.0;
        return spec_.supplies[s].loadShare / ok_sum;
    }
    double supplyAc(std::size_t s) const
    {
        return actualAc() * effectiveShare(s);
    }
    double blendedEfficiency() const
    {
        double eff = 0.0, total = 0.0;
        for (std::size_t i = 0; i < states_.size(); ++i) {
            const double share = effectiveShare(i);
            if (share <= 0.0)
                continue;
            eff += share * spec_.supplies[i].efficiencyAtLoad(supplyAc(i));
            total += share;
        }
        if (total <= 0.0)
            return spec_.supplies.front().efficiency;
        return eff / total;
    }
    double actualDc() const { return actualAc() * blendedEfficiency(); }
    double performance() const
    {
        if (workingSupplies() == 0)
            return 0.0;
        const double demand = demandAc();
        const double actual = actualAc();
        if (actual >= demand - 1e-9)
            return 1.0;
        const double span = demand - spec_.idle;
        if (span <= 1e-9)
            return 1.0;
        const double ratio = capmaestro::util::clamp(
            (actual - spec_.idle) / span, 0.0, 1.0);
        return std::pow(ratio, 1.0 / spec_.gamma);
    }

  private:
    cd::ServerSpec spec_;
    double utilization_ = 0.0;
    double cap_ = cd::ServerModel::kNoCap;
    std::vector<cd::SupplyState> states_;

    void updateStandby()
    {
        if (!spec_.hotSpareEnabled || states_.size() < 2)
            return;
        const double load = actualAc();
        if (load < spec_.standbyThreshold) {
            if (workingSupplies() >= 2) {
                std::size_t victim = states_.size();
                double min_share = 2.0;
                for (std::size_t i = 0; i < states_.size(); ++i) {
                    if (states_[i] == cd::SupplyState::Ok
                        && spec_.supplies[i].loadShare < min_share) {
                        min_share = spec_.supplies[i].loadShare;
                        victim = i;
                    }
                }
                if (victim < states_.size())
                    states_[victim] = cd::SupplyState::Standby;
            }
        } else {
            for (auto &st : states_) {
                if (st == cd::SupplyState::Standby)
                    st = cd::SupplyState::Ok;
            }
        }
    }
};

/** Every getter of @p model equals the reference, bit for bit. */
void
expectSameAsReference(const cd::ServerModel &model,
                      const ReferenceServer &ref)
{
    ASSERT_EQ(model.workingSupplies(), ref.workingSupplies());
    for (std::size_t s = 0; s < model.supplyCount(); ++s) {
        ASSERT_EQ(model.supplyState(s), ref.supplyState(s)) << "supply " << s;
        ASSERT_EQ(model.effectiveShare(s), ref.effectiveShare(s))
            << "supply " << s;
        ASSERT_EQ(model.supplyAc(s), ref.supplyAc(s)) << "supply " << s;
    }
    ASSERT_EQ(model.demandAc(), ref.demandAc());
    ASSERT_EQ(model.floorAc(), ref.floorAc());
    ASSERT_EQ(model.actualAc(), ref.actualAc());
    ASSERT_EQ(model.actualDc(), ref.actualDc());
    ASSERT_EQ(model.blendedEfficiency(), ref.blendedEfficiency());
    ASSERT_EQ(model.minPerformance(), ref.minPerformance());
    ASSERT_EQ(model.performance(), ref.performance());
    ASSERT_EQ(model.throttleLevel(), 1.0 - ref.performance());
    ASSERT_EQ(model.normalizedThroughput(), ref.performance());
}

/** Specs covering flat and curved efficiency, 1-3 supplies, hot spare. */
std::vector<cd::ServerSpec>
cacheSpecs()
{
    std::vector<cd::ServerSpec> specs;
    specs.push_back(testbedSpec());

    cd::ServerSpec mismatch = testbedSpec();
    mismatch.name = "mismatch";
    mismatch.supplies = {{0.65, 0.93}, {0.35, 0.95}};
    specs.push_back(mismatch);

    cd::ServerSpec curved = testbedSpec();
    curved.name = "curved";
    curved.gamma = 1.9;
    curved.supplies = {{0.47, 0.94}, {0.53, 0.94}};
    for (auto &s : curved.supplies)
        s.ratedPower = 400.0;
    specs.push_back(curved);

    cd::ServerSpec single = testbedSpec();
    single.name = "single";
    single.supplies = {{1.0, 0.92}};
    specs.push_back(single);

    cd::ServerSpec spare = testbedSpec();
    spare.name = "spare";
    spare.supplies = {{0.4, 0.94}, {0.3, 0.94}, {0.3, 0.91}};
    spare.hotSpareEnabled = true;
    spare.standbyThreshold = 330.0;
    specs.push_back(spare);

    cd::ServerSpec spare_curved = curved;
    spare_curved.name = "spareCurved";
    spare_curved.hotSpareEnabled = true;
    spare_curved.standbyThreshold = 300.0;
    specs.push_back(spare_curved);

    // A zero threshold wakes standby supplies at any load, even on a
    // dark server (load 0), which brings it back to life.
    cd::ServerSpec spare_zero = testbedSpec();
    spare_zero.name = "spareZero";
    spare_zero.hotSpareEnabled = true;
    spare_zero.standbyThreshold = 0.0;
    specs.push_back(spare_zero);
    return specs;
}

} // namespace

TEST(ServerModel, CachedPowerMatchesClosedFormsBitForBit)
{
    // Seeded random setter sequences: utilization (including values
    // clamped at both ends), caps (kNoCap, below the floor, between
    // floor and demand, above demand), supply fail/restore/standby, and
    // priority changes. Every getter must equal the reference after
    // every call. Dark-server warnings are expected here; mute them.
    const auto level = capmaestro::util::logLevel();
    capmaestro::util::setLogLevel(capmaestro::util::LogLevel::Silent);
    struct RestoreLevel
    {
        capmaestro::util::LogLevel level;
        ~RestoreLevel() { capmaestro::util::setLogLevel(level); }
    } restore{level};
    for (const auto &spec : cacheSpecs()) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(spec.name + " seed " + std::to_string(seed));
            cd::ServerModel model(spec);
            ReferenceServer ref(spec);
            ASSERT_NO_FATAL_FAILURE(expectSameAsReference(model, ref));
            capmaestro::util::Rng rng(seed);
            for (int step = 0; step < 400; ++step) {
                SCOPED_TRACE("step " + std::to_string(step));
                const double pick = rng.uniform(0.0, 1.0);
                if (pick < 0.35) {
                    const double u = rng.uniform(-0.1, 1.1);
                    model.setUtilization(u);
                    ref.setUtilization(u);
                } else if (pick < 0.75) {
                    const double r = rng.uniform(0.0, 1.0);
                    double cap = cd::ServerModel::kNoCap;
                    if (r < 0.2)
                        cap = rng.uniform(0.0, model.floorAc());
                    else if (r < 0.5)
                        cap = model.floorAc();
                    else if (r < 0.85)
                        cap = rng.uniform(model.floorAc(),
                                          spec.capMax * 1.1);
                    model.setEnforcedCapAc(cap);
                    ref.setEnforcedCapAc(cap);
                } else if (pick < 0.95) {
                    const auto s = static_cast<std::size_t>(rng.uniformInt(
                        0, static_cast<std::int64_t>(spec.supplies.size())
                               - 1));
                    const double r = rng.uniform(0.0, 1.0);
                    // Failures are rarer than restores so the server is
                    // only sometimes dark.
                    const cd::SupplyState state =
                        r < 0.3   ? cd::SupplyState::Failed
                        : r < 0.4 ? cd::SupplyState::Standby
                                  : cd::SupplyState::Ok;
                    model.setSupplyState(s, state);
                    ref.setSupplyState(s, state);
                } else {
                    model.setPriority(static_cast<capmaestro::Priority>(
                        step % 3));
                }
                ASSERT_NO_FATAL_FAILURE(expectSameAsReference(model, ref));
            }
        }
    }
}

TEST(ServerModel, CachedPowerFollowsDarkServerAndStandby)
{
    // Scripted walk through the cases a random sequence may miss: all
    // supplies failed (dark), restore, and hot-spare entry and exit
    // driven by both utilization and cap changes.
    cd::ServerSpec spec = testbedSpec();
    spec.hotSpareEnabled = true;
    spec.standbyThreshold = 300.0;
    cd::ServerModel model(spec);
    ReferenceServer ref(spec);
    auto both = [&](auto &&fn) {
        fn(model);
        fn(ref);
        expectSameAsReference(model, ref);
    };
    both([](auto &m) { m.setUtilization(0.05); }); // light: park one
    EXPECT_EQ(model.workingSupplies(), 1u);
    both([](auto &m) { m.setUtilization(0.9); }); // heavy: wake it
    EXPECT_EQ(model.workingSupplies(), 2u);
    both([&](auto &m) { m.setEnforcedCapAc(spec.idle); }); // cap: park
    EXPECT_EQ(model.workingSupplies(), 1u);
    both([](auto &m) { m.setEnforcedCapAc(cd::ServerModel::kNoCap); });
    EXPECT_EQ(model.workingSupplies(), 2u);
    both([](auto &m) { m.setSupplyState(0, cd::SupplyState::Failed); });
    both([](auto &m) { m.setSupplyState(1, cd::SupplyState::Failed); });
    EXPECT_EQ(model.actualAc(), 0.0);
    EXPECT_EQ(model.performance(), 0.0);
    both([](auto &m) { m.setUtilization(0.5); }); // dark stays dark
    EXPECT_EQ(model.actualAc(), 0.0);
    both([](auto &m) { m.setSupplyState(1, cd::SupplyState::Ok); });
    EXPECT_GT(model.actualAc(), 0.0);
    both([](auto &m) { m.setSupplyState(0, cd::SupplyState::Standby); });
    both([](auto &m) { m.setUtilization(0.95); }); // wakes the standby
    EXPECT_EQ(model.workingSupplies(), 2u);

    // A standby wake that ends a dark spell must refresh the power.
    // (Failing the last Ok supply wakes a parked one at once, so the
    // dark spell comes from parking the last Ok supply.)
    spec.standbyThreshold = 0.0;
    cd::ServerModel waking(spec);
    ReferenceServer waking_ref(spec);
    waking.setSupplyState(1, cd::SupplyState::Failed);
    waking.setSupplyState(0, cd::SupplyState::Standby);
    waking_ref.setSupplyState(1, cd::SupplyState::Failed);
    waking_ref.setSupplyState(0, cd::SupplyState::Standby);
    expectSameAsReference(waking, waking_ref);
    EXPECT_EQ(waking.actualAc(), 0.0);
    waking.setUtilization(0.6);
    waking_ref.setUtilization(0.6);
    expectSameAsReference(waking, waking_ref);
    EXPECT_EQ(waking.workingSupplies(), 1u);
    EXPECT_EQ(waking.actualAc(), waking.demandAc());
}
