/**
 * @file
 * Unit tests for stats, RNG, logging, inline callbacks and scalar
 * helpers.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <sstream>

#include "exp/stats_export.hh"
#include "sim/inline_callback.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim
{

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(lineNum(0), 0u);
    EXPECT_EQ(lineNum(64), 1u);
    EXPECT_EQ(lineNum(127), 1u);
    EXPECT_EQ(kLineBytes, 64u);
}

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("boom ", 42), SimPanic);
    EXPECT_THROW(fatal("bad config: ", "x"), SimFatal);
    try {
        panic("value=", 7, " addr=0x", std::hex, 255);
    } catch (const SimPanic &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("ff"), std::string::npos);
    }
}

TEST(Logging, SimAssertPassesAndFails)
{
    EXPECT_NO_THROW(simAssert(true, "fine"));
    EXPECT_THROW(simAssert(false, "broken"), SimPanic);
}

TEST(Stats, ScalarBasics)
{
    StatGroup g("grp");
    Scalar s(&g, "count", "a counter");
    EXPECT_EQ(s.value(), 0u);
    s.inc();
    s.inc(9);
    ++s;
    s += 5;
    EXPECT_EQ(s.value(), 16u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, DistributionMoments)
{
    Distribution d(nullptr, "lat", "latency");
    EXPECT_EQ(d.mean(), 0.0);
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 30.0);
    EXPECT_NEAR(d.stdev(), 8.1649, 1e-3);
}

TEST(Stats, IntegerAndDoubleSamplePathsAgree)
{
    // Tick-valued call sites use the integer overload; any value below
    // 2^53 must land in the same bucket with the same moments as the
    // double path it replaced.
    Distribution di(nullptr, "i", "int path");
    Distribution dd(nullptr, "d", "double path");
    const std::uint64_t vals[] = {0,   1,    7,     8,        15,
                                  16,  100,  1023,  1024,     4097,
                                  1u << 20,  12345, 987654321};
    for (std::uint64_t v : vals) {
        di.sample(v);
        dd.sample(static_cast<double>(v));
    }
    EXPECT_EQ(di.count(), dd.count());
    EXPECT_DOUBLE_EQ(di.sum(), dd.sum());
    EXPECT_DOUBLE_EQ(di.mean(), dd.mean());
    EXPECT_DOUBLE_EQ(di.stdev(), dd.stdev());
    for (double p : {0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(di.percentile(p), dd.percentile(p)) << p;
}

TEST(Stats, PercentileNeverExceedsObservedMin)
{
    // Negative samples clamp into bucket 0; its representative must be
    // the observed minimum, not bucket 0's nominal upper bound (0), or
    // percentile(0) would exceed min().
    Distribution d(nullptr, "neg", "negatives");
    d.sample(-5.0);
    d.sample(10.0);
    EXPECT_DOUBLE_EQ(d.min(), -5.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), -5.0);
    EXPECT_LE(d.percentile(0.0), d.min());
    EXPECT_GE(d.percentile(100.0), 10.0);
}

TEST(Stats, GroupDumpAndMap)
{
    StatGroup g("cache");
    Scalar hits(&g, "hits", "hits");
    Distribution lat(&g, "latency", "lat");
    hits.inc(3);
    lat.sample(5.0);

    const exp::JsonValue tree = exp::statGroupsToJson({&g});
    EXPECT_DOUBLE_EQ(exp::sumStat(tree, {"cache", "hits"}), 3.0);
    const exp::JsonValue *latency =
        tree.get("cache")->get("distributions")->get("latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_DOUBLE_EQ(latency->get("mean")->asNumber(), 5.0);
    EXPECT_DOUBLE_EQ(latency->get("count")->asNumber(), 1.0);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("cache.hits"), std::string::npos);
    EXPECT_NE(os.str().find("# hits"), std::string::npos);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = r.below(13);
        EXPECT_LT(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 13u); // every residue hit
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
    }
}

// ---------------------------------------------------------------------
// InlineCallback storage paths
// ---------------------------------------------------------------------

TEST(InlineCallback, CopyOnlyClosureKeepsValuesAcrossMoves)
{
    std::uint64_t out = 0;
    const std::uint64_t a = 0x1111, b = 0x2222, c = 0x3333;
    auto fn = [&out, a, b, c] { out = a + 2 * b + 3 * c; };
    static_assert(InlineCallback::copyOnly<decltype(fn)>);
    InlineCallback first(fn);
    InlineCallback second(std::move(first));
    InlineCallback third;
    third = std::move(second);
    InlineCallback fourth(std::move(third));
    EXPECT_FALSE(first);
    EXPECT_FALSE(second);
    EXPECT_FALSE(third);
    ASSERT_TRUE(fourth);
    fourth();
    EXPECT_EQ(out, a + 2 * b + 3 * c);
}

namespace
{

/** Move a shared_ptr-capturing closure with @p Pad extra bytes through
 * several InlineCallbacks; its token must be released exactly once.
 * @p Inline names the storage path the closure must take. */
template <std::size_t Pad, bool Inline>
void
checkSharedCaptureDestroyedOnce()
{
    int deletions = 0;
    std::shared_ptr<int> token(new int(7),
                               [&deletions](int *p) {
                                   ++deletions;
                                   delete p;
                               });
    std::weak_ptr<int> watch = token;
    int sum = 0;
    {
        std::array<unsigned char, Pad> pad{};
        pad.back() = 1;
        auto fn = [token = std::move(token), pad, &sum] {
            sum += *token + pad.back();
        };
        static_assert(InlineCallback::fitsInline<decltype(fn)> == Inline);
        static_assert(!InlineCallback::copyOnly<decltype(fn)>);
        InlineCallback first(std::move(fn));
        EXPECT_EQ(watch.use_count(), 1);
        InlineCallback second(std::move(first));
        InlineCallback third;
        third = std::move(second);
        EXPECT_EQ(watch.use_count(), 1);
        third();
        EXPECT_FALSE(watch.expired());
        EXPECT_EQ(deletions, 0);
    }
    EXPECT_EQ(sum, 8);
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(deletions, 1);
}

} // namespace

TEST(InlineCallback, SharedCaptureDestroyedOnceInline)
{
    checkSharedCaptureDestroyedOnce<8, true>();
}

TEST(InlineCallback, SharedCaptureDestroyedOnceInArena)
{
    checkSharedCaptureDestroyedOnce<InlineCallback::kInlineBytes, false>();
}

} // namespace persim
