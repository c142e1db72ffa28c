/**
 * @file
 * Lightweight statistics package (counters and distributions).
 *
 * Components declare stats as members and register them with a StatGroup;
 * System::statGroups() lists every group. Stats leave the simulator as
 * that tree: exp::statGroupsToJson() serializes it, exp::sumStat() reads
 * one scalar back out, and StatGroup::dump() renders it as text.
 *
 * Hot-path layout (DESIGN.md §3a.2): a Scalar is just its 8-byte
 * counter, kept inside the component that bumps it. Its name and
 * description live once in the owning StatGroup's registry, which
 * the exporters and dump() read; nothing on the counting path touches
 * a string.
 */

#ifndef PERSIM_SIM_STATS_HH
#define PERSIM_SIM_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace persim
{

class StatGroup;

/** A monotonically increasing 64-bit event counter. */
class Scalar
{
  public:
    /** A counter registered with no group (tests, or registered later
     * through StatGroup::add). */
    Scalar() = default;

    /**
     * @param parent Group the stat registers with (may be nullptr for
     *               free-standing counters in tests).
     * @param name Stat name within the group, e.g. "loads".
     * @param desc One-line description for dumps.
     */
    Scalar(StatGroup *parent, std::string name, std::string desc);

    Scalar(const Scalar &) = delete;
    Scalar &operator=(const Scalar &) = delete;

    void inc(std::uint64_t n = 1) { _value += n; }
    Scalar &operator+=(std::uint64_t n)
    {
        _value += n;
        return *this;
    }
    Scalar &operator++()
    {
        ++_value;
        return *this;
    }

    std::uint64_t value() const { return _value; }

    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

static_assert(sizeof(Scalar) == sizeof(std::uint64_t));

/**
 * Streaming distribution: count / sum / min / max / mean / stdev, plus
 * approximate percentiles from a fixed-bucket log-scale histogram.
 *
 * The histogram has 8 sub-buckets per power of two (HdrHistogram-style),
 * giving a worst-case relative quantile error of ~12.5% at any scale —
 * plenty for comparing persist-latency tails across configurations.
 * Negative samples are clamped into bucket 0, whose representative
 * value for percentile() is the observed minimum whenever that minimum
 * is negative (so percentile(0) never exceeds min()).
 *
 * Tick-valued call sites use the std::uint64_t overload of sample():
 * bucket selection is pure integer bit-twiddling (std::bit_width) with
 * no double comparisons, while the moment accumulators stay double so
 * results are bit-identical to the double path for any value below
 * 2^53 (every simulated tick in practice).
 */
class Distribution
{
  public:
    Distribution(StatGroup *parent, std::string name, std::string desc);

    /** Record one sample. */
    void sample(double v);

    /** Record one integer sample (hot path: tick/count values). */
    void
    sample(std::uint64_t v)
    {
        const double d = static_cast<double>(v);
        _min = (_count == 0 || d < _min) ? d : _min;
        _max = (_count == 0 || d > _max) ? d : _max;
        ++_count;
        _sum += d;
        _sumSq += d * d;
        ++_hist[bucketFor(v)];
    }

    /**
     * Any other integral type routes to the integer fast path
     * (negatives through the double path, which clamps them into
     * bucket 0), so call sites need no casts.
     */
    template <typename I,
              std::enable_if_t<std::is_integral_v<I>, int> = 0>
    void
    sample(I v)
    {
        if constexpr (std::is_signed_v<I>) {
            if (v < 0) {
                sample(static_cast<double>(v));
                return;
            }
        }
        sample(static_cast<std::uint64_t>(v));
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    /** Population standard deviation. */
    double stdev() const;

    /**
     * Approximate inverse CDF: smallest histogram-bucket value v such
     * that at least @p p percent of the samples are <= v. @p p is
     * clamped to [0, 100]; returns 0 on an empty distribution. Bucket
     * 0 spans (-inf, 0], so when the observed minimum is negative its
     * representative is min() itself.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    void reset();

  private:
    /** Sub-bucket resolution: 2^3 buckets per octave. */
    static constexpr unsigned kSubBucketBits = 3;
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    /** Exponents 0..63 plus the exact small-value range. */
    static constexpr unsigned kNumBuckets = (64 + 1) << kSubBucketBits;

    static unsigned bucketFor(double v);

    /** Integer bucket mapping; identical buckets to the double path. */
    static unsigned
    bucketFor(std::uint64_t u)
    {
        // Small values get exact buckets: u in [0, 2*kSubBuckets).
        if (u < 2 * kSubBuckets)
            return static_cast<unsigned>(u);
        const unsigned exp = static_cast<unsigned>(std::bit_width(u)) - 1;
        const unsigned sub = static_cast<unsigned>(
            (u >> (exp - kSubBucketBits)) & (kSubBuckets - 1));
        return ((exp - kSubBucketBits + 1) << kSubBucketBits) + sub;
    }

    /** Representative (upper-bound) sample value of bucket @p b. */
    static double bucketValue(unsigned b);

    std::string _name;
    std::string _desc;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    std::array<std::uint64_t, kNumBuckets> _hist{};
};

/**
 * A named collection of stats belonging to one component.
 *
 * The group does not own the stats; they are members of the component and
 * must outlive the group's use. It does own the registry of its Scalars'
 * names and descriptions, in registration order.
 */
class StatGroup
{
  public:
    /** One registered Scalar with its name and description. */
    struct ScalarEntry
    {
        Scalar *stat;
        std::string name;
        std::string desc;
    };

    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }

    void
    add(Scalar *s, std::string name, std::string desc)
    {
        _scalars.push_back({s, std::move(name), std::move(desc)});
    }
    void add(Distribution *d) { _dists.push_back(d); }

    const std::vector<ScalarEntry> &scalars() const { return _scalars; }
    const std::vector<Distribution *> &distributions() const
    {
        return _dists;
    }

    /** Append "<group>.<stat> value # desc" lines to @p os. */
    void dump(std::ostream &os) const;

    /** Reset every stat in the group. */
    void resetAll();

  private:
    std::string _name;
    std::vector<ScalarEntry> _scalars;
    std::vector<Distribution *> _dists;
};

} // namespace persim

#endif // PERSIM_SIM_STATS_HH
