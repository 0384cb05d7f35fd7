/**
 * @file
 * Summary statistics and output digests for the benchmark program:
 * median, nearest-rank quantiles, the tail-percentile rule (report the
 * highest percentile that still has at least ten samples beyond it,
 * with the sample count) and an order-sensitive FNV-1a digest of
 * simulated outputs.
 */

#ifndef PERFBENCH_STATS_UTIL_HH
#define PERFBENCH_STATS_UTIL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Median of @p values (mean of the middle pair for even sizes); 0 for
 * an empty input. */
double median(std::vector<double> values);

/** A tail percentile together with the evidence behind it. */
struct TailPercentile
{
    /** Percentile reported, e.g. 99 for p99; 0 when too few samples. */
    double percentile = 0.0;
    double value = 0.0;
    /** Samples the percentile was taken over. */
    std::size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
};

/** Nearest-rank @p percentile (e.g. 99) of @p samples with its
 * evidence: the sample count and the samples beyond its rank. */
TailPercentile percentileOf(std::vector<double> samples, double percentile);

/**
 * The highest percentile of the ladder p50 < p90 < p99 < p99.9 that
 * has at least @p min_beyond samples beyond its nearest rank. With
 * fewer than 2 * @p min_beyond samples no percentile qualifies and the
 * result has percentile 0 and value 0.
 */
TailPercentile tailPercentile(std::vector<double> samples,
                              std::size_t min_beyond = 10);

/** Order-sensitive 64-bit FNV-1a digest of exact value bit patterns. */
class Digest
{
  public:
    void addBytes(const void *data, std::size_t len);
    void add(std::uint64_t v);
    /** Folds the IEEE-754 bit pattern, so any change in any bit shows. */
    void add(double v);
    void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }

    std::uint64_t value() const { return state; }
    /** 16 lowercase hex digits. */
    std::string hex() const;

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_UTIL_HH
