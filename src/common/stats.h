/**
 * @file
 * Lightweight statistics accumulators used by tests and benchmarks.
 */
#ifndef ASK_COMMON_STATS_H
#define ASK_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ask {

/** Streaming mean/variance/min/max accumulator (Welford's algorithm). */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Sample reservoir with exact quantiles.
 *
 * Stores every sample; adequate for the volumes our benches produce
 * (millions of doubles). quantile() sorts lazily.
 */
class Samples
{
  public:
    void add(double x);
    std::size_t count() const { return data_.size(); }
    double mean() const;
    /** q in [0,1]; 0.5 = median. Returns 0 when empty. */
    double quantile(double q) const;
    /** Empirical CDF value: fraction of samples <= x. */
    double cdf_at(double x) const;
    const std::vector<double>& raw() const { return data_; }

  private:
    void ensure_sorted() const;

    std::vector<double> data_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = false;
};

/** Fixed-width histogram over [lo, hi); out-of-range values clamp to the
 *  end buckets. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double x);
    std::size_t bucket_count() const { return counts_.size(); }
    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    /** Inclusive lower edge of bucket i. */
    double bucket_lo(std::size_t i) const;
    std::uint64_t total() const { return total_; }

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

}  // namespace ask

#endif  // ASK_COMMON_STATS_H
