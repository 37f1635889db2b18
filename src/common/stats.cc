#include "common/stats.h"

#include <algorithm>

#include "common/logging.h"

namespace ask {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

void
Samples::add(double x)
{
    data_.push_back(x);
    sorted_valid_ = false;
}

double
Samples::mean() const
{
    if (data_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : data_)
        s += x;
    return s / static_cast<double>(data_.size());
}

void
Samples::ensure_sorted() const
{
    if (!sorted_valid_) {
        sorted_ = data_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

double
Samples::quantile(double q) const
{
    if (data_.empty())
        return 0.0;
    ensure_sorted();
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank with linear interpolation between adjacent order stats.
    double pos = q * static_cast<double>(sorted_.size() - 1);
    std::size_t i = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(i);
    if (i + 1 >= sorted_.size())
        return sorted_.back();
    return sorted_[i] * (1.0 - frac) + sorted_[i + 1] * frac;
}

double
Samples::cdf_at(double x) const
{
    if (data_.empty())
        return 0.0;
    ensure_sorted();
    auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    ASK_ASSERT(hi > lo && buckets > 0, "malformed histogram bounds");
}

void
Histogram::add(double x)
{
    double t = (x - lo_) / (hi_ - lo_);
    auto n = static_cast<double>(counts_.size());
    auto i = static_cast<long>(t * n);
    i = std::clamp<long>(i, 0, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(i)];
    ++total_;
}

double
Histogram::bucket_lo(std::size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(counts_.size());
}

}  // namespace ask
