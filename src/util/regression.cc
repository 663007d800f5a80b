#include "util/regression.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace capmaestro::util {

SlidingRegression::SlidingRegression(std::size_t capacity)
    : capacity_(capacity)
{
    if (capacity_ < 2)
        fatal("SlidingRegression window must hold at least 2 samples");
}

void
SlidingRegression::add(double x, double y)
{
    if (samples_.size() < capacity_) {
        if (samples_.empty())
            samples_.reserve(capacity_);
        samples_.emplace_back(x, y);
        return;
    }
    samples_[oldest_] = {x, y};
    oldest_ = (oldest_ + 1) % capacity_;
}

void
SlidingRegression::clear()
{
    samples_.clear();
    oldest_ = 0;
}

std::optional<LinearFit>
SlidingRegression::fit() const
{
    const std::size_t n = samples_.size();
    if (n < 2)
        return std::nullopt;

    double sx = 0.0, sy = 0.0;
    each([&](double x, double y) {
        sx += x;
        sy += y;
    });
    const double mx = sx / static_cast<double>(n);
    const double my = sy / static_cast<double>(n);

    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    each([&](double x, double y) {
        const double dx = x - mx;
        const double dy = y - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    });

    LinearFit result;
    result.n = n;
    if (sxx < 1e-12) {
        // Degenerate: no spread in x. Return the mean as a constant fit.
        result.slope = 0.0;
        result.intercept = my;
        result.r2 = 0.0;
        return result;
    }

    result.slope = sxy / sxx;
    result.intercept = my - result.slope * mx;
    result.r2 = (syy < 1e-12) ? 1.0 : (sxy * sxy) / (sxx * syy);
    return result;
}

double
SlidingRegression::meanX() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    each([&sum](double x, double) { sum += x; });
    return sum / static_cast<double>(samples_.size());
}

double
SlidingRegression::meanY() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    each([&sum](double, double y) { sum += y; });
    return sum / static_cast<double>(samples_.size());
}

double
SlidingRegression::stddevX() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double mx = meanX();
    double sxx = 0.0;
    each([&](double x, double) { sxx += (x - mx) * (x - mx); });
    return std::sqrt(sxx / static_cast<double>(samples_.size()));
}

double
SlidingRegression::maxY() const
{
    if (samples_.empty())
        return 0.0;
    double best = samples_[oldest_].second;
    each([&best](double, double y) { best = std::max(best, y); });
    return best;
}

} // namespace capmaestro::util
