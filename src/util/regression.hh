/**
 * @file
 * Ordinary least-squares linear regression over a sliding window.
 *
 * Used by the capping controller's power-demand estimator (paper §5): the
 * controller regresses observed server power against the observed power-cap
 * throttling level over the last 16 one-second samples, and extrapolates to
 * 0 % throttling to recover the uncapped demand.
 */

#ifndef CAPMAESTRO_UTIL_REGRESSION_HH
#define CAPMAESTRO_UTIL_REGRESSION_HH

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace capmaestro::util {

/** Result of a univariate linear fit y = intercept + slope * x. */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination in [0, 1]. */
    double r2 = 0.0;
    /** Number of points the fit used. */
    std::size_t n = 0;

    /** Evaluate the fitted line at @p x. */
    double at(double x) const { return intercept + slope * x; }
};

/**
 * Fixed-capacity sliding window of (x, y) samples with OLS fitting.
 *
 * When all x values are (nearly) identical the fit is degenerate; fit()
 * then returns a horizontal line through the mean y with r2 = 0.
 */
class SlidingRegression
{
  public:
    /** @param capacity maximum number of retained samples (window length) */
    explicit SlidingRegression(std::size_t capacity);

    /** Append a sample, evicting the oldest when at capacity. */
    void add(double x, double y);

    /** Drop all samples. */
    void clear();

    /** Number of samples currently held. */
    std::size_t size() const { return samples_.size(); }

    /** Window capacity. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Fit y = a + b x over the window.
     * @return std::nullopt when fewer than two samples are held.
     */
    std::optional<LinearFit> fit() const;

    /** Mean of the x values (0 when empty). */
    double meanX() const;

    /** Mean of the y values (0 when empty). */
    double meanY() const;

    /** Population standard deviation of the x values (0 when empty). */
    double stddevX() const;

    /** Largest y value in the window (0 when empty). */
    double maxY() const;

  private:
    /** Call @p f on every sample, oldest first. */
    template <typename F> void each(F &&f) const
    {
        for (std::size_t i = oldest_; i < samples_.size(); ++i)
            f(samples_[i].first, samples_[i].second);
        for (std::size_t i = 0; i < oldest_; ++i)
            f(samples_[i].first, samples_[i].second);
    }

    std::size_t capacity_;
    /** A ring once full: add() overwrites the oldest sample in place,
     *  so a full window slides without allocating. */
    std::vector<std::pair<double, double>> samples_;
    /** Index of the oldest sample (0 until the ring is full). */
    std::size_t oldest_ = 0;
};

} // namespace capmaestro::util

#endif // CAPMAESTRO_UTIL_REGRESSION_HH
