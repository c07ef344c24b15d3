#include "stats.hpp"

#include <algorithm>

namespace inframe::perfbench {

double median(std::vector<double> samples)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Quartiles quartiles(std::vector<double> samples)
{
    if (samples.size() < 2) {
        const double only = samples.empty() ? 0.0 : samples.front();
        return {only, only, only};
    }
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<long long>(samples.size());
    const long long m = n + 1;
    double q[3];
    for (long long i = 1; i <= 3; ++i) {
        // statistics.quantiles(method="exclusive"): j = i*m // 4 clamped to
        // [1, n-1], and the step weight is taken from the clamped j (it
        // extrapolates at the ends of small samples, as Python does).
        const long long j = std::clamp(i * m / 4, 1LL, n - 1);
        const auto delta = static_cast<double>(i * m - j * 4);
        q[i - 1] = (samples[static_cast<std::size_t>(j - 1)] * (4.0 - delta)
                    + samples[static_cast<std::size_t>(j)] * delta)
                   / 4.0;
    }
    return {q[0], q[1], q[2]};
}

Tail tail(std::vector<double> samples, std::size_t beyond)
{
    Tail out;
    out.samples = samples.size();
    if (samples.size() <= beyond) return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    out.value = samples[n - beyond - 1];
    out.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
    out.valid = true;
    return out;
}

} // namespace inframe::perfbench
