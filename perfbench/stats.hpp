// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace inframe::perfbench {

// Median of the samples (mean of the two middle values for even counts);
// 0 for an empty set.
double median(std::vector<double> samples);

// First, second and third quartile with the "exclusive" method of
// Python's statistics.quantiles(data, n=4), so a spread computed here
// reads the same as one computed over the printed values. Needs at least
// two samples; fewer give all three quartiles equal to the one value (or 0).
struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> samples);

// The highest percentile that still has `beyond` samples above it: with
// n sorted samples it is the sample of rank n - beyond (1-based), i.e. the
// (n - beyond) / n quantile. `valid` is false when n <= beyond.
struct Tail {
    double value = 0.0;
    double percentile = 0.0; // in percent
    std::size_t samples = 0;
    bool valid = false;
};
Tail tail(std::vector<double> samples, std::size_t beyond = 10);

} // namespace inframe::perfbench
