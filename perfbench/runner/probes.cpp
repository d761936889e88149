#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "rig.hpp"
#include "tensor/host_math.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/** Median G MAC/s of @p kernel over five ~50 ms trials. */
template <typename Kernel>
double
gmacPerSecond(SpanRecorder& spans, const char* name, Kernel kernel)
{
    constexpr double kMacs = double(kWidth) * kWidth;
    std::vector<double> trials;
    for (int t = 0; t < 5; ++t) {
        ScopedSpan s(spans, name, t);
        const auto start = Clock::now();
        std::size_t calls = 0;
        do {
            for (int i = 0; i < 64; ++i)
                kernel();
            calls += 64;
        } while (secondsSince(start) < 0.05);
        trials.push_back(double(calls) * kMacs / secondsSince(start) /
                         1e9);
    }
    std::sort(trials.begin(), trials.end());
    return trials[trials.size() / 2];
}

} // namespace

void
probeTensorKernels(SpanRecorder& spans, Report& report)
{
    common::Rng rng(12345);
    auto filled = [&](std::size_t n) {
        std::vector<float> v(n);
        for (float& x : v)
            x = rng.nextFloat(-0.05f, 0.05f);
        return v;
    };
    const std::vector<float> w = filled(std::size_t{kWidth} * kWidth);
    const std::vector<float> x = filled(kWidth);
    std::vector<float> y(kWidth, 0.0f);
    std::vector<float> dw(std::size_t{kWidth} * kWidth, 0.0f);

    report.num("tensor_gemv_gmacs",
               gmacPerSecond(spans, "tensor.gemv", [&] {
                   tensor::gemvRows(w.data(), x.data(), y.data(), 0,
                                    kWidth, kWidth);
               }));
    report.num("tensor_gemvt_gmacs",
               gmacPerSecond(spans, "tensor.gemvt", [&] {
                   tensor::gemvTransposedAccumRows(
                       w.data(), x.data(), y.data(), 0, kWidth, kWidth);
               }));
    report.num("tensor_outer_gmacs",
               gmacPerSecond(spans, "tensor.outer", [&] {
                   tensor::outerAccumRows(dw.data(), x.data(), x.data(),
                                          0, kWidth, kWidth);
               }));
}

} // namespace perfbench
