/** @file Unit tests for the host math kernels, including
 *  finite-difference checks of every backward routine. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "tensor/host_math.hpp"
#include "tensor/shape.hpp"

namespace {

std::vector<float>
randomVec(common::Rng& rng, std::size_t n, float scale = 1.0f)
{
    std::vector<float> v(n);
    for (auto& x : v)
        x = rng.nextFloat(-scale, scale);
    return v;
}

TEST(Shape, BasicProperties)
{
    tensor::Shape v(5);
    EXPECT_TRUE(v.isVector());
    EXPECT_EQ(v.size(), 5u);
    tensor::Shape m(3, 4);
    EXPECT_FALSE(m.isVector());
    EXPECT_EQ(m.size(), 12u);
    EXPECT_EQ(m.str(), "3x4");
    EXPECT_TRUE(tensor::Shape(1).isScalar());
    EXPECT_EQ(v, tensor::Shape(5));
    EXPECT_NE(v, m);
}

TEST(HostMath, GemvMatchesManualComputation)
{
    // W = [[1, 2], [3, 4], [5, 6]], x = [10, 100]
    const std::vector<float> w{1, 2, 3, 4, 5, 6};
    const std::vector<float> x{10, 100};
    std::vector<float> y(3);
    tensor::gemv(w.data(), x.data(), y.data(), 3, 2);
    EXPECT_FLOAT_EQ(y[0], 210.0f);
    EXPECT_FLOAT_EQ(y[1], 430.0f);
    EXPECT_FLOAT_EQ(y[2], 650.0f);
}

TEST(HostMath, GemvRowsComputesOnlyRequestedRows)
{
    const std::vector<float> w{1, 2, 3, 4, 5, 6};
    const std::vector<float> x{1, 1};
    std::vector<float> y(3, -1.0f);
    tensor::gemvRows(w.data(), x.data(), y.data(), 1, 2, 2);
    EXPECT_FLOAT_EQ(y[0], -1.0f) << "row 0 untouched";
    EXPECT_FLOAT_EQ(y[1], 7.0f);
    EXPECT_FLOAT_EQ(y[2], -1.0f) << "row 2 untouched";
}

TEST(HostMath, RowSlicesComposeToFullGemv)
{
    common::Rng rng(3);
    const std::size_t rows = 17, cols = 13;
    const auto w = randomVec(rng, rows * cols);
    const auto x = randomVec(rng, cols);
    std::vector<float> whole(rows), pieces(rows);
    tensor::gemv(w.data(), x.data(), whole.data(), rows, cols);
    // Compute in three arbitrary row slices, as the VPPs do.
    tensor::gemvRows(w.data(), x.data(), pieces.data(), 0, 5, cols);
    tensor::gemvRows(w.data(), x.data(), pieces.data(), 5, 11, cols);
    tensor::gemvRows(w.data(), x.data(), pieces.data(), 11, rows,
                     cols);
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_FLOAT_EQ(pieces[r], whole[r]);
}

TEST(HostMath, TransposedGemvIsGradientOfGemv)
{
    // Check <W x, dy> == <x, W^T dy> (adjoint identity).
    common::Rng rng(5);
    const std::size_t rows = 9, cols = 7;
    const auto w = randomVec(rng, rows * cols);
    const auto x = randomVec(rng, cols);
    const auto dy = randomVec(rng, rows);
    std::vector<float> y(rows), dx(cols, 0.0f);
    tensor::gemv(w.data(), x.data(), y.data(), rows, cols);
    tensor::gemvTransposedAccum(w.data(), dy.data(), dx.data(), rows,
                                cols);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t r = 0; r < rows; ++r)
        lhs += static_cast<double>(y[r]) * dy[r];
    for (std::size_t c = 0; c < cols; ++c)
        rhs += static_cast<double>(x[c]) * dx[c];
    EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(HostMath, OuterAccumBuildsRankOneUpdate)
{
    const std::vector<float> dy{2, 3};
    const std::vector<float> x{10, 20, 30};
    std::vector<float> dw(6, 1.0f);
    tensor::outerAccum(dw.data(), dy.data(), x.data(), 2, 3);
    EXPECT_FLOAT_EQ(dw[0], 21.0f);
    EXPECT_FLOAT_EQ(dw[5], 91.0f);
}

TEST(HostMath, GemmAccumAggregatesStagedOuterProducts)
{
    // The GEMM fallback must equal the sum of per-pair outer
    // products (Section III-C2).
    common::Rng rng(7);
    const std::size_t m = 6, n = 4, k = 5;
    std::vector<float> dys, xs;
    std::vector<float> ref(m * n, 0.0f), gemm(m * n, 0.0f);
    for (std::size_t i = 0; i < k; ++i) {
        const auto dy = randomVec(rng, m);
        const auto x = randomVec(rng, n);
        tensor::outerAccum(ref.data(), dy.data(), x.data(), m, n);
        dys.insert(dys.end(), dy.begin(), dy.end());
        xs.insert(xs.end(), x.begin(), x.end());
    }
    tensor::gemmAccumABt(gemm.data(), dys.data(), xs.data(), m, n, k);
    for (std::size_t i = 0; i < m * n; ++i)
        EXPECT_NEAR(gemm[i], ref[i], 1e-4);
}

/** Finite-difference check of an elementwise activation backward. */
struct ActivationCase
{
    const char* name;
    void (*fwd)(const float*, float*, std::size_t);
    void (*bwd)(const float*, const float*, float*, std::size_t);
};

/**
 * Print a case by name. Without this GoogleTest prints the raw bytes
 * of the struct, whose pointers change from run to run, and the ctest
 * names taken from that listing would change with them.
 */
void PrintTo(const ActivationCase& c, std::ostream* os)
{
    *os << c.name;
}

class ActivationGradientTest
    : public testing::TestWithParam<ActivationCase>
{
};

TEST_P(ActivationGradientTest, MatchesFiniteDifferences)
{
    const auto& c = GetParam();
    common::Rng rng(11);
    const std::size_t n = 16;
    auto in = randomVec(rng, n, 0.9f);
    const auto dout = randomVec(rng, n);

    std::vector<float> out(n), din(n, 0.0f);
    c.fwd(in.data(), out.data(), n);
    c.bwd(out.data(), dout.data(), din.data(), n);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < n; ++i) {
        // Avoid the relu kink.
        if (std::abs(in[i]) < 2 * eps)
            continue;
        auto perturbed = in;
        perturbed[i] += eps;
        std::vector<float> out_p(n);
        c.fwd(perturbed.data(), out_p.data(), n);
        perturbed[i] -= 2 * eps;
        std::vector<float> out_m(n);
        c.fwd(perturbed.data(), out_m.data(), n);
        const float fd =
            (out_p[i] - out_m[i]) / (2 * eps) * dout[i];
        EXPECT_NEAR(din[i], fd, 5e-3)
            << c.name << " gradient at index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Activations, ActivationGradientTest,
    testing::Values(
        ActivationCase{"tanh", tensor::tanhForward,
                       tensor::tanhBackward},
        ActivationCase{"sigmoid", tensor::sigmoidForward,
                       tensor::sigmoidBackward},
        ActivationCase{"relu", tensor::reluForward,
                       tensor::reluBackward}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(HostMath, PickNegLogSoftmaxIsAProperLoss)
{
    const std::vector<float> logits{1.0f, 2.0f, 0.5f};
    std::vector<float> probs(3);
    const float loss =
        tensor::pickNegLogSoftmax(logits.data(), 1, probs.data(), 3);
    float sum = 0.0f;
    for (float p : probs) {
        EXPECT_GT(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
    EXPECT_NEAR(loss, -std::log(probs[1]), 1e-5);
    // The gold class has the largest logit here, so loss < log(3).
    EXPECT_LT(loss, std::log(3.0f));
}

TEST(HostMath, PickNegLogSoftmaxBackwardMatchesFiniteDifferences)
{
    common::Rng rng(13);
    const std::size_t n = 5;
    auto logits = randomVec(rng, n);
    std::vector<float> probs(n);
    tensor::pickNegLogSoftmax(logits.data(), 2, probs.data(), n);
    std::vector<float> dlogits(n, 0.0f);
    tensor::pickNegLogSoftmaxBackward(probs.data(), 2, 1.0f,
                                      dlogits.data(), n);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < n; ++i) {
        auto p = logits;
        std::vector<float> scratch(n);
        p[i] += eps;
        const float lp =
            tensor::pickNegLogSoftmax(p.data(), 2, scratch.data(), n);
        p[i] -= 2 * eps;
        const float lm =
            tensor::pickNegLogSoftmax(p.data(), 2, scratch.data(), n);
        EXPECT_NEAR(dlogits[i], (lp - lm) / (2 * eps), 5e-3);
    }
}

TEST(HostMath, SgdUpdateAppliesDecayAndClearsGradient)
{
    std::vector<float> p{1.0f, -2.0f};
    std::vector<float> g{0.5f, 0.5f};
    tensor::sgdUpdate(p.data(), g.data(), 2, 0.1f, 0.01f);
    EXPECT_NEAR(p[0], 1.0f - 0.1f * (0.5f + 0.01f * 1.0f), 1e-6);
    EXPECT_NEAR(p[1], -2.0f - 0.1f * (0.5f + 0.01f * -2.0f), 1e-6);
    EXPECT_EQ(g[0], 0.0f);
    EXPECT_EQ(g[1], 0.0f);
}

TEST(HostMath, AddNAndAccum)
{
    const std::vector<float> a{1, 2}, b{10, 20}, c{100, 200};
    const float* ins[3] = {a.data(), b.data(), c.data()};
    std::vector<float> out(2);
    tensor::addN(ins, 3, out.data(), 2);
    EXPECT_FLOAT_EQ(out[0], 111.0f);
    tensor::accum(out.data(), a.data(), 2);
    EXPECT_FLOAT_EQ(out[0], 112.0f);
}

// -- Vector kernels against the scalar loops they replaced ----------
// accum, gemvRows, gemvTransposedAccumRows and outerAccumRows are
// 4-wide vector loops with scalar tails that must keep every output
// float's sequence of operations. Each is compared bit for bit with
// the plain scalar loop, kept below as the reference, over every
// column count up to 67 (so every tail length occurs), row ranges of
// 1, 2, 3 and 5 rows that start past row 0, operands one float past
// vector alignment, and inputs salted with -0.0, subnormals,
// infinities and 3e38.

namespace scalar {

void
gemvRows(const float* w, const float* x, float* y, std::size_t row_begin,
         std::size_t row_end, std::size_t cols)
{
    for (std::size_t r = row_begin; r < row_end; ++r) {
        const float* wr = w + r * cols;
        float acc = 0.0f;
        for (std::size_t c = 0; c < cols; ++c)
            acc += wr[c] * x[c];
        y[r] = acc;
    }
}

void
gemvTransposedAccumRows(const float* w, const float* dy, float* dx,
                        std::size_t row_begin, std::size_t row_end,
                        std::size_t cols)
{
    for (std::size_t r = row_begin; r < row_end; ++r) {
        const float* wr = w + r * cols;
        const float d = dy[r];
        for (std::size_t c = 0; c < cols; ++c)
            dx[c] += wr[c] * d;
    }
}

void
outerAccumRows(float* dw, const float* dy, const float* x,
               std::size_t row_begin, std::size_t row_end,
               std::size_t cols)
{
    for (std::size_t r = row_begin; r < row_end; ++r) {
        float* dwr = dw + r * cols;
        const float d = dy[r];
        for (std::size_t c = 0; c < cols; ++c)
            dwr[c] += d * x[c];
    }
}

void
accum(float* out, const float* in, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] += in[i];
}

} // namespace scalar

constexpr std::size_t kMaxCols = 67;
constexpr std::size_t kRowCounts[] = {1, 2, 3, 5};
constexpr std::size_t kFirstRow = 1;

/**
 * @p n kernel operands after one padding float, so data() + 1 is one
 * float past the allocation's alignment. Magnitudes span 2^-12..2^12,
 * so a changed summation order changes bits; with @p special, every
 * fifth value is -0.0, +0.0, a subnormal, +-inf or +-3e38.
 */
std::vector<float>
kernelOperand(common::Rng& rng, std::size_t n, bool special)
{
    const float specials[] = {-0.0f,
                              0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              -1e-40f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              3e38f,
                              -3e38f};
    std::vector<float> v(n + 1);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = std::ldexp(rng.nextFloat(-1.0f, 1.0f), rng.nextInt(-12, 12));
        if (special && i % 5 == 0)
            v[i] = specials[rng.nextBelow(std::size(specials))];
    }
    return v;
}

bool
sameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Call @p check(cols, rows, special) for every kernel case. */
template <typename Check>
void
forEachKernelCase(Check check)
{
    for (bool special : {false, true})
        for (std::size_t cols = 1; cols <= kMaxCols; ++cols)
            for (std::size_t rows : kRowCounts)
                check(cols, rows, special);
}

TEST(HostMath, GemvRowsMatchesScalarLoopBitwise)
{
    common::Rng rng(401);
    forEachKernelCase([&](std::size_t cols, std::size_t rows,
                          bool special) {
        const std::size_t all_rows = kFirstRow + rows + 1;
        const auto w = kernelOperand(rng, all_rows * cols, special);
        const auto x = kernelOperand(rng, cols, special);
        auto want = kernelOperand(rng, all_rows, special);
        auto got = want;
        scalar::gemvRows(w.data() + 1, x.data() + 1, want.data() + 1,
                         kFirstRow, kFirstRow + rows, cols);
        tensor::gemvRows(w.data() + 1, x.data() + 1, got.data() + 1,
                         kFirstRow, kFirstRow + rows, cols);
        EXPECT_TRUE(sameBits(got, want))
            << "cols " << cols << ", rows " << rows
            << (special ? ", special values" : "");
    });
}

TEST(HostMath, GemvTransposedAccumRowsMatchesScalarLoopBitwise)
{
    common::Rng rng(402);
    forEachKernelCase([&](std::size_t cols, std::size_t rows,
                          bool special) {
        const std::size_t all_rows = kFirstRow + rows + 1;
        const auto w = kernelOperand(rng, all_rows * cols, special);
        const auto dy = kernelOperand(rng, all_rows, special);
        auto want = kernelOperand(rng, cols, special);
        auto got = want;
        scalar::gemvTransposedAccumRows(w.data() + 1, dy.data() + 1,
                                        want.data() + 1, kFirstRow,
                                        kFirstRow + rows, cols);
        tensor::gemvTransposedAccumRows(w.data() + 1, dy.data() + 1,
                                        got.data() + 1, kFirstRow,
                                        kFirstRow + rows, cols);
        EXPECT_TRUE(sameBits(got, want))
            << "cols " << cols << ", rows " << rows
            << (special ? ", special values" : "");
    });
}

TEST(HostMath, OuterAccumRowsMatchesScalarLoopBitwise)
{
    common::Rng rng(403);
    forEachKernelCase([&](std::size_t cols, std::size_t rows,
                          bool special) {
        const std::size_t all_rows = kFirstRow + rows + 1;
        const auto dy = kernelOperand(rng, all_rows, special);
        const auto x = kernelOperand(rng, cols, special);
        auto want = kernelOperand(rng, all_rows * cols, special);
        auto got = want;
        scalar::outerAccumRows(want.data() + 1, dy.data() + 1,
                               x.data() + 1, kFirstRow,
                               kFirstRow + rows, cols);
        tensor::outerAccumRows(got.data() + 1, dy.data() + 1,
                               x.data() + 1, kFirstRow,
                               kFirstRow + rows, cols);
        EXPECT_TRUE(sameBits(got, want))
            << "cols " << cols << ", rows " << rows
            << (special ? ", special values" : "");
    });
}

TEST(HostMath, AccumMatchesScalarLoopBitwise)
{
    common::Rng rng(404);
    for (bool special : {false, true}) {
        for (std::size_t len = 1; len <= kMaxCols; ++len) {
            const auto in = kernelOperand(rng, len, special);
            auto want = kernelOperand(rng, len, special);
            auto got = want;
            scalar::accum(want.data() + 1, in.data() + 1, len);
            tensor::accum(got.data() + 1, in.data() + 1, len);
            EXPECT_TRUE(sameBits(got, want))
                << "len " << len << (special ? ", special values" : "");
        }
    }
}

} // namespace
