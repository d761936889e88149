#include "tensor/host_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace tensor {

namespace {

/** Four floats in one 16-byte vector register. */
using Vec4 = float __attribute__((vector_size(16)));

/** Unaligned load and store: pool offsets are arbitrary. */
inline Vec4
load4(const float* p)
{
    Vec4 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline void
store4(float* p, Vec4 v)
{
    std::memcpy(p, &v, sizeof(v));
}

/** y[r..r+R) of gemvRows, one float sum per row. */
template <int R>
inline void
gemvRowChains(const float* w, const float* x, float* y, std::size_t r,
              std::size_t cols)
{
    const float* wr[R];
    float acc[R];
    for (int k = 0; k < R; ++k) {
        wr[k] = w + (r + k) * cols;
        acc[k] = 0.0f;
    }
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
        const Vec4 xv = load4(x + c);
        Vec4 p[R];
        for (int k = 0; k < R; ++k)
            p[k] = load4(wr[k] + c) * xv;
        for (int j = 0; j < 4; ++j)
            for (int k = 0; k < R; ++k)
                acc[k] += p[k][j];
    }
    for (; c < cols; ++c)
        for (int k = 0; k < R; ++k)
            acc[k] += wr[k][c] * x[c];
    for (int k = 0; k < R; ++k)
        y[r + k] = acc[k];
}

} // namespace

void
gemv(const float* w, const float* x, float* y, std::size_t rows,
     std::size_t cols)
{
    gemvRows(w, x, y, 0, rows, cols);
}

void
gemvRows(const float* w, const float* x, float* y, std::size_t row_begin,
         std::size_t row_end, std::size_t cols)
{
    // Every row sums w[r][c] * x[c] from c = 0 upward into a float
    // that starts at zero, exactly as a scalar loop would: only the
    // products are vectorized, and rows run two to a pass, so no row's
    // sum is split.
    std::size_t r = row_begin;
    for (; r + 2 <= row_end; r += 2)
        gemvRowChains<2>(w, x, y, r, cols);
    if (r < row_end)
        gemvRowChains<1>(w, x, y, r, cols);
}

void
gemvTransposedAccum(const float* w, const float* dy, float* dx,
                    std::size_t rows, std::size_t cols)
{
    gemvTransposedAccumRows(w, dy, dx, 0, rows, cols);
}

void
gemvTransposedAccumRows(const float* w, const float* dy, float* dx,
                        std::size_t row_begin, std::size_t row_end,
                        std::size_t cols)
{
    // Vectorized over columns. Each column chunk loops over all rows
    // of the range, so every dx[c] still adds w[r][c] * dy[r] in
    // ascending r.
    std::size_t c = 0;
    for (; c + 16 <= cols; c += 16) {
        Vec4 a0 = load4(dx + c), a1 = load4(dx + c + 4);
        Vec4 a2 = load4(dx + c + 8), a3 = load4(dx + c + 12);
        for (std::size_t r = row_begin; r < row_end; ++r) {
            const float* wr = w + r * cols + c;
            const float d = dy[r];
            a0 += load4(wr) * d;
            a1 += load4(wr + 4) * d;
            a2 += load4(wr + 8) * d;
            a3 += load4(wr + 12) * d;
        }
        store4(dx + c, a0);
        store4(dx + c + 4, a1);
        store4(dx + c + 8, a2);
        store4(dx + c + 12, a3);
    }
    for (; c + 4 <= cols; c += 4) {
        Vec4 acc = load4(dx + c);
        for (std::size_t r = row_begin; r < row_end; ++r)
            acc += load4(w + r * cols + c) * dy[r];
        store4(dx + c, acc);
    }
    for (; c < cols; ++c) {
        float acc = dx[c];
        for (std::size_t r = row_begin; r < row_end; ++r)
            acc += w[r * cols + c] * dy[r];
        dx[c] = acc;
    }
}

void
outerAccum(float* dw, const float* dy, const float* x, std::size_t rows,
           std::size_t cols)
{
    outerAccumRows(dw, dy, x, 0, rows, cols);
}

void
outerAccumRows(float* dw, const float* dy, const float* x,
               std::size_t row_begin, std::size_t row_end,
               std::size_t cols)
{
    // Two vectors per pass: a one-vector loop ran at half speed in
    // some code placements.
    for (std::size_t r = row_begin; r < row_end; ++r) {
        float* dwr = dw + r * cols;
        const float d = dy[r];
        std::size_t c = 0;
        for (; c + 8 <= cols; c += 8) {
            const Vec4 lo = load4(dwr + c) + d * load4(x + c);
            const Vec4 hi = load4(dwr + c + 4) + d * load4(x + c + 4);
            store4(dwr + c, lo);
            store4(dwr + c + 4, hi);
        }
        for (; c + 4 <= cols; c += 4)
            store4(dwr + c, load4(dwr + c) + d * load4(x + c));
        for (; c < cols; ++c)
            dwr[c] += d * x[c];
    }
}

void
gemmAccumABt(float* c, const float* a, const float* b, std::size_t m,
             std::size_t n, std::size_t k)
{
    // C[m x n] += A[m x k] * B[n x k]^T with A, B stored row-major as
    // k columns of staged vectors laid out contiguously per vector:
    // A holds k vectors of length m back-to-back (column i of A is
    // a + i*m), likewise B.
    for (std::size_t i = 0; i < k; ++i) {
        const float* ai = a + i * m;
        const float* bi = b + i * n;
        for (std::size_t r = 0; r < m; ++r) {
            float* cr = c + r * n;
            const float ar = ai[r];
            for (std::size_t cc = 0; cc < n; ++cc)
                cr[cc] += ar * bi[cc];
        }
    }
}

void
addN(const float* const* ins, std::size_t n_in, float* out,
     std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < n_in; ++j)
            acc += ins[j][i];
        out[i] = acc;
    }
}

void
accum(float* out, const float* in, std::size_t len)
{
    std::size_t i = 0; // two vectors per pass, as in outerAccumRows
    for (; i + 8 <= len; i += 8) {
        const Vec4 lo = load4(out + i) + load4(in + i);
        const Vec4 hi = load4(out + i + 4) + load4(in + i + 4);
        store4(out + i, lo);
        store4(out + i + 4, hi);
    }
    for (; i + 4 <= len; i += 4)
        store4(out + i, load4(out + i) + load4(in + i));
    for (; i < len; ++i)
        out[i] += in[i];
}

void
cwiseMult(const float* a, const float* b, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = a[i] * b[i];
}

void
tanhForward(const float* in, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = std::tanh(in[i]);
}

void
tanhBackward(const float* out, const float* dout, float* din,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        din[i] += dout[i] * (1.0f - out[i] * out[i]);
}

void
sigmoidForward(const float* in, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = 1.0f / (1.0f + std::exp(-in[i]));
}

void
sigmoidBackward(const float* out, const float* dout, float* din,
                std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        din[i] += dout[i] * out[i] * (1.0f - out[i]);
}

void
reluForward(const float* in, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void
reluBackward(const float* out, const float* dout, float* din,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        din[i] += out[i] > 0.0f ? dout[i] : 0.0f;
}

void
scaleForward(const float* in, float factor, float* out,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = factor * in[i];
}

void
scaleAccum(const float* in, float factor, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] += factor * in[i];
}

float
pickNegLogSoftmax(const float* logits, std::uint32_t label, float* probs,
                  std::size_t len)
{
    const float max_logit = *std::max_element(logits, logits + len);
    float denom = 0.0f;
    for (std::size_t i = 0; i < len; ++i) {
        probs[i] = std::exp(logits[i] - max_logit);
        denom += probs[i];
    }
    for (std::size_t i = 0; i < len; ++i)
        probs[i] /= denom;
    const float p = std::max(probs[label], 1e-30f);
    return -std::log(p);
}

void
pickNegLogSoftmaxBackward(const float* probs, std::uint32_t label,
                          float dloss, float* dlogits, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        const float onehot = (i == label) ? 1.0f : 0.0f;
        dlogits[i] += dloss * (probs[i] - onehot);
    }
}

void
sgdUpdate(float* p, float* g, std::size_t len, float lr,
          float weight_decay)
{
    for (std::size_t i = 0; i < len; ++i) {
        p[i] -= lr * (g[i] + weight_decay * p[i]);
        g[i] = 0.0f;
    }
}

} // namespace tensor
