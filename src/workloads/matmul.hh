/**
 * @file
 * Matrix multiplication C = A * B, the paper's Section 4.2 workload,
 * in all five evaluated variants:
 *
 *  - Interchanged:      jki loop order with B[k,j] registered — the
 *                       best untiled order for column-major storage;
 *  - Transposed:        A transposed before/after so the dot-product
 *                       loop streams two contiguous vectors;
 *  - TiledInterchanged: cache-tiled jki (stands in for KAP tiling);
 *  - TiledTransposed:   register- plus cache-tiled transposed form
 *                       (3x3 register block, 9 madds / 6 loads per
 *                       step, exactly the inner loop the paper reports
 *                       for the compiler-tiled code);
 *  - Threaded:          one locality-scheduled thread per dot product
 *                       with column base addresses as hints — the
 *                       paper's Section 2.1/2.4 running example.
 *
 * Instruction accounting uses the paper's measured per-madd counts
 * (Section 4.2): 5 for untiled interchanged, 2 for tiled, 3.5 for the
 * transposed/threaded inner loop.
 *
 * The transposed, tiled-transposed (edge blocks) and threaded variants
 * share one dot-product loop, dotColumns(). It keeps kDotLanes
 * independent partial sums so native code is not bound by the latency
 * of one serial FP-add chain, yet it hands the model exactly the
 * references a single-accumulator loop would: x[k] then y[k], for k in
 * order. Instruction charges stay at the call sites, unchanged, so a
 * SimModel run sees the same reference stream and instruction count as
 * before; only native time and the low-order rounding of C move.
 */

#ifndef LSCHED_WORKLOADS_MATMUL_HH
#define LSCHED_WORKLOADS_MATMUL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/prng.hh"
#include "threads/hints.hh"
#include "threads/scheduler.hh"
#include "workloads/matrix.hh"
#include "workloads/memmodel.hh"

namespace lsched::workloads
{

/** Synthetic-text ids for the matmul kernels. */
enum MatmulKernelId : unsigned
{
    kMatmulZero = 0,
    kMatmulInterchanged,
    kMatmulTransposeA,
    kMatmulTransposed,
    kMatmulTiledInterchanged,
    kMatmulTiledTransposed,
    kMatmulThreadedDot,
};

/** Fill @p m with deterministic values in [-1, 1). */
inline void
randomize(Matrix &m, std::uint64_t seed)
{
    Prng prng(seed);
    for (std::size_t j = 0; j < m.cols(); ++j)
        for (std::size_t i = 0; i < m.rows(); ++i)
            m(i, j) = prng.nextDouble(-1.0, 1.0);
}

/**
 * Independent partial sums in dotColumns(), picked by measurement: on
 * the threaded n = 1024 multiply, 8 ran 1.9x faster than one
 * accumulator and 4 only 1.6x. Eight named scalars pack into four
 * two-wide vector add chains.
 */
constexpr std::size_t kDotLanes = 8;

/**
 * Return the dot product of the @p n doubles at @p x and @p y,
 * charging @p model one load of x[k] then one of y[k] for each k in
 * ascending order. The references are issued in one loop ahead of the
 * arithmetic (NativeModel compiles it away); the sum is split over
 * kDotLanes named accumulators (an array spills to the stack) and
 * folded pairwise, with the k % kDotLanes remainder added last.
 * Instructions are not charged here.
 */
template <class M>
double
dotColumns(const double *x, const double *y, std::size_t n, M &model)
{
    static_assert(kDotLanes == 8, "the unrolled body below has 8 lanes");
    for (std::size_t k = 0; k < n; ++k) {
        model.load(&x[k], 8);
        model.load(&y[k], 8);
    }
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    double s4 = 0, s5 = 0, s6 = 0, s7 = 0;
    const std::size_t whole = n - n % kDotLanes;
    std::size_t k = 0;
    for (; k < whole; k += kDotLanes) {
        s0 += x[k] * y[k];
        s1 += x[k + 1] * y[k + 1];
        s2 += x[k + 2] * y[k + 2];
        s3 += x[k + 3] * y[k + 3];
        s4 += x[k + 4] * y[k + 4];
        s5 += x[k + 5] * y[k + 5];
        s6 += x[k + 6] * y[k + 6];
        s7 += x[k + 7] * y[k + 7];
    }
    double sum = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    for (; k < n; ++k)
        sum += x[k] * y[k];
    return sum;
}

/** Zero @p c, charging the stores. */
template <class M>
void
zeroMatrix(Matrix &c, M &model)
{
    model.enterKernel(kMatmulZero);
    for (std::size_t j = 0; j < c.cols(); ++j) {
        for (std::size_t i = 0; i < c.rows(); ++i) {
            c(i, j) = 0.0;
            model.store(&c(i, j), 8);
        }
        model.instructions(2 * c.rows());
    }
}

/**
 * Transpose @p a into @p at, charging loads and stores. Blocked
 * (32 x 32 tiles) so the strided side of the transpose reuses every
 * touched cache line instead of thrashing power-of-two-strided sets.
 */
template <class M>
void
transpose(const Matrix &a, Matrix &at, M &model)
{
    model.enterKernel(kMatmulTransposeA);
    const std::size_t n = a.rows();
    constexpr std::size_t kTile = 32;
    for (std::size_t jj = 0; jj < a.cols(); jj += kTile) {
        const std::size_t jend = std::min(jj + kTile, a.cols());
        for (std::size_t ii = 0; ii < n; ii += kTile) {
            const std::size_t iend = std::min(ii + kTile, n);
            for (std::size_t j = jj; j < jend; ++j) {
                for (std::size_t i = ii; i < iend; ++i) {
                    model.load(&a(i, j), 8);
                    at(j, i) = a(i, j);
                    model.store(&at(j, i), 8);
                }
            }
            model.instructions(4 * (jend - jj) * (iend - ii) + 8);
        }
    }
}

/**
 * Untiled interchanged (jki) multiply: the paper's best plain
 * sequential method. B[k,j] is held in a register across the inner
 * loop, so each madd costs two loads and one store.
 */
template <class M>
void
matmulInterchanged(const Matrix &a, const Matrix &b, Matrix &c, M &model)
{
    const std::size_t n = a.rows();
    zeroMatrix(c, model);
    model.enterKernel(kMatmulInterchanged);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) {
            model.load(&b(k, j), 8);
            const double bkj = b(k, j);
            const double *const acol = a.col(k);
            double *const ccol = c.col(j);
            for (std::size_t i = 0; i < n; ++i) {
                model.load(&acol[i], 8);
                model.load(&ccol[i], 8);
                ccol[i] += acol[i] * bkj;
                model.store(&ccol[i], 8);
            }
            model.instructions(5 * n + 4);
        }
    }
}

/**
 * Transposed multiply: At = A^T is formed first (and A is notionally
 * restored after; both transposes are charged, as in the paper's
 * timings), then each C[i,j] is a dot product of two contiguous
 * columns with the sum in a register — two loads per madd.
 */
template <class M>
void
matmulTransposed(const Matrix &a, const Matrix &b, Matrix &c, M &model)
{
    const std::size_t n = a.rows();
    Matrix at(n, n);
    transpose(a, at, model);
    model.enterKernel(kMatmulTransposed);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            c(i, j) = dotColumns(at.col(i), b.col(j), n, model);
            model.store(&c(i, j), 8);
            model.instructions(7 * n / 2 + 6);
        }
    }
    // Restore transpose (the second transpose the paper charges).
    Matrix dummy(n, n);
    transpose(at, dummy, model);
}

/**
 * Cache-tiled jki multiply (the KAP stand-in for the interchanged
 * form): k and j are blocked so the active slice of A stays resident,
 * and the inner loop is unrolled over three k values so each C element
 * is loaded and stored once per three madds.
 */
template <class M>
void
matmulTiledInterchanged(const Matrix &a, const Matrix &b, Matrix &c,
                        M &model, std::size_t l1_bytes,
                        std::size_t l2_bytes)
{
    const std::size_t n = a.rows();
    zeroMatrix(c, model);
    model.enterKernel(kMatmulTiledInterchanged);

    // Block k so three A columns plus one C column sit in L1, and
    // block j so the A panel (n x bk) stays within half of L2.
    std::size_t bk = l2_bytes / (16 * n * sizeof(double) / 8);
    bk = std::max<std::size_t>(3, std::min(bk, n));
    bk -= bk % 3 ? bk % 3 : 0;
    if (bk < 3)
        bk = 3;
    std::size_t bj = l1_bytes / (2 * sizeof(double)) / bk;
    bj = std::max<std::size_t>(1, std::min(bj, n));

    for (std::size_t kk = 0; kk < n; kk += bk) {
        const std::size_t kend = std::min(kk + bk, n);
        for (std::size_t jj = 0; jj < n; jj += bj) {
            const std::size_t jend = std::min(jj + bj, n);
            for (std::size_t j = jj; j < jend; ++j) {
                std::size_t k = kk;
                for (; k + 3 <= kend; k += 3) {
                    model.load(&b(k, j), 8);
                    model.load(&b(k + 1, j), 8);
                    model.load(&b(k + 2, j), 8);
                    const double b0 = b(k, j);
                    const double b1 = b(k + 1, j);
                    const double b2 = b(k + 2, j);
                    const double *const a0 = a.col(k);
                    const double *const a1 = a.col(k + 1);
                    const double *const a2 = a.col(k + 2);
                    double *const ccol = c.col(j);
                    for (std::size_t i = 0; i < n; ++i) {
                        model.load(&a0[i], 8);
                        model.load(&a1[i], 8);
                        model.load(&a2[i], 8);
                        model.load(&ccol[i], 8);
                        ccol[i] += a0[i] * b0 + a1[i] * b1 + a2[i] * b2;
                        model.store(&ccol[i], 8);
                    }
                    model.instructions(6 * n + 12);
                }
                for (; k < kend; ++k) {
                    model.load(&b(k, j), 8);
                    const double bkj = b(k, j);
                    const double *const acol = a.col(k);
                    double *const ccol = c.col(j);
                    for (std::size_t i = 0; i < n; ++i) {
                        model.load(&acol[i], 8);
                        model.load(&ccol[i], 8);
                        ccol[i] += acol[i] * bkj;
                        model.store(&ccol[i], 8);
                    }
                    model.instructions(5 * n + 4);
                }
            }
        }
    }
}

/**
 * Register- and cache-tiled transposed multiply. The inner loop is
 * the paper's reported compiler output: a 3x3 register block of C,
 * nine madds fed by six loads per k step (2 instructions per madd).
 * The k-panel of At is packed into a contiguous buffer first — the
 * copy optimization Lam et al. recommend to defeat power-of-two
 * self-interference, without which the panel's column chunks land in
 * a handful of cache sets and thrash.
 */
template <class M>
void
matmulTiledTransposed(const Matrix &a, const Matrix &b, Matrix &c,
                      M &model, std::size_t l1_bytes,
                      std::size_t l2_bytes)
{
    const std::size_t n = a.rows();
    Matrix at(n, n);
    transpose(a, at, model);
    model.enterKernel(kMatmulTiledTransposed);

    // Six active chunks of length bk must fit in half of L1; the
    // packed At panel (bk x n) must fit in half of L2.
    std::size_t bk = l1_bytes / (12 * sizeof(double));
    bk = std::min(bk, l2_bytes / (2 * n * sizeof(double)));
    bk = std::max<std::size_t>(8, std::min(bk, n));

    // Packed panel: chunk i (rows kk..kend of At column i) lives at
    // packed[i * kb], contiguous and conflict-free.
    std::vector<double> packed(bk * n);

    auto dot_tail = [&](std::size_t i, std::size_t j, std::size_t kk,
                        std::size_t kb) {
        const double sum =
            dotColumns(&packed[i * kb], b.col(j) + kk, kb, model);
        model.load(&c(i, j), 8);
        c(i, j) += sum;
        model.store(&c(i, j), 8);
        model.instructions(7 * kb / 2 + 6);
    };

    for (std::size_t kk = 0; kk < n; kk += bk) {
        const std::size_t kend = std::min(kk + bk, n);
        const std::size_t kb = kend - kk;
        for (std::size_t i = 0; i < n; ++i) {
            const double *const src = at.col(i) + kk;
            double *const dst = &packed[i * kb];
            for (std::size_t k = 0; k < kb; ++k) {
                model.load(&src[k], 8);
                dst[k] = src[k];
                model.store(&dst[k], 8);
            }
            model.instructions(4 * kb + 4);
        }
        for (std::size_t jj = 0; jj < n; jj += 3) {
            const std::size_t jn = std::min<std::size_t>(3, n - jj);
            for (std::size_t ii = 0; ii < n; ii += 3) {
                const std::size_t in = std::min<std::size_t>(3, n - ii);
                if (in == 3 && jn == 3) {
                    const double *const a0 = &packed[ii * kb];
                    const double *const a1 = &packed[(ii + 1) * kb];
                    const double *const a2 = &packed[(ii + 2) * kb];
                    const double *const b0 = b.col(jj) + kk;
                    const double *const b1 = b.col(jj + 1) + kk;
                    const double *const b2 = b.col(jj + 2) + kk;
                    double c00 = 0, c01 = 0, c02 = 0;
                    double c10 = 0, c11 = 0, c12 = 0;
                    double c20 = 0, c21 = 0, c22 = 0;
                    for (std::size_t k = 0; k < kb; ++k) {
                        model.load(&a0[k], 8);
                        model.load(&a1[k], 8);
                        model.load(&a2[k], 8);
                        model.load(&b0[k], 8);
                        model.load(&b1[k], 8);
                        model.load(&b2[k], 8);
                        const double av0 = a0[k], av1 = a1[k],
                                     av2 = a2[k];
                        const double bv0 = b0[k], bv1 = b1[k],
                                     bv2 = b2[k];
                        c00 += av0 * bv0;
                        c01 += av0 * bv1;
                        c02 += av0 * bv2;
                        c10 += av1 * bv0;
                        c11 += av1 * bv1;
                        c12 += av1 * bv2;
                        c20 += av2 * bv0;
                        c21 += av2 * bv1;
                        c22 += av2 * bv2;
                    }
                    model.instructions(18 * kb + 20);
                    double *const cc0 = c.col(jj);
                    double *const cc1 = c.col(jj + 1);
                    double *const cc2 = c.col(jj + 2);
                    auto flush = [&](double *col, std::size_t i,
                                     double v) {
                        model.load(&col[i], 8);
                        col[i] += v;
                        model.store(&col[i], 8);
                    };
                    flush(cc0, ii, c00);
                    flush(cc0, ii + 1, c10);
                    flush(cc0, ii + 2, c20);
                    flush(cc1, ii, c01);
                    flush(cc1, ii + 1, c11);
                    flush(cc1, ii + 2, c21);
                    flush(cc2, ii, c02);
                    flush(cc2, ii + 1, c12);
                    flush(cc2, ii + 2, c22);
                } else {
                    for (std::size_t j = jj; j < jj + jn; ++j)
                        for (std::size_t i = ii; i < ii + in; ++i)
                            dot_tail(i, j, kk, kb);
                }
            }
        }
    }
    Matrix dummy(n, n);
    transpose(at, dummy, model);
}

/** Context shared by every dot-product thread of one threaded run. */
template <class M>
struct DotProductCtx
{
    const Matrix *at;
    const Matrix *b;
    Matrix *c;
    M *model;
};

/** Thread body: C[i,j] = dot(At[:,i], B[:,j]); arg2 packs (i, j). */
template <class M>
void
dotProductThread(void *ctx_p, void *ij_p)
{
    auto *ctx = static_cast<DotProductCtx<M> *>(ctx_p);
    const auto packed = reinterpret_cast<std::uintptr_t>(ij_p);
    const std::size_t i = packed >> 32;
    const std::size_t j = packed & 0xffffffffu;
    M &model = *ctx->model;
    const std::size_t n = ctx->at->rows();
    (*ctx->c)(i, j) =
        dotColumns(ctx->at->col(i), ctx->b->col(j), n, model);
    model.store(&(*ctx->c)(i, j), 8);
    model.instructions(7 * n / 2 + 6 + kThreadOverheadInstr);
}

/**
 * The paper's threaded multiply (Sections 2.1, 4.2): one thread per
 * dot product, forked with the base addresses of the two columns it
 * reads as hints, then run in bin order by @p scheduler. Includes
 * both transpose passes, as the paper's timings do.
 *
 * With @p workers > 1 the bin tour is distributed over that many OS
 * threads (Section 7's SMP extension). The model must then be
 * thread-safe: NativeModel is (it is stateless); SimModel is not, so
 * simulated runs must keep workers == 1.
 */
template <class M>
void
matmulThreaded(const Matrix &a, const Matrix &b, Matrix &c,
               threads::LocalityScheduler &scheduler, M &model,
               unsigned workers = 1)
{
    const std::size_t n = a.rows();
    Matrix at(n, n);
    transpose(a, at, model);
    model.enterKernel(kMatmulThreadedDot);

    DotProductCtx<M> ctx{&at, &b, &c, &model};
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const auto packed =
                reinterpret_cast<void *>((i << 32) | j);
            scheduler.fork(&dotProductThread<M>, &ctx, packed,
                           threads::hintOf(at.col(i)),
                           threads::hintOf(b.col(j)));
        }
    }
    if (workers > 1)
        scheduler.runParallel(workers, false);
    else
        scheduler.run(false);

    Matrix dummy(n, n);
    transpose(at, dummy, model);
}

} // namespace lsched::workloads

#endif // LSCHED_WORKLOADS_MATMUL_HH
