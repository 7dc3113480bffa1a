/** @file Unit tests for the matrix-multiply workload variants. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "cachesim/hierarchy.hh"
#include "machine/machine_config.hh"
#include "workloads/matmul.hh"

namespace
{

using namespace lsched::workloads;

/** Naive reference multiply. */
Matrix
reference(const Matrix &a, const Matrix &b)
{
    const std::size_t n = a.rows();
    Matrix c(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0;
            for (std::size_t k = 0; k < n; ++k)
                s += a(i, k) * b(k, j);
            c(i, j) = s;
        }
    return c;
}

class MatmulTest : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void
    SetUp() override
    {
        n_ = GetParam();
        a_ = std::make_unique<Matrix>(n_, n_);
        b_ = std::make_unique<Matrix>(n_, n_);
        randomize(*a_, 1);
        randomize(*b_, 2);
        ref_ = std::make_unique<Matrix>(reference(*a_, *b_));
    }

    std::size_t n_ = 0;
    std::unique_ptr<Matrix> a_, b_, ref_;
};

TEST_P(MatmulTest, InterchangedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulInterchanged(*a_, *b_, c, m);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, TransposedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulTransposed(*a_, *b_, c, m);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, TiledInterchangedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulTiledInterchanged(*a_, *b_, c, m, 16 * 1024, 128 * 1024);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, TiledTransposedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulTiledTransposed(*a_, *b_, c, m, 16 * 1024, 128 * 1024);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, ThreadedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    lsched::threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.blockBytes = 4096;
    lsched::threads::LocalityScheduler sched(cfg);
    matmulThreaded(*a_, *b_, c, sched, m);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
    EXPECT_EQ(sched.stats().executedThreads, n_ * n_);
}

// Sizes straddle the 3x3 register-block and tile boundaries and
// dotColumns()' kDotLanes-wide unrolled step (9, 15, 65).
INSTANTIATE_TEST_SUITE_P(Sizes, MatmulTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 24, 33, 48, 65));

/** One data reference a kernel hands its model. */
struct Ref
{
    bool store;
    std::uintptr_t addr;
    std::uint32_t bytes;

    bool operator==(const Ref &) const = default;
};

void
PrintTo(const Ref &r, std::ostream *os)
{
    *os << (r.store ? "store " : "load ") << std::hex << r.addr
        << std::dec << "/" << r.bytes;
}

Ref
loadOf(std::uintptr_t addr)
{
    return {false, addr, 8};
}

Ref
storeOf(std::uintptr_t addr)
{
    return {true, addr, 8};
}

std::uintptr_t
addressOf(const double *p)
{
    return reinterpret_cast<std::uintptr_t>(p);
}

/**
 * Model that records every reference and sums instruction charges,
 * both keyed by the kernel id last entered: the oracle SimModel's
 * cache tables depend on.
 */
class RecordingModel
{
  public:
    void load(const void *p, std::uint32_t bytes) { log(false, p, bytes); }
    void store(const void *p, std::uint32_t bytes) { log(true, p, bytes); }
    void instructions(std::uint64_t n) { instructions_[kernel_] += n; }
    void enterKernel(unsigned id) { kernel_ = id; }

    const std::vector<Ref> &refs(unsigned kernel) { return refs_[kernel]; }
    std::uint64_t
    instructionsIn(unsigned kernel)
    {
        return instructions_[kernel];
    }

  private:
    void
    log(bool store, const void *p, std::uint32_t bytes)
    {
        refs_[kernel_].push_back(
            {store, reinterpret_cast<std::uintptr_t>(p), bytes});
    }

    unsigned kernel_ = ~0u;
    std::map<unsigned, std::vector<Ref>> refs_;
    std::map<unsigned, std::uint64_t> instructions_;
};

/** Append the single-accumulator loop's loads: x[k] then y[k]. */
void
expectDot(std::vector<Ref> &out, std::uintptr_t x, std::uintptr_t y,
          std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        out.push_back(loadOf(x + 8 * k));
        out.push_back(loadOf(y + 8 * k));
    }
}

/** Instructions charged per dot product of length @p n. */
std::uint64_t
dotInstructions(std::size_t n)
{
    return 7 * n / 2 + 6;
}

// n = 1..40 covers every remainder of the kDotLanes-wide step several
// times over, and every 3x3 register-block edge case.
constexpr std::size_t kOracleMaxN = 40;

TEST(MatmulReferenceStream, DotProductThreadLoadsPairsInOrder)
{
    for (std::size_t n = 1; n <= kOracleMaxN; ++n) {
        SCOPED_TRACE(n);
        Matrix at(n, n), b(n, n), c(n, n);
        randomize(at, 1);
        randomize(b, 2);
        RecordingModel model;
        DotProductCtx<RecordingModel> ctx{&at, &b, &c, &model};
        std::vector<Ref> want;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                dotProductThread<RecordingModel>(
                    &ctx, reinterpret_cast<void *>((i << 32) | j));
                expectDot(want, addressOf(at.col(i)), addressOf(b.col(j)), n);
                want.push_back(storeOf(addressOf(&c(i, j))));
            }
        }
        ASSERT_EQ(model.refs(~0u), want);
        EXPECT_EQ(model.instructionsIn(~0u),
                  n * n * (dotInstructions(n) + kThreadOverheadInstr));
        Matrix ref(n, n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                for (std::size_t k = 0; k < n; ++k)
                    ref(i, j) += at(k, i) * b(k, j);
        EXPECT_LT(c.maxAbsDiff(ref), 1e-9 * static_cast<double>(n));
    }
}

TEST(MatmulReferenceStream, TransposedLoadsPairsInOrder)
{
    for (std::size_t n = 1; n <= kOracleMaxN; ++n) {
        SCOPED_TRACE(n);
        Matrix a(n, n), b(n, n), c(n, n);
        randomize(a, 1);
        randomize(b, 2);
        RecordingModel model;
        matmulTransposed(a, b, c, model);
        const std::vector<Ref> &got = model.refs(kMatmulTransposed);
        ASSERT_FALSE(got.empty());
        // At is the kernel's own allocation: its base is the first
        // reference, and column i of it lies i * n doubles further on.
        const std::uintptr_t atBase = got.front().addr;
        std::vector<Ref> want;
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t i = 0; i < n; ++i) {
                expectDot(want, atBase + 8 * i * n, addressOf(b.col(j)), n);
                want.push_back(storeOf(addressOf(&c(i, j))));
            }
        }
        ASSERT_EQ(got, want);
        EXPECT_EQ(model.instructionsIn(kMatmulTransposed),
                  n * n * dotInstructions(n));
    }
}

/**
 * The whole kMatmulTiledTransposed section for a panel height of
 * @p bk rows: packing, 3x3 register blocks, and dotColumns() on the
 * edge blocks. At and the packed panel are the kernel's allocations;
 * their bases are the section's first load and first store.
 */
void
expectTiledTransposed(RecordingModel &model, const Matrix &b,
                      const Matrix &c, std::size_t bk)
{
    const std::size_t n = b.rows();
    const std::vector<Ref> &got = model.refs(kMatmulTiledTransposed);
    ASSERT_GE(got.size(), 2u);
    const std::uintptr_t atBase = got[0].addr;
    const std::uintptr_t packedBase = got[1].addr;
    std::vector<Ref> want;
    std::uint64_t instr = 0;
    for (std::size_t kk = 0; kk < n; kk += bk) {
        const std::size_t kb = std::min(bk, n - kk);
        const auto chunk = [&](std::size_t i) {
            return packedBase + 8 * i * kb;
        };
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t k = 0; k < kb; ++k) {
                want.push_back(loadOf(atBase + 8 * (i * n + kk + k)));
                want.push_back(storeOf(chunk(i) + 8 * k));
            }
            instr += 4 * kb + 4;
        }
        for (std::size_t jj = 0; jj < n; jj += 3) {
            const std::size_t jn = std::min<std::size_t>(3, n - jj);
            for (std::size_t ii = 0; ii < n; ii += 3) {
                const std::size_t in = std::min<std::size_t>(3, n - ii);
                if (in == 3 && jn == 3) {
                    for (std::size_t k = 0; k < kb; ++k) {
                        for (std::size_t r = 0; r < 3; ++r)
                            want.push_back(
                                loadOf(chunk(ii + r) + 8 * k));
                        for (std::size_t r = 0; r < 3; ++r)
                            want.push_back(
                                loadOf(addressOf(&b(kk + k, jj + r))));
                    }
                    instr += 18 * kb + 20;
                    for (std::size_t jr = 0; jr < 3; ++jr) {
                        for (std::size_t ir = 0; ir < 3; ++ir) {
                            const auto cij = addressOf(&c(ii + ir, jj + jr));
                            want.push_back(loadOf(cij));
                            want.push_back(storeOf(cij));
                        }
                    }
                    continue;
                }
                for (std::size_t j = jj; j < jj + jn; ++j) {
                    for (std::size_t i = ii; i < ii + in; ++i) {
                        expectDot(want, chunk(i), addressOf(&b(kk, j)), kb);
                        want.push_back(loadOf(addressOf(&c(i, j))));
                        want.push_back(storeOf(addressOf(&c(i, j))));
                        instr += dotInstructions(kb);
                    }
                }
            }
        }
    }
    ASSERT_EQ(got, want);
    EXPECT_EQ(model.instructionsIn(kMatmulTiledTransposed), instr);
}

TEST(MatmulReferenceStream, TiledTransposedLoadsPairsInOrder)
{
    // l1 = 16 KiB gives a panel of min(170, l2 / 16n, n) >= n rows for
    // every n here, so each dot product runs the full length; l1 =
    // 768 bytes pins the panel at 8 rows, so n > 8 adds a second and
    // shorter k-panel at kk > 0.
    struct Case
    {
        std::size_t l1;
        std::size_t bk;
    };
    for (const Case tc : {Case{16 * 1024, kOracleMaxN}, Case{768, 8}}) {
        for (std::size_t n = 1; n <= kOracleMaxN; ++n) {
            SCOPED_TRACE(testing::Message() << "l1 " << tc.l1 << " n "
                                            << n);
            Matrix a(n, n), b(n, n), c(n, n);
            randomize(a, 1);
            randomize(b, 2);
            RecordingModel model;
            matmulTiledTransposed(a, b, c, model, tc.l1, 128 * 1024);
            expectTiledTransposed(model, b, c, tc.bk);
        }
    }
}

TEST(MatmulTraced, TracedResultsMatchNative)
{
    const std::size_t n = 24;
    Matrix a(n, n), b(n, n);
    randomize(a, 1);
    randomize(b, 2);

    Matrix c_native(n, n);
    NativeModel nm;
    matmulTransposed(a, b, c_native, nm);

    lsched::cachesim::Hierarchy h(
        lsched::machine::scaled(lsched::machine::powerIndigo2R8000(), 64)
            .caches);
    SimModel sm(h);
    Matrix c_traced(n, n);
    matmulTransposed(a, b, c_traced, sm);
    EXPECT_EQ(c_traced.maxAbsDiff(c_native), 0.0);
    EXPECT_GT(h.dataRefs(), 2 * n * n * n);
}

TEST(MatmulTraced, InterchangedReferenceCountsMatchModel)
{
    // Per paper Section 4.2: the untiled interchanged inner iteration
    // performs 2 loads + 1 store and 5 instructions per madd.
    const std::size_t n = 16;
    Matrix a(n, n), b(n, n), c(n, n);
    randomize(a, 1);
    randomize(b, 2);
    lsched::cachesim::Hierarchy h(
        lsched::machine::powerIndigo2R8000().caches);
    SimModel sm(h);
    matmulInterchanged(a, b, c, sm);
    const std::uint64_t madds = n * n * n;
    // zero: n^2 stores; B: n^2 loads; inner: 3 per madd.
    EXPECT_EQ(h.dataRefs(), 3 * madds + 2 * n * n);
    EXPECT_GT(h.ifetches(), 5 * madds);
    EXPECT_LT(h.ifetches(), 6 * madds + 10 * n * n);
}

TEST(MatmulTraced, ThreadedUsesExpectedBinCount)
{
    // Paper Section 4.2 (scaled): with block = L2/2 the threads must
    // spread over roughly (2 * matrix_bytes / L2)^2 bins.
    const std::size_t n = 64; // 32 KB per matrix
    Matrix a(n, n), b(n, n), c(n, n);
    randomize(a, 1);
    randomize(b, 2);
    const auto machine =
        lsched::machine::scaled(lsched::machine::powerIndigo2R8000(),
                                128); // L2 = 16 KB
    lsched::threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = machine.l2Size();
    cfg.blockBytes = machine.l2Size() / 2; // 8 KB
    lsched::threads::LocalityScheduler sched(cfg);
    NativeModel m;
    matmulThreaded(a, b, c, sched, m);
    // 32 KB of columns per matrix / 8 KB blocks = 4 blocks per axis,
    // 16 bins (allow one extra per axis for allocator offsets).
    EXPECT_GE(sched.binCount(), 16u);
    EXPECT_LE(sched.binCount(), 25u);
}

} // namespace
