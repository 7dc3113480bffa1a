/**
 * @file
 * Quickstart: the paper's three-call interface on its own running
 * example (Section 2.1) — a matrix multiply where each dot product is
 * a fine-grained thread hinted with the two column addresses it
 * reads.
 *
 *   th_init(blocksize, hashsize);   // 0 = defaults
 *   th_fork(f, arg1, arg2, h1, h2, h3);
 *   th_run(keep);
 *
 * Build and run:  ./examples/quickstart --n=256
 * Add --trace=run.json to capture a Perfetto-loadable timeline or
 * --metrics=run.txt for the scheduler counters (built-in Cli options).
 */

#include <cstdio>
#include <cstdlib>

#include "support/cli.hh"
#include "threads/c_api.hh"
#include "workloads/matmul.hh"

namespace
{

using lsched::workloads::Matrix;

struct Problem
{
    const Matrix *at; // A transposed: column i = row i of A
    const Matrix *b;
    Matrix *c;
};

/** One fine-grained thread: C[i,j] = dot(At[:,i], B[:,j]). */
void
dotProduct(void *problem_p, void *ij_p)
{
    auto *p = static_cast<Problem *>(problem_p);
    const auto packed = reinterpret_cast<std::uintptr_t>(ij_p);
    const std::size_t i = packed >> 16;
    const std::size_t j = packed & 0xffff;
    const std::size_t n = p->at->rows();
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k)
        sum += (*p->at)(k, i) * (*p->b)(k, j);
    (*p->c)(i, j) = sum;
}

} // namespace

int
main(int argc, char **argv)
{
    lsched::Cli cli("quickstart",
                    "the paper's th_init/th_fork/th_run interface on "
                    "its matrix-multiply running example");
    cli.addInt("n", 256, "matrix dimension", 1);
    cli.parse(argc, argv);
    const std::size_t n = static_cast<std::size_t>(cli.getInt("n"));
    if (n > 0xffff) // dotProduct packs (i, j) into 16 bits each
        cli.usageError("--n must be at most 65535");

    Matrix a(n, n), b(n, n), c(n, n), at(n, n);
    lsched::workloads::randomize(a, 1);
    lsched::workloads::randomize(b, 2);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < n; ++k)
            at(k, i) = a(i, k);

    // Configure the scheduler: default block size (cache/k) and hash
    // table, exactly like the paper's th_init(0, 0).
    th_init(0, 0);

    // Fork one thread per dot product. The hints are the addresses of
    // the two vectors the thread will read.
    Problem problem{&at, &b, &c};
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            th_fork(&dotProduct, &problem,
                    reinterpret_cast<void *>((i << 16) | j),
                    at.col(i), b.col(j), nullptr);
        }
    }

    // Run all threads, bins in creation order.
    th_run(0);

    // Show how the scheduler clustered the work, via the named
    // metric surface (th_stats() still works, but its struct is
    // frozen — new telemetry only appears here).
    unsigned long long executed = 0, bins = 0;
    th_metric_get("sched.executed_threads", &executed);
    th_metric_get("sched.bins", &bins);
    std::printf("quickstart: C = A * B with %zu x %zu fine-grained "
                "threads\n",
                n, n);
    std::printf("  threads executed : %llu\n", executed);
    std::printf("  bins used        : %llu\n", bins);
    std::printf("  spot check       : C[0,0] = %.6f\n", c(0, 0));

    // Verify against a plain triple loop.
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double sum = 0;
            for (std::size_t k = 0; k < n; ++k)
                sum += a(i, k) * b(k, j);
            worst = std::max(worst, std::abs(sum - c(i, j)));
        }
    }
    std::printf("  max |error|      : %.3g  (%s)\n", worst,
                worst < 1e-9 ? "OK" : "FAILED");
    return worst < 1e-9 ? 0 : 1;
}
