/**
 * @file
 * Domain example 4: the full context of the paper's PDE experiment —
 * a geometric multigrid Poisson solver whose red-black smoother is
 * decomposed into locality-scheduled line-pair threads (Section 4.3
 * says the relaxation kernel "is meant to be nested inside a
 * multigrid partial differential equation solver").
 *
 * Run:  ./examples/multigrid_solver [--n=255] [--cycles=10]
 *       (n must be 2^k - 1)
 */

#include <cstdio>

#include "support/align.hh"
#include "support/cli.hh"
#include "support/prng.hh"
#include "support/timer.hh"
#include "workloads/multigrid.hh"

int
main(int argc, char **argv)
{
    using namespace lsched;
    using namespace lsched::workloads;

    Cli cli("multigrid_solver",
            "multigrid Poisson solver with a locality-scheduled "
            "red-black smoother");
    cli.addInt("n", 255, "grid points per side (2^k - 1)", 1);
    cli.addInt("cycles", 10, "V-cycles", 1);
    cli.parse(argc, argv);

    const auto n = static_cast<std::size_t>(cli.getInt("n"));
    if (!isPowerOfTwo(n + 1))
        cli.usageError("--n must be 2^k - 1 (3, 7, 15, ..., 255, ...)");
    const auto cycles = static_cast<unsigned>(cli.getInt("cycles"));

    MultigridConfig cfg;
    cfg.threaded = true; // locality-scheduled smoothing threads

    MultigridSolver solver(n, cfg);
    std::printf("multigrid_solver: %zu x %zu Poisson problem, %zu "
                "levels, threaded red-black smoother\n\n",
                n, n, solver.levelCount());

    // A deterministic random right-hand side.
    Prng prng(2718);
    Matrix &b = solver.rhs();
    for (std::size_t j = 1; j <= solver.n(); ++j)
        for (std::size_t i = 1; i <= solver.n(); ++i)
            b(i, j) = prng.nextDouble(-1.0, 1.0);

    double previous = solver.residualNorm();
    std::printf("initial residual: %.6e\n", previous);
    for (unsigned c = 1; c <= cycles; ++c) {
        WallTimer timer;
        const double r = solver.vcycle();
        std::printf("V-cycle %2u: residual %.6e  (contraction %.3f, "
                    "%.3f s)\n",
                    c, r, r / previous, timer.seconds());
        previous = r;
        if (r < 1e-12)
            break;
    }

    std::printf("\nsolution sample: u[n/2, n/2] = %.9f\n",
                solver.solution()(n / 2, n / 2));
    std::printf("a contraction factor well below 1 per cycle is the "
                "multigrid signature; the smoother inside is the "
                "paper's threaded red-black kernel\n");
    return 0;
}
