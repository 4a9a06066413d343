"""Second eigenvalues and cuts for non-reversible chains.

A directed chain has a complex spectrum, so the certificates come from
Chung's symmetric Laplacian I - (Pi^{1/2} P Pi^{-1/2} + transpose)/2 instead.
The demo checks the directed Cheeger pair phi_1^2/2 <= lambda2 <= 2 phi_1 and
the phi_p bound on random strongly connected chains, and shows that for a
reversible input one eigenpair serves both certificates: its residual is
small against I - S as against Chung's Laplacian.
"""

from isoperim import (
    ChainAnalysis,
    WeightedGraph,
    bound_suite,
    chain_from_graph,
    cycle_graph,
    random_directed_graph,
)


def main():
    ring = chain_from_graph(
        WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), directed=True)
    )
    a = ChainAnalysis(ring)
    cert = a.cert(True)
    print(f"directed 3-cycle: pi = {ring.pi.round(4)}, lambda2(Chung) = {cert.lambda2:.4f}")
    lines = {r.name: r for r in bound_suite(a, None, [])}
    lower, upper = lines["chung:lower"], lines["chung:upper"]
    print(f"  {lower.name}: {lower.lhs:.4f} <= {lower.rhs:.4f}  holds={lower.holds}")
    print(f"  {upper.name}: {upper.lhs:.4f} <= {upper.rhs:.4f}  holds={upper.holds}")

    print("\nrandom strongly connected chains:")
    for seed in range(4):
        a = ChainAnalysis(chain_from_graph(random_directed_graph(7, density=0.4, seed=seed)))
        cert = a.cert(True)
        rep = {r.name: r for r in bound_suite(a, None, [0.75])}["phi_p_squared[p=0.75]:directed"]
        sw = a.sweep(0.75)  # the level sets of Chung's certificate
        print(
            f"  seed={seed}: lambda2={cert.lambda2:.4f}  phi_.75^2={rep.lhs:.4f} <= {rep.rhs:.4f}"
            f"  holds={rep.holds}  sweep set={sw.subset} phi={sw.phi:.4f}"
        )

    a = ChainAnalysis(chain_from_graph(cycle_graph(5)))
    rev, chung = a.cert(False), a.cert(True)
    print(
        f"\nreversible input: one eigenpair, lambda2 = {chung.lambda2:.12f}, serves both certificates;"
        f" residual against I - S = {rev.residual:.1e}, against Chung's L = {chung.residual:.1e}"
    )


if __name__ == "__main__":
    main()
