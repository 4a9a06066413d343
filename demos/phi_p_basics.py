"""Tour of the phi_p machinery on small chains.

Builds a few classic chains, prints their phi_p profiles, and compares the
exact enumerated minimum with the spectral sweep cut and its guarantee.
"""

import math

from isoperim import (
    ChainAnalysis,
    chain_from_graph,
    cycle_graph,
    dumbbell_graph,
    hypercube_graph,
    lazy_transform,
    phi_p_of_set,
    phi_profile,
)


def show_chain(name, chain, ps=(0.0, 0.5, 1.0)):
    # one store per chain: one eigensolve, one enumeration and one sweep
    # serve every exponent
    a = ChainAnalysis(chain, ps, ps)
    cert = a.cert(False)
    print(f"\n{name}: n={chain.n}, lambda2 = {cert.lambda2:.6f}")
    for p in ps:
        exact = a.exact(p)
        sweep = a.sweep(p)
        line = (
            f"  p={p:<4} exact phi_p = {exact.phi:.6f} at S={exact.subset}"
            f"   sweep = {sweep.phi:.6f} at S={sweep.subset}"
        )
        if p > 0.5:
            line += f"   guarantee 2*sqrt(lam/(2p-1)) = {2 * math.sqrt(cert.lambda2 / (2 * p - 1)):.6f}"
        print(line)


def main():
    show_chain("6-cycle", chain_from_graph(cycle_graph(6)))
    show_chain("hypercube Q_3", chain_from_graph(hypercube_graph(3)))
    show_chain("dumbbell 2xK_4", chain_from_graph(dumbbell_graph(4)))

    print("\nProfile of one set (phi_0 >= phi_half >= phi_1, Cauchy-Schwarz in between):")
    q3 = chain_from_graph(hypercube_graph(3))
    dictator = [0, 1, 2, 3]
    prof = phi_profile(q3, dictator)
    print(f"  dictator cut on Q_3: phi_0={prof.phi0:.4f}  phi_half={prof.phi_half:.4f}  phi_1={prof.phi1:.4f}")
    print(f"  phi_half^2 = {prof.phi_half**2:.4f} <= phi_0*phi_1 = {prof.phi0 * prof.phi1:.4f}")

    print("\nLazy transform scaling, P -> (1-d) I + d P:")
    c = chain_from_graph(cycle_graph(6))
    base = phi_p_of_set(c, [0, 1, 2], 0.5).phi
    for delta in (0.9, 0.5, 0.1):
        lazy = lazy_transform(c, delta)
        val = phi_p_of_set(lazy, [0, 1, 2], 0.5).phi
        print(f"  delta={delta}: phi_half(arc) = {val:.6f} = delta^0.5 * {base:.6f}")
    print("  ... so phi_p scales by delta^p while lambda2 scales by delta:")
    print("  the ratio phi_half/sqrt(lambda2) is the lazy-invariant quantity.")


if __name__ == "__main__":
    main()
