"""Growth of phi_half / sqrt(lambda2) along the inverse-cube circulant family.

The family has lambda2 ~ log(n)/n^2 but phi_half ~ log(n)/n, so the ratio
rho = phi_half / sqrt(lambda2) grows like sqrt(log n): no inequality of the
form phi_half <= O(sqrt(lambda2)) can hold for reversible chains.

Small n uses exact enumeration to confirm the contiguous arc really is the
minimizer there; large n uses the analytic circulant eigenvalue and the
arc-restricted upper bound on phi_half.
"""

from isoperim import arc_phi_half, gen_ht_counterexample, normalizer, phi_p_exact, scaling_scan


def main():
    print("small n: exact minimum vs best arc (they coincide)")
    for n in (8, 12, 16):
        chain = gen_ht_counterexample(n)
        exact = phi_p_exact(chain, 0.5)
        arc = min(arc_phi_half(n, l) for l in range(1, n // 2 + 1))
        print(
            f"  n={n:3d}  C={normalizer(n):.4f}  exact phi_half={exact.phi:.6f} at S={exact.subset}"
            f"  arc min={arc:.6f}"
        )

    print("\nscaling scan (analytic lambda2, arc upper bound for phi_half):")
    header = f"{'n':>6} {'lambda2':>12} {'phi_half_arc':>13} {'rho':>8} {'lam*n^2/log n':>14} {'phi*n/log n':>12}"
    print(header)
    for r in scaling_scan([64, 128, 256, 512, 1024, 2048]):
        print(
            f"{r.n:>6} {r.lambda2:>12.4e} {r.phi_half_arc:>13.4e} {r.rho:>8.4f}"
            f" {r.lambda2_scaled:>14.4f} {r.phi_scaled:>12.4f}"
        )
    print("\nrho keeps climbing (like sqrt(log n)) while the scaled columns sit in constant bands.")


if __name__ == "__main__":
    main()
