"""Walkthrough: the canonical subgroup chain of a rational model.

A model is the vector group Q^n with marked generators and box scales
S_1 >= ... >= S_l >= 1.  Each connected subgroup K gets the weighted rank
value phi(K) = sum_j (rank jump of Gamma_j in K) * log S_j, and the chain
{0} = H_0 < H_1 < ... < H_r = G is the unique tower whose successive slopes
(phi jump / dimension jump) strictly decrease and dominate every other
subgroup.  Everything below is exact: phi values are integer exponent
vectors, slopes compare via rational power products, and the per-step sizes
frak_S_i are roots of exact rationals.

Run:  python3 demos/01_chains_and_slopes.py
"""

import slopechain as sc

# Two independent generators with very different box sizes: the x-axis soaks
# up the big box, so it becomes an intermediate chain step.
model = sc.build_model(sc.ModelConfig(
    n=2,
    generators=((1, 0), (0, 1)),
    scales=("100", "10"),
))
chain = sc.build_chain(model)

print("model:", model)
print("chain dimensions:", chain.dims())
for i, step in enumerate(chain.steps):
    f = step.frak_s
    print(f"  step {i}: frak_S = {f.radicand}^(1/{f.root})  ~ {f.approx():.3f}")

print("\npolygon vertices (dim, phi displayed, exact exponents):")
for dim, approx, exps in sc.polygon_rows(model, chain):
    print(f"  dim {dim}: phi ~ {approx:.4f}   exponents {exps}")

# The subgroups do not move when every scale is raised to a power: only the
# exponent vectors get scaled.
squared = sc.build_chain(model.powered(2))
assert [s.coeff.rows for s in squared.subgroups] == [s.coeff.rows for s in chain.subgroups]
print("\nscale squaring keeps the chain; radicands square:",
      [str(s.frak_s.radicand) for s in squared.steps])

# The certificate re-derives the chain's optimality from scratch: every
# closure of a small-height sublattice must sit on or below the polygon.
cert = sc.verify_chain(model, chain, sc.VerifyOptions(height=2, random_count=10))
print(f"\ncertificate: {cert.candidates_checked} candidate subgroups checked,")
print("  equality cases met:", len(cert.equality_witnesses),
      "| telescoping:", cert.telescoping_ok)

# mu exponents live on the equal-scale chain (scale-free by invariance).
report = sc.mu_exponents(model)
print("\nmu =", report.mu, " mu* =", report.mu_star,
      " well distributed:", report.well_distributed)

# A single diagonal generator in the plane: the diagonal line is the first
# chain step and the quotient direction carries nothing.
diag_model = sc.build_model(sc.ModelConfig(n=2, generators=((1, 1),), scales=("7",)))
diag_chain = sc.build_chain(diag_model)
diag_mu = sc.mu_exponents(diag_model)
print("\ndiagonal model chain dims:", diag_chain.dims(),
      "| mu list:", [str(x) for x in diag_mu.mu_list])
