"""Walkthrough: symbolic coordinates make group rank beat linear algebra.

Coordinates may be rational combinations of formal symbols t1..tm standing
for algebraically independent transcendentals.  The point (tau, 0) lies on
the same complex line as (1, 0), yet the two points are independent over Q,
so the x-axis carries a subgroup of rank 2 sitting inside dimension 1.  That
is exactly the mechanism that pushes mu* above rank/dimension.

Run:  python3 demos/02_symbolic_transcendence.py
"""

import slopechain as sc

model = sc.build_model(sc.ModelConfig(
    n=2,
    generators=(
        ("1", "0"),
        ({"const": "0", "coeffs": {"t1": "1"}}, "0"),   # (tau, 0)
    ),
    scales=("5", "5"),
    symbols=("tau",),
))
print("generators:", model.generators)

x_axis = sc.closure(model, [(1, 0)])
profile = sc.rank_profile(model, x_axis)
print("\nclosure of the first generator:")
print("  dimension:", x_axis.dim)
print("  coefficient lattice:", [list(r) for r in x_axis.coeff.rows],
      " (both generators live on the line)")
print("  rank profile:", profile.gamma_ranks, " -> rank 2 in dimension 1")

chain = sc.build_chain(model)
print("\nchain dims:", chain.dims())
print("frak_S values:", [f"{s.frak_s.radicand}^(1/{s.frak_s.root})" for s in chain.steps])

report = sc.mu_exponents(model)
print("mu* =", report.mu_star, "(= 2: twice the generic density)",
      "| mu =", report.mu, "(nothing left for the quotient)")

# The certificate enumerates every closure of a height-3 sublattice; in this
# model they all collapse onto the x-axis, so the check is quick and total.
cert = sc.verify_chain(model, chain, sc.VerifyOptions(height=3))
print("certificate candidates:", cert.candidates_checked, "all on or below the polygon")

# Substituting a concrete rational for tau produces a rational model for the
# jet lab; a seeded draw picks large-height values to keep ranks honest.
flat = sc.specialize(model, {"tau": "22/7"})
print("\nspecialized generators:", flat.generators)
seeded = sc.specialize(model, seed=424242)
print("seeded specialization:", seeded.provenance["specialized"])

# Same seed, same model: the bridge to numeric experiments is reproducible.
assert sc.specialize(model, seed=424242).generators == seeded.generators
