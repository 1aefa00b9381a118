"""Walkthrough: counting box points against the closed-form predictor.

Gamma(lambda S) is the set of group points n_1 gamma_1 + ... + n_l gamma_l
with |n_j| < lambda S_j — points, not tuples: dependent generators are
collapsed through the relation lattice.  The predictor
N_{H',H''}(S) = prod S_j^(double rank jump) matches the true coset counts up
to constants, and scaling the box by lambda scales the count like
lambda^rank.  Both facts are checked here with exact rationals.

Run:  python3 demos/03_box_counting.py
"""

from fractions import Fraction

import slopechain as sc

model = sc.build_model(sc.ModelConfig(
    n=2, generators=((1, 0), (0, 1)), scales=("9", "5"),
))
omega = sc.enumerate_gamma(model)
print("Card Gamma(S) =", len(omega), " (box (2*9-1)(2*5-1) =", 17 * 9, ")")

full, zero = model.full_subgroup(), model.zero_subgroup()
diag = sc.closure(model, [(1, 1)])
x_axis = sc.closure(model, [(1, 0)])

for name, hp, hdp in [
    ("G mod 0", full, zero),
    ("diagonal mod 0", diag, zero),
    ("G mod x-axis", full, x_axis),
]:
    report = sc.counting_check(model, hp, hdp, ("1", "2", "4"))
    lo, hi = report.ratio_bounds
    print(f"\n{name}:")
    print(f"  N formula = {report.n_formula_value}, count = {report.raw_count},"
          f" ratio = {report.ratio}")
    print(f"  lambda sweep: {[(str(l), c) for l, c, _ in report.sweep]}")
    print(f"  growth exponent ~ {report.fitted_exponent:.3f}"
          f" (exact rank {report.rank}); ratio bracket [{lo}, {hi}]")

# Dependent generators: 9 coefficient tuples fold onto 7 points.
dep = sc.build_model(sc.ModelConfig(n=1, generators=((1,), (2,)), scales=("2", "2")))
dep_omega = sc.enumerate_gamma(dep)
print("\ndependent generators (1) and (2), S = (2,2):",
      sorted(p[0] for p in dep_omega.points))

# Sum and difference sets of exactly two elements.
sums = sc.combine(dep, dep_omega, 2, "sumset")
diffs = sc.combine(dep, dep_omega, 2, "diffset")
print("sumset of two elements:", sorted(p[0] for p in sums))
print("difference set size:", len(diffs))

# Distribution against the chain: counts of the doubled box in candidate
# subgroups, relative to the step sizes frak_S, must stay inside a fixed
# multiplicative bracket when S is squared.
chain = sc.build_chain(model)
dist = sc.distribution_checks(model, chain, Fraction(1, 2), height=1)
print("\ndistribution bracket", dist.bracket, "held:", dist.bracket_ok)
for i, entries in dist.upper[1].items():
    shown = [(list(e.candidate), e.count) for e in entries[:3]]
    print(f"  step {i}: {len(entries)} candidates above H_{i}, first counts {shown}")
