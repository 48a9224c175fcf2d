"""Representations of L_2 on weighted sequence spaces, truncated to
finite levels.

Two spatial models: the interval picture (step functions on [0,1],
s_j squeezes into the j-th subinterval) and the coordinate picture
(s_j delta_n = delta_{2(n-1)+j}).  Truncated operator norms increase
with the level and converge to the norm in the completed algebra; the
two models agree exactly on degree-0 elements at every level and agree
in the limit on everything else.
"""

import numpy as np

import lpcuntz as lp

K = lp.leavitt(2)
p = 3.0
interval = lp.interval_rep(2, p)
sequence = lp.sequence_rep(2, p)

print("generator matrices at level 0 -> 1 (interval picture):")
print("  s1:", np.round(interval.generator_operator("s", 1, 0).entries.real.ravel(), 4))
print("  s2:", np.round(interval.generator_operator("s", 2, 0).entries.real.ravel(), 4))

print("\ndefining relations hold at every level; residual over levels <= 4:")
print("  interval:", lp.check_relations(interval, 4))
print("  sequence:", lp.check_relations(sequence, 4))

a = lp.parse_element("s1 + t1", K)
print(f"\ntruncated norm lower bounds for {lp.format_element(a)!r}:")
seq = lp.norm_sequence(sequence, a, 5)
for level, res in zip(seq.levels, seq.results):
    print(f"  level {level}: {res.estimate:.10f}")
step = seq.values[-1] - seq.values[-2]
print(f"  nondecreasing by construction (each level also starts from the lifted")
print(f"  witness of the level below); last two levels differ by {step:.1e}")

print("\ndegree-0 elements: the norm is exact from level 2 on and agrees")
print("with the plain matrix p-norm of the coefficient table,")
print("under both models:")
b = lp.normal_form(lp.parse_element("s11*t12 + 2*s12*t21 - s21*t11", K))
ws = lp.words(2, 2)
M = np.array([[b.coefficient(al, be).to_complex() for be in ws] for al in ws])
coeff_space = lp.FiniteMeasureSpace(range(4), [1.0] * 4)
ref = lp.power_estimate(lp.OperatorMatrix(coeff_space, coeff_space, p, M)).estimate
for rep in (interval, sequence):
    vals = [
        lp.power_estimate(lp.evaluate(rep, b, n)).estimate for n in (2, 3, 4)
    ]
    print(f"  {rep.label:16s}: {[round(v, 10) for v in vals]}")
print(f"  coefficient matrix norm: {ref:.10f}")

print("\nspatial norm identities (exact isometries of the truncation):")
rng = np.random.default_rng(0)
lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
xi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
s_ops = {j: sequence.generator_operator("s", j, 3) for j in (1, 2)}
out = sum(complex(lam[j - 1]) * s_ops[j].apply(xi) for j in (1, 2))
print("  ||s_lambda xi|| =", round(lp.vector_norm(sequence.space(4), out, p), 10))
print("  ||lambda||_p ||xi||_p =", round(
    lp.lp_norm(lam, p) * lp.vector_norm(sequence.space(3), xi, p), 10))

print("\nthe spatiality report certifies the representation class:")
report = lp.spatiality_report(sequence, depth=2, seed=0, samples=20)
print(report.summary())
