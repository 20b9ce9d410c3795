"""Kraus operator extraction through the Choi matrix.

Factors the Choi matrix as R^* R with R upper triangular, reshapes the
nonzero rows of R into operators, and verifies that the resulting set
reproduces the channel and satisfies the completeness identity
sum_i K_i K_i^* = I. Rank-deficient boundary channels yield fewer than
n^2 operators. The same factor comes straight from the channel's
coefficient blocks, without the n^2 x n^2 Choi matrix.
"""

import numpy as np

from diagchan import (
    ChannelFamily,
    DiagonalChannel,
    family_parameter_range,
    kraus_from_channel,
    kraus_from_choi,
    reconstruction_residual,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

print("Fully depolarizing two-level channel: four single-entry operators.")
ch = DiagonalChannel.from_family(ChannelFamily.DEPOLARIZING, 2, 0.0)
ks = kraus_from_choi(ch.choi())
for idx, op in enumerate(ks):
    print(f"  K{idx + 1} =", op.real.tolist())
print(f"  completeness residual: {ks.completeness_residual():.2e}")

print("\nIdentity channel: the Choi matrix has rank one, one operator survives.")
ch = DiagonalChannel(3, np.ones(9))
ks = kraus_from_choi(ch.choi())
print(f"  operators: {len(ks)} (source row {ks.source_rows[0]})")
print(ks.operators[0].real)

print("\nResiduals across all families, n = 2..5, at interval midpoints:")
for family in ChannelFamily:
    for n in (2, 3, 4, 5):
        lo, hi = family_parameter_range(family, n)
        ch = DiagonalChannel.from_family(family, n, (lo + hi) / 2)
        ks = kraus_from_choi(ch.choi())
        rec = reconstruction_residual(ks, ch)
        comp = ks.completeness_residual()
        print(f"  {family.value:42s} n={n}  ops={len(ks):2d}  "
              f"reconstruction={rec:.1e}  completeness={comp:.1e}")

print("\nBoundary channels lose Choi rank; zero factor rows drop out:")
for family in ChannelFamily:
    lo, hi = family_parameter_range(family, 3)
    for p in (lo, hi):
        ch = DiagonalChannel.from_family(family, 3, p)
        ks = kraus_from_choi(ch.choi())
        print(f"  {family.value:42s} p={p:+.4f}  operators={len(ks)}/9")

print("\nFrom the coefficient blocks, without building the Choi matrix:")
ch = DiagonalChannel.from_family(ChannelFamily.TRANSPOSE_DEPOLARIZING, 6, 0.1)
ks, via_choi = kraus_from_channel(ch), kraus_from_choi(ch.choi())
same = ks.source_rows == via_choi.source_rows and all(
    np.array_equal(a, b) for a, b in zip(ks, via_choi))
print(f"  n=6: {len(ks)} operators, identical to the Choi route: {same}")
