"""Signed-path suprema on trees, with and without offsets.

A function class decorated onto a depth-n binary tree has a signed-path
supremum (enumerated exactly below depth 12, sampled beyond). Subtracting a
second-moment penalty turns it into an offset supremum whose expectation
stays bounded by a small constant; those bounded expectations are exactly
what make the adaptive rates of the catalog achievable.
"""

import math

from regretlab import (
    FunctionTable,
    OffsetForm,
    RngSpec,
    covering_number,
    dudley_integral,
    offset_expectation,
)

gen = RngSpec(seed=3).generator()
depth, g = 10, 6
table = FunctionTable(gen.uniform(-1.0, 1.0, (g, 2 ** depth - 1)))
print(f"class of {g} functions on a depth-{depth} tree ({2 ** depth} sign paths)\n")

exact = offset_expectation(table, OffsetForm("none"))
est, se = offset_expectation(table, OffsetForm("none"), mode="mc", rng=RngSpec(seed=4),
                             replicates=20000)
print(f"signed-path supremum: exact {exact:.4f}, monte carlo {est:.4f} +- {se:.4f}")

print("\ninternal covering numbers (candidates drawn from the class itself):")
for alpha in (1.5, 0.8, 0.4, 0.2, 0.05):
    n2 = covering_number(table, alpha, "l2")
    ninf = covering_number(table, alpha, "linf")
    print(f"  scale {alpha:4.2f}:  l2 cover {n2}   linf cover {ninf}")

print("\nentropy integral grows with the scale ceiling:")
for gamma in (0.2, 0.5, 1.0):
    print(f"  up to {gamma:3.1f}: {dudley_integral(table, gamma, depth):7.3f}")

print("\noffset suprema: penalties flip the expectation negative")
print(f"  no offset          {offset_expectation(table, OffsetForm('none')):9.3f}")
for alpha in (0.1, 0.5):
    val = offset_expectation(table, OffsetForm("quadratic", alpha=alpha))
    print(f"  quadratic a={alpha:3.1f}    {val:9.3f}")
fc = offset_expectation(table, OffsetForm("finite_class_penalty"))
print(f"  finite-class form  {fc:9.3f}   (always <= 1)")
ch = offset_expectation(table, OffsetForm("chained_penalty"))
print(f"  chained form       {ch:9.3f}   (always <= 7 + 2 log n = {7 + 2 * math.log(depth):.2f})")
