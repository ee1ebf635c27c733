"""Evaluate period classes at exact comparison points.

A comparison point is a unit u of the algebra with coordinates in a
number field L; evaluating a coefficient matrix C gives tr(rho(u) C)
in L.  The interesting question is whether evaluation is injective on
the period quotient.  At u = 1 it is not, and each kernel vector is
labelled realized when it pairs to zero with every path; at a generic
point over a cubic field the kernel on the quotient vanishes.
"""

from qperiods import zoo
from qperiods.exactlin import NumberField
from qperiods.periods import ComparisonPoint, eval_and_conjecture

m = zoo.get_module("a2/p1")

# u = 1 over plain Q: coordinates 1 on the idempotents, 0 on the arrow
rationals = NumberField([0, 1])
one = ComparisonPoint(rationals, tuple(
    rationals.one() if not arrows else rationals.zero()
    for _, arrows in m.algebra.basis))
rep = eval_and_conjecture(m, one)
print(f"u = 1: verdict {rep.verdict!r}")
print(f"  kernel on the quotient: {len(rep.quotient_kernel.vectors)}")
for status in rep.statuses:
    print(f"  kernel vector -> {status}")
assert rep.verdict == "fails"

# a generic point over Q[x]/(x^3 - 2)
cubic = NumberField([-2, 0, 0, 1])
gen = cubic.gen()
point = ComparisonPoint(cubic, (cubic.one(), gen, gen * gen))
rep = eval_and_conjecture(m, point)
print(f"generic cubic u: verdict {rep.verdict!r}")
print(f"  kernel on the quotient: {len(rep.quotient_kernel.vectors)}")
print("  values:", [str(v) for v in rep.values])
assert rep.verdict == "holds"
