"""Tour of the exact moment-functional toolbox.

A moment functional is just the list of its moments; every transform here
is an exact operation on that list.  We multiply by polynomials
(Christoffel), divide back (Geronimus), attach point masses, and recover
orthogonal polynomials from the moments -- all over the rationals.
"""
from __future__ import annotations

from fractions import Fraction

from qkrall import (MeixnerParams, NotQuasiDefinite, Poly, add, agree_up_to,
                    christoffel, geronimus, hankel_orthogonal,
                    meixner_moments, point_mass, rational_str)

F = Fraction
params = MeixnerParams(F(2, 5), F(1, 3), F(3, 2))
mu = meixner_moments(params)

print("base functional, first moments:",
      ", ".join(rational_str(mu.moment(n)) for n in range(5)))

# multiply by (x - 1/4), then divide again: the round trip is exact once
# the one free constant of the division is matched
lam = F(1, 4)
nu = christoffel(mu, Poly((-lam, 1)))
back = geronimus(nu, lam, 1, mu.moment(0))
print("Christoffel then Geronimus returns the original:",
      agree_up_to(back, mu, 20) is None)

# gluing a point mass changes every moment by mass * lam^n
withmass = add(mu, point_mass(lam, 0, F(7, 2)))
print("after adding (7/2) delta at 1/4:",
      ", ".join(rational_str(withmass.moment(n)) for n in range(4)))

# monic orthogonal polynomials straight from the moments: each pi_k is paired
# with the functional and stepped by the three-term recurrence
gd = hankel_orthogonal(mu, 4)
print("\nmonic orthogonal polynomials from the moments:")
for n, p in enumerate(gd.polys):
    print(f"  pi_{n} = {p.pretty()}")
print("squared norms:", ", ".join(rational_str(v) for v in gd.norms))

# a two-point functional supports exactly two orthogonal degrees; the
# failure is reported with the index of the vanishing determinant
two_point = add(point_mass(1), point_mass(-1))
try:
    hankel_orthogonal(two_point, 4)
except NotQuasiDefinite as exc:
    print(f"\ntwo-point functional: quasi-definiteness fails at "
          f"Hankel index {exc.n} (as it must)")
