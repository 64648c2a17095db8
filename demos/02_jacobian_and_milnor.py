"""Jacobian ideals, truncated membership, and Milnor numbers."""

from fractions import Fraction

from lctlab import (
    IdealGens,
    check_milnor_inequality,
    ideal_D,
    ideal_power,
    jacobian_ideal,
    membership_truncated,
    milnor_number,
    parse_poly,
    quadratic_rank,
)

f = parse_poly("x^3 + y^3", 2)
J = jacobian_ideal(f)
print("f   =", f)
print("J_f =", J)

# The square of the Jacobian ideal, as explicit generators.
J2 = ideal_power(J, 2)
print("J_f^2 =", J2)

# Truncated ideal membership produces a checkable witness: series h_i with
# sum(h_i * gen_i) = target modulo m^N.
w = membership_truncated(parse_poly("x^2*y^2", 2), J2, 10)
print("\nx^2*y^2 in J_f^2?  witness coefficients:")
for gen, h in zip(J2.gens, w.coefficients):
    print("   ", h.poly, " * ", gen)
print("witness re-expands:", w.verify())

# The derived ideal adds all generator partials; on monomial ideals the
# result is pruned to its minimal monomials.
a = IdealGens(2, [parse_poly("x^3", 2), parse_poly("y^3", 2)])
print("\nD(a) for a = (x^3, y^3):", ideal_D(a))

# Milnor numbers by colength stabilization: the quotient dimension at
# increasing truncation orders becomes stationary, and stationary is final.
for text in ("x^2 + y^2", "x^2 + y^3", "x^3 + y^3", "x^4 + y^4"):
    print(f"mu({text}) =", milnor_number(parse_poly(text, 2)))

# Non-isolated singular loci are flagged, with a certificate, instead of looping.
print("mu(x^2*y^2) =", milnor_number(parse_poly("x^2*y^2", 2)))

# Quadratic rank of the degree-2 part, exact over the rationals.
print("\nrank of (x*y + y^3)_2 =", quadratic_rank(parse_poly("x*y + y^3", 2)))

# The minimal-exponent / Milnor-number inequality alpha^n mu >= (n/2)^n,
# with equality exactly for quadrics.
for n, d in ((2, 2), (2, 3), (3, 4)):
    vars_ = "+".join(f"x{i}^{d}" for i in range(1, n + 1))
    f = parse_poly(vars_, n)
    rep = check_milnor_inequality(f, Fraction(n, d))
    print(
        f"n={n} d={d}: alpha^n mu = {rep.value} >= {rep.bound}"
        + ("  (equality)" if rep.equality else "")
    )
