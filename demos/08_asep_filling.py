"""The ASEP-side weight: label every empty box with u or q (u left of a
beta, q left of a delta, otherwise by the nearest symbol below: u above an
alpha/delta, q above a beta/gamma) in one sweep from the bottom row up that
also checks the tableau's rules, and sum the degree-n(n+1)/2 monomials into
the six-variable generating function."""

from fractions import Fraction as F

from staircase_tableaux import (
    Symbol,
    Tableau,
    fill_uq,
    render_filled,
    render_text,
    wtx,
    z_full,
)

A, B, G, D = Symbol.ALPHA, Symbol.BETA, Symbol.GAMMA, Symbol.DELTA

t = Tableau.of(8, [
    (1, 2, A), (1, 8, G),
    (2, 2, B), (2, 5, A), (2, 7, G),
    (3, 3, A), (3, 6, G),
    (4, 5, D),
    (5, 2, D), (5, 4, A),
    (6, 3, D),
    (7, 2, B),
    (8, 1, A),
])

print("bare tableau:")
print(render_text(t))
print()
print("filled with u/q labels:")
print(render_filled(fill_uq(t)))
print()

na, nb, ng, nd, nu, nq = wtx(t)
print(f"filled weight: alpha^{na} beta^{nb} gamma^{ng} delta^{nd} u^{nu} q^{nq}")
print(f"total degree {na+nb+ng+nd+nu+nq} = n(n+1)/2 = {8*9//2}")
print()

print("six-variable generating function by enumeration:")
print("  Z_3(1,1,1,1,1,1) =", z_full(3, 1, 1, 1, 1, 1, 1), "(= 4^3 3!)")
print("  Z_3(1,1,1,1,q=2,u=1/2) =", z_full(3, 1, 1, 1, 1, 2, F(1, 2)))
print("  setting q = u = 1 always recovers the simple product form")
