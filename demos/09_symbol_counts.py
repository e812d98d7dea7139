"""The symbol counts (N_alpha, N_beta): n independent step pairs, exact
moments as two harmonic sums, and the a log n growth of N_alpha."""

import math
from fractions import Fraction as F

from staircase_tableaux import dist_N_pairs, n_alpha_growth_check

n, a, b = 4, F(2, 3), F(7, 5)
law = dist_N_pairs(n, a, b)
print(f"(N_alpha, N_beta) at n={n}, a={a}, b={b}: step i is (1,0), (0,1) or (1,1)")
print("with chances b, a and i over a+b+i:")
for i, pd in enumerate(law.pairs):
    print(f"  step {i}:  {str(pd.p10):>6}  {str(pd.p01):>6}  {str(pd.p11):>6}")
alpha = law.alpha_law()
print("law of N_alpha:", {k: str(p) for k, p in zip(alpha.support(), alpha.probs)})
print()

# Step i leaves out its alpha with chance a/(a+b+i) and its beta with chance
# b/(a+b+i), so every moment is read off H1 and H2.
h1 = sum(1 / (a + b + i) for i in range(n))
h2 = sum(1 / (a + b + i) ** 2 for i in range(n))
print(f"H1 = sum 1/(a+b+i) = {h1},  H2 = sum 1/(a+b+i)^2 = {h2}")
for name, value, text, form in [
    ("E N_alpha", law.mean_alpha, "n - a H1", n - a * h1),
    ("Var N_alpha", law.var_alpha, "a H1 - a^2 H2", a * h1 - a * a * h2),
    ("E N_beta", law.mean_beta, "n - b H1", n - b * h1),
    ("Var N_beta", law.var_beta, "b H1 - b^2 H2", b * h1 - b * b * h2),
    ("Cov", law.cov, "-a b H2", -a * b * h2),
]:
    print(f"  {name:<11} = {str(value):>30}  {'==' if value == form else '!='} {text}")
print()

print("growth at a = b = 1: E N_alpha - (n - a log n) and Var N_alpha - a log n")
print("      n    mean deviation    variance deviation")
for row in n_alpha_growth_check([10, 100, 1000, 10000], 1, 1):
    print(f"  {row.n:5d}    {row.mean_deviation:+.6f}         {row.var_deviation:+.6f}")
gamma = 0.5772156649015329   # Euler's constant
print(f"(they settle at 1 - gamma = {1 - gamma:.6f} and gamma - pi^2/6 = {gamma - math.pi ** 2 / 6:.6f}:")
print(" both moments of the missing alphas grow like a log n)")
