"""Weighted staircase tableaux: exact computation, enumeration, sampling
and diagnostics.

A staircase tableau of size n is a Young diagram of shape (n, n-1, ..., 1)
with boxes empty or holding alpha/beta/gamma/delta, every diagonal box
filled, everything left of a beta/delta empty, and everything above an
alpha/gamma empty.  The package makes the combinatorics of weighted random
staircase tableaux executable:

- ``tableau``: the data model (validation, weights, subtableaux, the
  dagger symmetry, text rendering, JSON round trips);
- ``eulerian_poly``: the exact generalized Eulerian triangle v_{a,b}(n,k), its
  polynomials, c-table and classical specializations;
- ``enumeration``: brute-force generation of all tableaux of small size,
  exact partition functions and joint generating polynomials;
- ``sampling``: exact sequential sampler for the weighted laws, the
  four-symbol extension, and the equivalent Friedman urn;
- ``distributions``: exact laws and moments of the diagonal count A and
  the symbol counts, Bernoulli decompositions via root isolation,
  position formulas, and finite-n limit diagnostics;
- ``asep``: the deterministic u/q box filling and the six-variable
  generating function;
- ``cli``: the ``staircase-tableaux`` command exposing all of the above.
"""

from .tableau import (
    Symbol,
    Tableau,
    SymbolCounts,
    Violation,
    validate,
    counts,
    weight,
    weight_exponents,
    subtableau,
    dagger,
    render_text,
    serialize,
    parse,
)
from .eulerian_poly import (
    rising_factorial,
    EulerTriangle,
    v_triangle,
    v_row,
    BivarPoly,
    v_symbolic,
    p_eval,
    tilde_v,
    tilde_p_eval,
    p_at_one,
    CTable,
    c_table,
    eulerian,
)
from .enumeration import (
    enumerate_ab,
    enumerate_four,
    enumerate_naive,
    partition_function,
    law_ab,
    JointPoly,
    joint_poly_A_r,
    joint_poly_N,
    max_symbol_tableaux,
)
from .sampling import (
    INF,
    Params,
    sample_ab,
    sample_four,
    urn_sample,
    sample_batch,
    BatchSummary,
)
from .distributions import (
    DiscreteDist,
    dist_A,
    moments_A,
    BernoulliDecomp,
    bernoulli_decomposition,
    dist_N_pairs,
    diag_prob,
    cell_prob,
    joint_diag_alpha,
    diag_cov,
    subtableau_law_check,
    clt_diagnostics,
    n_alpha_growth_check,
    chi_square_gof,
)
from .asep import FilledTableau, fill_uq, wtx, z_full, render_filled

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
