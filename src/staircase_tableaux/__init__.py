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
- ``rng``: the portable SplitMix64 stream, batch seeds and exact coins;
- ``sampling``: exact sequential sampler for the weighted laws, the
  four-symbol extension, and the equivalent Friedman urn;
- ``distributions``: exact laws and moments of the diagonal count A and
  the symbol counts, Bernoulli decompositions via root isolation,
  position formulas, and finite-n limit diagnostics;
- ``asep``: the deterministic u/q box filling and the six-variable
  generating function;
- ``errors``: the typed errors, each a subclass of ``StaircaseError``;
- ``cli``: the ``staircase-tableaux`` command exposing all of the above.

The package re-exports each of the six library modules' ``__all__``, so
every public name they declare can be imported from here.
"""

from .tableau import *
from .eulerian_poly import *
from .enumeration import *
from .sampling import *
from .distributions import *
from .asep import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
