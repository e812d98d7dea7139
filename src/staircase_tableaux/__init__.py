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
- ``errors``: the typed errors, each a subclass of ``StaircaseError``, and
  the argument rules and cap policy that raise them, below every module;
- ``cli``: the ``staircase-tableaux`` command exposing all of the above.

The package re-exports each of the six library modules' ``__all__``, so
every public name they declare can be imported from here.  Names resolve on
first use (PEP 562): importing the package loads none of its modules, a
submodule name loads that module alone, and any other public name loads the
six library modules once.
"""

__version__ = "0.1.0"

_LIBRARY = ("tableau", "eulerian_poly", "enumeration", "sampling", "distributions", "asep")


def _submodule(name: str):
    import sys   # builtin: importlib would cost a cold start its own import
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if not name.startswith("_"):
        try:
            return _submodule(name)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    if not name.startswith("_") or name == "__all__":
        public = {n: getattr(m, n) for m in map(_submodule, _LIBRARY) for n in m.__all__}
        # __all__ also names the submodules that the library modules load, as
        # the six star imports once bound them
        globals().update(public, __all__=sorted({*public, *_LIBRARY, "errors", "rng"}))
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
