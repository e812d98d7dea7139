"""Command-line interface: ``staircase-tableaux <command> ...``.

One table, ``COMMANDS``, lists each command's handler, its arguments and
the output formats it offers; ``build_parser`` builds the parser from it,
so a command accepts only the flags it honours.  A cold start pays for
its command alone: ``main`` builds only the subparser of the command named
first, and each handler imports the modules it uses.  A handler returns its
output *views*: a dict from format name to a lazy iterable of lines, in
order of preference.  ``emit`` writes the view ``--format`` names, or the
first one, and formats every value by one rule:

* a tuple is one csv row, a dict or list one JSON document (keys sorted),
  anything else is written on its own line;
* one text rule prints a value: a ``Fraction`` as the exact string "p/q",
  or under ``--float`` as ``repr(float)``; a float as ``repr``; anything
  else as ``str``.  JSON values go through the ``json`` encoder, which
  passes what JSON cannot hold (the Fractions) through the same rule.

Identical invocations produce byte-identical output.  An invocation whose
format or flags the command would not honour is a usage error and writes
nothing to stdout.

Exit codes: 0 success, 2 usage error, 3 parameter error, 4 cap refusal,
5 numerical failure, 6 verification failure.  The enumeration caps,
including the STAIRCASE_TABLEAUX_CAP override, live in ``errors``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .errors import (CapExceededError, DomainError, ParameterError, RootFindingError,
                     StaircaseError, _as_n, _as_param, _invert)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAMETER = 3
EXIT_CAP = 4
EXIT_NUMERICAL = 5
EXIT_VERIFY = 6
_EXIT_FOR = {CapExceededError: EXIT_CAP, RootFindingError: EXIT_NUMERICAL}

Views = dict[str, Iterable]


class UsageError(Exception):
    """A combination of flags or a format the command would not honour."""


def parse_rational(text: str) -> Fraction | float:
    """Accept 'p/q', 'p', or 'inf'."""
    text = text.strip().lower()
    if text in ("inf", "infinity"):
        return math.inf
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational: {text!r}") from exc


def _rational_flag(text: str) -> Fraction | float:
    """parse_rational for argparse, which prints this error's message after the flag."""
    try:
        return parse_rational(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_params(args) -> tuple[Fraction | float, Fraction | float]:
    """The inverse weights (a, b), read by the rules ``sampling.Params``
    applies.  Exactly one of the two parameter conventions per invocation;
    only sample takes a zero weight, as every exact law needs a and b finite."""
    has_ab = args.a is not None or args.b is not None
    has_greek = args.alpha is not None or args.beta is not None
    if has_ab and has_greek:
        raise ParameterError("use either --a/--b or --alpha/--beta, not both")
    if has_greek:
        if args.alpha is None or args.beta is None:
            raise ParameterError("--alpha and --beta must be given together")
        a, b = _invert(_as_param("alpha", args.alpha)), _invert(_as_param("beta", args.beta))
    elif args.a is None or args.b is None:
        raise ParameterError("give parameters as --a/--b or --alpha/--beta")
    else:
        a, b = _as_param("a", args.a), _as_param("b", args.b)
    for inverse, weight, value in ("a", "alpha", a), ("b", "beta", b):
        if value == math.inf and args.command != "sample":
            raise ParameterError(f"--{weight} must be > 0, got 0" if has_greek
                                 else f"--{inverse} must be finite, got inf")
    return a, b


def _unused(args, context: str, *dests: str) -> None:
    """Refuse flags that the rest of the invocation would ignore."""
    given = [d for d in dests if (v := getattr(args, d, None)) is not None and v is not False]
    if given:
        flags = ", ".join("--" + d.replace("_", "-") for d in given)
        raise UsageError(f"{context} does not use {flags}")


def _later(make: Callable[[], Iterable]) -> Iterator:
    """A view whose lines are computed only when it is the one written."""
    yield from make()


# ---------------------------------------------------------------------------
# the emitter


def _float_text(x) -> str:
    return repr(float(x)) if type(x) is Fraction else str(x)


def _line(item, text: Callable[[object], str]) -> str:
    if isinstance(item, tuple):
        return ",".join(map(text, item))
    if isinstance(item, (dict, list)):
        import json
        return json.dumps(item, sort_keys=True, default=text)
    return text(item)


def emit(views: Views, args) -> None:
    """Write the chosen view to stdout as each line is made, or atomically
    to --output.  Each line ends with one newline, added unless it already
    has one, so the output always ends with a newline (no lines at all
    make one empty line)."""
    fmt = args.format or next(iter(views))
    if fmt not in views:
        raise UsageError(f"--format {fmt} is not available for this invocation; "
                         f"choose from {', '.join(views)}")
    text = _float_text if getattr(args, "float", False) else str
    lines = (_line(item, text) for item in views[fmt])
    if args.output:
        import tempfile   # only --output needs it: a cold start skips its import
        directory = os.path.dirname(os.path.abspath(args.output))
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".staircase-")
            try:
                with os.fdopen(fd, "w") as fh:
                    _write_lines(fh, lines)
                os.replace(tmp, args.output)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise ParameterError(f"{args.output}: {exc.strerror}") from exc
    else:
        _write_lines(sys.stdout, lines)


def _write_lines(fh, lines: Iterable[str]) -> None:
    empty = True
    for line in lines:
        fh.write(line if line.endswith("\n") else line + "\n")
        empty = False
    if empty:
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands: each returns its views, or (views, exit status)


def cmd_sample(args) -> Views:
    from . import sampling, tableau
    from .rng import _derived_seeds
    if args.four:
        _unused(args, "sample --four", "a", "b", "rho")
        if args.alpha is None or args.beta is None:
            raise ParameterError("--four needs --alpha and --beta (plus optional --gamma/--delta)")

        def draw(seed: int) -> tableau.Tableau:
            return sampling.sample_four(args.n, args.alpha, args.beta, args.gamma or 0,
                                        args.delta or 0, seed)

        def tableaux() -> Iterator[tableau.Tableau]:
            return map(draw, _derived_seeds(args.seed, args.samples))
    else:
        _unused(args, "sample without --four", "gamma", "delta")
        params = sampling.Params(*_resolve_params(args), getattr(args, "rho", Fraction(1, 2)))

        def draw(seed: int) -> tableau.Tableau:
            return sampling.sample_ab(args.n, params, seed)

        def tableaux() -> Iterator[tableau.Tableau]:
            draws = sampling._batch(args.n, params, args.seed, args.samples)
            return (tableau.Tableau._sorted(args.n, cells) for cells in draws)
    if args.samples == 1:
        return {"text": _later(lambda: [tableau.render_text(draw(args.seed))]),
                "json": _later(lambda: [tableau.serialize(draw(args.seed)).decode()])}

    def rows():
        draws = tableaux()
        # draw the first tableau before the header, so that a parameter
        # error leaves stdout empty
        first = list(itertools.islice(draws, 1))
        yield ("index", "A", "B", "n_alpha", "n_beta", "r", "diagonal")
        for i, s in enumerate(map(sampling.tableau_stats, itertools.chain(first, draws))):
            yield (i, s.diagonal_alpha, s.diagonal_beta, s.n_alpha, s.n_beta,
                   s.alpha_indexed_rows, s.diagonal_word)

    return {"json": (tableau.serialize(t).decode() for t in tableaux()), "csv": rows()}


def cmd_enumerate(args) -> Views:
    from . import enumeration, tableau
    stream = {
        "ab": enumeration.enumerate_ab,
        "four": enumeration.enumerate_four,
        "max": enumeration.max_symbol_tableaux,
    }[args.mode](args.n, allow_large=args.allow_large)
    if args.count_only:
        count = _later(lambda: [sum(1 for _ in stream)])
        return {"text": count, "json": count}

    def text():
        for i, t in enumerate(stream):
            if i:
                yield ""
            yield tableau.render_text(t)

    return {"text": text(), "json": (tableau.serialize(t).decode() for t in stream)}


def cmd_dist_a(args) -> Views:
    from . import distributions
    a, b = _resolve_params(args)
    d = distributions.dist_A(args.n, a, b)
    pairs = [(k, d.pmf(k)) for k in d.support()]
    return {"csv": [("k", "probability"), *pairs],
            "json": [{"n": args.n, "a": str(a), "b": str(b),
                      "pmf": {str(k): p for k, p in pairs}}]}


def cmd_moments_a(args) -> Views:
    from . import distributions
    mean, var = distributions.moments_A(args.n, *_resolve_params(args))
    return {"csv": [("mean", "variance"), (mean, var)],
            "json": [{"n": args.n, "mean": mean, "variance": var}]}


def cmd_decompose(args) -> Views:
    from . import distributions
    bd = distributions.bernoulli_decomposition(args.n, *_resolve_params(args))
    rows = [(i + 1, p, x) for i, (p, x) in enumerate(zip(bd.p, bd.xi))]
    return {"csv": [("i", "p", "xi"), *rows],
            "json": [{"n": bd.n, "p": bd.p, "xi": [repr(x) for x in bd.xi]}]}


def cmd_pairs_n(args) -> Views:
    from . import distributions
    law = distributions.dist_N_pairs(args.n, *_resolve_params(args))
    rows = [(i, pd.p10, pd.p01, pd.p11) for i, pd in enumerate(law.pairs)]
    summary = {
        "mean_alpha": law.mean_alpha, "var_alpha": law.var_alpha,
        "mean_beta": law.mean_beta, "var_beta": law.var_beta, "cov": law.cov,
    }
    header = ("i", "p10", "p01", "p11")
    return {"csv": [header, *rows, "", tuple(summary), tuple(summary.values())],
            "json": [{"n": args.n, **summary, "pairs": [dict(zip(header, r)) for r in rows]}]}


# the position arguments each --kind reads
_KIND_ARGS = {"diag": ("i",), "cell": ("i", "j"), "joint": ("positions",), "cov": ("i", "j")}


def cmd_positions(args) -> Views:
    from . import distributions
    needed = _KIND_ARGS[args.kind]
    _unused(args, f"--kind {args.kind}", *(d for d in ("i", "j", "positions") if d not in needed))
    if any(getattr(args, d) is None for d in needed):
        raise ParameterError(f"--kind {args.kind} needs " + " and ".join("--" + d for d in needed))
    a, b = _resolve_params(args)
    if args.kind == "diag":
        value = {"p_alpha": distributions.diag_prob(args.n, a, b, args.i)}
    elif args.kind == "cell":
        pa, pb, pf = distributions.cell_prob(args.n, a, b, args.i, args.j)
        value = {"p_alpha": pa, "p_beta": pb, "p_filled": pf}
    elif args.kind == "joint":
        value = {"p_all_alpha": distributions.joint_diag_alpha(args.n, a, b, args.positions)}
    else:
        if not 1 <= args.i < args.j <= args.n:
            raise DomainError(f"--kind cov needs 1 <= --i < --j <= --n, got {args.i}, {args.j}")
        value = {"covariance": distributions.diag_cov(args.n, a, b, args.i, args.j)}
    return {"csv": [tuple(value), tuple(value.values())], "json": [value]}


def cmd_subcheck(args) -> tuple[Views, int]:
    from . import distributions, tableau
    rep = distributions.subtableau_law_check(args.n, *_resolve_params(args), args.i, args.j,
                                             allow_large=args.allow_large)
    doc = rep._asdict()
    if (diff := doc.pop("first_difference")) is not None:
        t, lhs, rhs = diff
        doc["first_difference"] = {"tableau": tableau.to_document(t),
                                   "induced": lhs, "direct": rhs}
    return {"json": [doc]}, EXIT_OK if rep.equal else EXIT_VERIFY


def cmd_urn(args) -> Views:
    from . import sampling
    from .rng import _derived_seeds
    a, b = args.a, args.b
    if args.samples == 1:
        res = sampling.urn_sample(args.n, a, b, args.seed)
        return {"json": [res._asdict()],
                "csv": [("draw", "added_white"), *((k + 1, x) for k, x in enumerate(res.path))]}

    def tally() -> list[tuple[int, int]]:
        seeds = _derived_seeds(args.seed, args.samples)
        counts = Counter(sampling.urn_sample(args.n, a, b, s).added_white for s in seeds)
        return sorted(counts.items())

    return {"csv": _later(lambda: [("added_white", "count"), *tally()]),
            "json": _later(lambda: [{str(k): c for k, c in tally()}])}


def cmd_triangle(args) -> Views:
    from . import eulerian_poly
    n_max = 10 if args.n_max is None else args.n_max
    if args.symbolic:
        _unused(args, "triangle --symbolic", "a", "b", "alpha", "beta", "row", "float")
        rows = enumerate(eulerian_poly._symbolic_rows(_as_n(n_max, name="--n-max")))
    elif args.row is not None:
        _unused(args, "triangle --row", "n_max")
        a, b = _resolve_params(args)
        row = _as_n(args.row, name="--row")
        rows = [(row, eulerian_poly.v_row(row, a, b))]
    else:
        a, b = _resolve_params(args)
        # one row at a time: the whole triangle holds n_max^3 log n_max bits
        scaled = eulerian_poly.scaled_rows(_as_n(n_max, name="--n-max"), a, b)
        rows = ((n, eulerian_poly._fractions(row, d ** n)) for n, (row, d) in enumerate(scaled))
    return {"csv": itertools.chain([("n", "k", "v")], (
        (n, k, v) for n, row in rows for k, v in enumerate(row)))}


def _read_tableau(args) -> tableau.Tableau:
    from . import tableau
    if args.input and args.input != "-":
        try:
            with open(args.input, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParameterError(f"{args.input}: {exc.strerror}") from exc
    else:
        data = sys.stdin.buffer.read()
    return tableau.parse(data)


def cmd_asep_fill(args) -> Views:
    from . import asep
    filled = asep.fill_uq(_read_tableau(args))
    return {"text": _later(lambda: [asep.render_filled(filled)]),
            "json": _later(lambda: [asep.serialize_filled(filled).decode()])}


def cmd_asep_weight(args) -> Views:
    from . import asep
    names = ("n_alpha", "n_beta", "n_gamma", "n_delta", "n_u", "n_q")
    vec = asep.wtx(_read_tableau(args))
    return {"csv": [names, tuple(vec)], "json": [dict(zip(names, vec))]}


def cmd_asep_z_full(args) -> Views:
    from . import asep
    return {"text": [asep.z_full(args.n, args.alpha, args.beta, args.gamma, args.delta,
                                 args.q, args.u, allow_large=args.allow_large)]}


def cmd_clt(args) -> Views:
    from . import distributions
    return {"json": [distributions.clt_diagnostics(args.n, *_resolve_params(args))._asdict()]}


def cmd_verify(args) -> tuple[Views, int]:
    from . import acceptance
    results = acceptance.run(level=args.level, indices=args.only)
    width = max(len(r.name) for r in results)
    text = [f"[{'PASS' if r.passed else 'FAIL'}] {r.index:2d} {r.name:<{width}}  "
            f"({r.seconds:.1f}s)  {r.detail}" for r in results]
    text.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    views = {"text": text, "json": [r._asdict() for r in results]}
    return views, EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# the command table


def _columns(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


Command = namedtuple("Command", "handler help formats arguments")


N = _arg("--n", type=int, required=True)
AB = (_arg("--a", type=_rational_flag, help="inverse weight a = 1/alpha ('p/q' or 'inf')"),
      _arg("--b", type=_rational_flag, help="inverse weight b = 1/beta"),
      _arg("--alpha", type=_rational_flag, help="tableau weight alpha ('p/q' or 'inf')"),
      _arg("--beta", type=_rational_flag, help="tableau weight beta"))
RHO = _arg("--rho", type=_rational_flag, default=argparse.SUPPRESS,
           help="tie-break probability in [0,1], default 1/2")
FLOAT = _arg("--float", action="store_true", help="emit floats instead of exact rationals")
SEED = _arg("--seed", type=int, default=0)
SAMPLES = _arg("--samples", type=int, default=1)
ALLOW_LARGE = _arg("--allow-large", action="store_true", help="override the enumeration cap")
INPUT = _arg("--input", help="tableau JSON file ('-' or omitted for stdin)")
ONE = {"type": _rational_flag, "default": Fraction(1)}

COMMANDS = {
    "sample": Command(cmd_sample, "draw random tableaux", ("text", "json", "csv"), (
        N, *AB, _arg("--gamma", type=_rational_flag), _arg("--delta", type=_rational_flag),
        _arg("--four", action="store_true", help="four-symbol model"), RHO, SEED, SAMPLES)),
    "enumerate": Command(cmd_enumerate, "stream or count all tableaux of a size",
                         ("text", "json"), (
        N, _arg("--mode", choices=("ab", "four", "max"), default="ab"),
        _arg("--count-only", action="store_true"), ALLOW_LARGE)),
    "dist-a": Command(cmd_dist_a, "exact law of the diagonal alpha count", ("csv", "json"),
                      (N, *AB, FLOAT)),
    "moments-a": Command(cmd_moments_a, "exact mean/variance of the diagonal alpha count",
                         ("csv", "json"), (N, *AB, FLOAT)),
    "decompose": Command(cmd_decompose, "Bernoulli decomposition via root isolation",
                         ("csv", "json"), (N, *AB)),
    "pairs-n": Command(cmd_pairs_n, "independent pair laws of (N_alpha, N_beta)", ("csv", "json"),
                       (N, *AB, FLOAT)),
    "positions": Command(cmd_positions, "exact symbol position probabilities", ("csv", "json"), (
        N, _arg("--kind", choices=tuple(_KIND_ARGS), required=True),
        _arg("--i", type=int), _arg("--j", type=int),
        _arg("--positions", type=_columns, help="comma-separated columns for --kind joint"),
        *AB, FLOAT)),
    "subcheck": Command(cmd_subcheck, "verify the subtableau law identity by enumeration",
                        ("json",), (
        N, _arg("--i", type=int, required=True), _arg("--j", type=int, required=True),
        ALLOW_LARGE, *AB)),
    "urn": Command(cmd_urn, "simulate the opposite-colour urn", ("json", "csv"), (
        N, _arg("--a", **ONE), _arg("--b", **ONE), SEED, SAMPLES)),
    "triangle": Command(cmd_triangle, "exact generalized Eulerian triangle", ("csv",), (
        _arg("--n-max", type=int, help="largest row (default 10)"),
        _arg("--row", type=int, help="emit a single row"),
        _arg("--symbolic", action="store_true",
             help="emit the bivariate coefficient polynomials instead"), *AB, FLOAT)),
    "asep": ("u/q filling and the six-variable generating function", {
        "fill": Command(cmd_asep_fill, "u/q filling of a tableau", ("text", "json"), (INPUT,)),
        "weight": Command(cmd_asep_weight, "the six-variable weight of a tableau", ("csv", "json"),
                          (INPUT,)),
        "z-full": Command(cmd_asep_z_full, "Z_n(alpha, beta, gamma, delta; q, u) by enumeration",
                          ("text",), (
            N, *(_arg(f"--{v}", **ONE) for v in ("alpha", "beta", "gamma", "delta", "q", "u")),
            ALLOW_LARGE, FLOAT)),
    }),
    "clt": Command(cmd_clt, "finite-n normal/local limit diagnostics", ("json",), (N, *AB)),
    "verify": Command(cmd_verify, "run the acceptance suite", ("text", "json"), (
        _arg("--level", choices=("quick", "desk"), default="desk"),
        # acceptance.CRITERIA's indices, which a test holds equal: reading
        # them here would make every command import every module
        _arg("--only", type=int, action="append", choices=range(1, 16),
             help="run a single criterion (repeatable)"))),
}


def _add_commands(parser: argparse.ArgumentParser, table: dict, dest: str, metavar=None) -> None:
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name, spec in table.items():
        if not isinstance(spec, Command):
            help_, nested = spec
            _add_commands(sub.add_parser(name, help=help_), nested, "action")
            continue
        p = sub.add_parser(name, help=spec.help)
        for flags, kwargs in spec.arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--format", choices=spec.formats,
                       help="output format (default: the first this invocation offers)")
        p.add_argument("--output", help="write to file (atomic) instead of stdout")
        p.set_defaults(func=spec.handler, parser=p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser; or, for a key of ``COMMANDS``, one holding only that
    command's subparser, which parses and reports exactly as the whole one."""
    parser = argparse.ArgumentParser(
        prog="staircase-tableaux",
        description="Exact computation, enumeration and sampling for weighted staircase tableaux.",
    )
    # one command's parser still lists every command in an error's usage line
    whole = command is None
    _add_commands(parser, COMMANDS if whole else {command: COMMANDS[command]}, "command",
                  metavar=None if whole else "{" + ",".join(COMMANDS) + "}")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command named first needs only its own subparser
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    # exact output can pass CPython's int <-> str digit limit: lift it after
    # parsing the arguments, and put it back for in-process callers
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if getattr(args, "samples", 0) < 0:   # sample and urn
            raise ParameterError(f"--samples must be >= 0, got {args.samples}")
        out = args.func(args)
        views, status = out if isinstance(out, tuple) else (out, EXIT_OK)
        emit(views, args)
        return status
    except UsageError as exc:
        args.parser.error(str(exc))
    except StaircaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FOR.get(type(exc), EXIT_PARAMETER)
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
