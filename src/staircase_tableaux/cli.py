"""Command-line interface: ``staircase-tableaux <command> ...``.

Every numeric emitted in json/csv mode is an exact rational string "p/q"
unless ``--float`` asks for floats (root and diagnostic output is float by
nature).  Identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 parameter error, 4 cap refusal,
5 numerical failure, 6 verification failure.

The environment variable STAIRCASE_TABLEAUX_CAP, when set to an integer,
overrides the default enumeration caps.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import acceptance, asep, distributions, enumeration, eulerian_poly, sampling, tableau
from .errors import (
    CapExceededError,
    DomainError,
    MalformedDocumentError,
    InvalidTableauError,
    ParameterError,
    RootFindingError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAMETER = 3
EXIT_CAP = 4
EXIT_NUMERICAL = 5
EXIT_VERIFY = 6


def parse_rational(text: str) -> Fraction | float:
    """Accept 'p/q', 'p', or 'inf'."""
    text = text.strip().lower()
    if text in ("inf", "infinity"):
        return math.inf
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational: {text!r}") from exc


def fmt_number(x, as_float: bool) -> str:
    if isinstance(x, float):
        return repr(x)
    if as_float:
        return repr(float(x))
    return str(x)


def _resolve_params(args) -> sampling.Params:
    """Exactly one of the two parameter conventions per invocation."""
    has_ab = args.a is not None or args.b is not None
    has_greek = getattr(args, "alpha", None) is not None or getattr(args, "beta", None) is not None
    if has_ab and has_greek:
        raise ParameterError("use either --a/--b or --alpha/--beta, not both")
    rho = args.rho if getattr(args, "rho", None) is not None else Fraction(1, 2)
    if has_greek:
        if args.alpha is None or args.beta is None:
            raise ParameterError("--alpha and --beta must be given together")
        return sampling.Params.from_alpha_beta(args.alpha, args.beta, rho)
    if args.a is None or args.b is None:
        raise ParameterError("give parameters as --a/--b or --alpha/--beta")
    return sampling.Params(args.a, args.b, rho)


def _add_param_args(p: argparse.ArgumentParser, greek: bool = True) -> None:
    p.add_argument("--a", type=parse_rational, default=None,
                   help="inverse weight a = 1/alpha ('p/q' or 'inf')")
    p.add_argument("--b", type=parse_rational, default=None,
                   help="inverse weight b = 1/beta")
    if greek:
        p.add_argument("--alpha", type=parse_rational, default=None,
                       help="tableau weight alpha ('p/q' or 'inf')")
        p.add_argument("--beta", type=parse_rational, default=None,
                       help="tableau weight beta")
    p.add_argument("--rho", type=parse_rational, default=None,
                   help="tie-break probability in [0,1], default 1/2")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--float", action="store_true", dest="as_float",
                   help="emit floats instead of exact rationals")
    p.add_argument("--output", default=None, help="write to file (atomic) instead of stdout")


def _emit(args, lines: str | Iterable[str]) -> None:
    """Write ``lines`` to stdout as each is made, or atomically to --output.

    A str is one line.  Each line ends with one newline, added unless it
    already has one, so the output always ends with a newline (no lines at
    all make one empty line)."""
    if isinstance(lines, str):
        lines = (lines,)
    if args.output:
        directory = os.path.dirname(os.path.abspath(args.output))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".staircase-")
        try:
            with os.fdopen(fd, "w") as fh:
                _write_lines(fh, lines)
            os.replace(tmp, args.output)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        _write_lines(sys.stdout, lines)


def _write_lines(fh, lines: Iterable[str]) -> None:
    empty = True
    for line in lines:
        fh.write(line if line.endswith("\n") else line + "\n")
        empty = False
    if empty:
        fh.write("\n")


def _csv(rows: Iterable[list[str]], header: list[str]) -> Iterator[str]:
    yield ",".join(header)
    for row in rows:
        yield ",".join(row)


def _default_cap(fallback: int) -> int:
    env = os.environ.get("STAIRCASE_TABLEAUX_CAP")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ParameterError(f"bad STAIRCASE_TABLEAUX_CAP: {env!r}") from exc
    return fallback


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    params = None if args.four else _resolve_params(args)
    if args.four:
        if args.alpha is None or args.beta is None:
            raise ParameterError("--four needs --alpha and --beta (plus optional --gamma/--delta)")
        gamma = args.gamma if args.gamma is not None else Fraction(0)
        delta = args.delta if args.delta is not None else Fraction(0)
        rho = args.rho if args.rho is not None else Fraction(1, 2)

        def draw(seed: int) -> tableau.Tableau:
            return sampling.sample_four(args.n, args.alpha, args.beta, gamma, delta, seed, rho)
    else:

        def draw(seed: int) -> tableau.Tableau:
            return sampling.sample_ab(args.n, params, seed)
    if args.samples == 1:
        t = draw(args.seed)
        if args.format == "text":
            _emit(args, tableau.render_text(t))
        else:
            _emit(args, tableau.serialize(t).decode())
        return EXIT_OK
    tableaux = (draw(sampling.derive_seed(args.seed, i)) for i in range(args.samples))
    # draw the first tableau before writing anything, so that a parameter
    # error leaves stdout empty
    tableaux = itertools.chain(list(itertools.islice(tableaux, 1)), tableaux)
    if args.format == "csv":
        rows = (
            [str(i), str(s.diagonal_alpha), str(s.diagonal_beta), str(s.n_alpha),
             str(s.n_beta), str(s.alpha_indexed_rows), s.diagonal_word]
            for i, s in enumerate(map(sampling.tableau_stats, tableaux))
        )
        _emit(args, _csv(rows, ["index", "A", "B", "n_alpha", "n_beta", "r", "diagonal"]))
    else:
        _emit(args, (tableau.serialize(t).decode() for t in tableaux))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    cap = _default_cap(enumeration.FOUR_CAP if args.mode == "four" else enumeration.AB_CAP)
    if args.n > cap and not args.allow_large:
        raise CapExceededError(
            f"n={args.n} exceeds the enumeration cap {cap}; pass --allow-large to override"
        )
    stream = {
        "ab": enumeration.enumerate_ab,
        "four": enumeration.enumerate_four,
        "max": enumeration.max_symbol_tableaux,
    }[args.mode](args.n, allow_large=True)
    if args.count_only:
        _emit(args, str(sum(1 for _ in stream)))
        return EXIT_OK
    lines = []
    for t in stream:
        if args.format == "text":
            lines.append(tableau.render_text(t))
            lines.append("")
        else:
            lines.append(tableau.serialize(t).decode())
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_dist_a(args) -> int:
    params = _resolve_params(args)
    d = distributions.dist_A(args.n, params.a, params.b, params.rho)
    pairs = [(k, d.pmf(k)) for k in d.support()]
    if args.format == "json":
        doc = {"n": args.n, "a": str(params.a), "b": str(params.b),
               "pmf": {str(k): fmt_number(p, args.as_float) for k, p in pairs}}
        _emit(args, json.dumps(doc, sort_keys=True))
    else:
        _emit(args, _csv([[str(k), fmt_number(p, args.as_float)] for k, p in pairs],
                         ["k", "probability"]))
    return EXIT_OK


def cmd_moments_a(args) -> int:
    params = _resolve_params(args)
    mean, var = distributions.moments_A(args.n, params.a, params.b)
    if args.format == "json":
        _emit(args, json.dumps({"n": args.n, "mean": fmt_number(mean, args.as_float),
                                "variance": fmt_number(var, args.as_float)}, sort_keys=True))
    else:
        _emit(args, _csv([[fmt_number(mean, args.as_float), fmt_number(var, args.as_float)]],
                         ["mean", "variance"]))
    return EXIT_OK


def cmd_decompose(args) -> int:
    params = _resolve_params(args)
    bd = distributions.bernoulli_decomposition(args.n, params.a, params.b)
    if args.format == "json":
        _emit(args, json.dumps({"n": bd.n, "p": list(bd.p), "xi": [repr(x) for x in bd.xi]},
                               sort_keys=True))
    else:
        rows = [[str(i + 1), repr(p), repr(x)] for i, (p, x) in enumerate(zip(bd.p, bd.xi))]
        _emit(args, _csv(rows, ["i", "p", "xi"]))
    return EXIT_OK


def cmd_pairs_n(args) -> int:
    params = _resolve_params(args)
    law = distributions.dist_N_pairs(args.n, params.a, params.b)
    rows = [
        [str(i), fmt_number(pd.p10, args.as_float), fmt_number(pd.p01, args.as_float),
         fmt_number(pd.p11, args.as_float)]
        for i, pd in enumerate(law.pairs)
    ]
    summary = {
        "mean_alpha": law.mean_alpha, "var_alpha": law.var_alpha,
        "mean_beta": law.mean_beta, "var_beta": law.var_beta, "cov": law.cov,
    }
    if args.format == "json":
        doc = {"n": args.n,
               "pairs": [{"i": int(r[0]), "p10": r[1], "p01": r[2], "p11": r[3]} for r in rows],
               **{k: fmt_number(v, args.as_float) for k, v in summary.items()}}
        _emit(args, json.dumps(doc, sort_keys=True))
    else:
        _emit(args, itertools.chain(
            _csv(rows, ["i", "p10", "p01", "p11"]), [""],
            _csv([[fmt_number(v, args.as_float) for v in summary.values()]], list(summary))))
    return EXIT_OK


def cmd_positions(args) -> int:
    params = _resolve_params(args)
    a, b = params.a, params.b
    if args.kind == "diag":
        if args.i is None:
            raise ParameterError("--kind diag needs --i")
        value = {"p_alpha": distributions.diag_prob(args.n, a, b, args.i)}
    elif args.kind == "cell":
        if args.i is None or args.j is None:
            raise ParameterError("--kind cell needs --i and --j")
        pa, pb, pf = distributions.cell_prob(args.n, a, b, args.i, args.j)
        value = {"p_alpha": pa, "p_beta": pb, "p_filled": pf}
    elif args.kind == "joint":
        if not args.positions:
            raise ParameterError("--kind joint needs --positions j1,j2,...")
        js = [int(x) for x in args.positions.split(",")]
        value = {"p_all_alpha": distributions.joint_diag_alpha(args.n, a, b, js)}
    else:
        if args.i is None or args.j is None:
            raise ParameterError("--kind cov needs --i and --j (columns j < k)")
        value = {"covariance": distributions.diag_cov(args.n, a, b, args.i, args.j)}
    if args.format == "json":
        _emit(args, json.dumps({k: fmt_number(v, args.as_float) for k, v in value.items()},
                               sort_keys=True))
    else:
        _emit(args, _csv([[fmt_number(v, args.as_float) for v in value.values()]], list(value)))
    return EXIT_OK


def cmd_subcheck(args) -> int:
    params = _resolve_params(args)
    rep = distributions.subtableau_law_check(args.n, params.a, params.b, args.i, args.j,
                                             allow_large=args.allow_large)
    doc = {"n": rep.n, "i": rep.i, "j": rep.j, "sub_size": rep.sub_size,
           "a_hat": str(rep.a_hat), "b_hat": str(rep.b_hat), "equal": rep.equal}
    if rep.first_difference is not None:
        t, lhs, rhs = rep.first_difference
        doc["first_difference"] = {"tableau": tableau.to_document(t),
                                   "induced": str(lhs), "direct": str(rhs)}
    _emit(args, json.dumps(doc, sort_keys=True))
    return EXIT_OK if rep.equal else EXIT_VERIFY


def cmd_urn(args) -> int:
    a = args.a if args.a is not None else Fraction(1)
    b = args.b if args.b is not None else Fraction(1)
    if args.samples == 1:
        res = sampling.urn_sample(args.n, a, b, args.seed)
        if args.format == "csv":
            rows = [[str(k + 1), str(x)] for k, x in enumerate(res.path)]
            _emit(args, _csv(rows, ["draw", "added_white"]))
        else:
            _emit(args, json.dumps({"added_white": res.added_white,
                                    "added_black": res.added_black,
                                    "path": list(res.path)}, sort_keys=True))
        return EXIT_OK
    from collections import Counter

    counts: Counter = Counter()
    for i in range(args.samples):
        counts[sampling.urn_sample(args.n, a, b, sampling.derive_seed(args.seed, i)).added_white] += 1
    rows = [[str(k), str(counts[k])] for k in sorted(counts)]
    if args.format == "json":
        _emit(args, json.dumps({str(k): counts[k] for k in sorted(counts)}, sort_keys=True))
    else:
        _emit(args, _csv(rows, ["added_white", "count"]))
    return EXIT_OK


def cmd_triangle(args) -> int:
    if args.symbolic:
        rows = []
        for n in range(args.n_max + 1):
            for k in range(n + 1):
                rows.append([str(n), str(k), str(eulerian_poly.v_symbolic(n, k))])
        _emit(args, _csv(rows, ["n", "k", "v"]))
        return EXIT_OK
    params = _resolve_params(args)
    if args.row is not None:
        row = eulerian_poly.v_row(args.row, params.a, params.b)
        rows = [[str(args.row), str(k), fmt_number(v, args.as_float)] for k, v in enumerate(row)]
    else:
        tri = eulerian_poly.v_triangle(args.n_max, params.a, params.b)
        rows = [
            [str(n), str(k), fmt_number(tri.v(n, k), args.as_float)]
            for n in range(args.n_max + 1)
            for k in range(n + 1)
        ]
    _emit(args, _csv(rows, ["n", "k", "v"]))
    return EXIT_OK


def _read_tableau(args) -> tableau.Tableau:
    if args.input and args.input != "-":
        with open(args.input, "rb") as fh:
            data = fh.read()
    else:
        data = sys.stdin.buffer.read()
    return tableau.parse(data)


def cmd_asep(args) -> int:
    if args.action == "z-full":
        if args.n is None:
            raise ParameterError("z-full needs --n")
        one = Fraction(1)
        params = [x if x is not None else one
                  for x in (args.alpha, args.beta, args.gamma, args.delta)]
        total = asep.z_full(args.n, *params, args.q, args.u,
                            allow_large=args.allow_large)
        _emit(args, fmt_number(total, args.as_float))
        return EXIT_OK
    t = _read_tableau(args)
    if args.action == "fill":
        filled = asep.fill_uq(t)
        if args.format == "text":
            _emit(args, asep.render_filled(filled))
        else:
            _emit(args, asep.serialize_filled(filled).decode())
    else:  # weight
        vec = asep.wtx(t)
        names = ["n_alpha", "n_beta", "n_gamma", "n_delta", "n_u", "n_q"]
        if args.format == "json":
            _emit(args, json.dumps(dict(zip(names, vec)), sort_keys=True))
        else:
            _emit(args, _csv([[str(x) for x in vec]], names))
    return EXIT_OK


def cmd_clt(args) -> int:
    params = _resolve_params(args)
    d = distributions.clt_diagnostics(args.n, params.a, params.b)
    _emit(args, json.dumps({
        "n": d.n, "mean": d.mean, "sd": d.sd,
        "ks_to_normal": d.ks_to_normal,
        "llt_max_residual": d.llt_max_residual,
    }, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = acceptance.run(level=args.level, indices=args.only)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.index:2d} {r.name:<{width}}  ({r.seconds:.1f}s)  {r.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    _emit(args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase-tableaux",
        description="Exact computation, enumeration and sampling for weighted staircase tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw random tableaux")
    p.add_argument("--n", type=int, required=True)
    _add_param_args(p)
    p.add_argument("--gamma", type=parse_rational, default=None)
    p.add_argument("--delta", type=parse_rational, default=None)
    p.add_argument("--four", action="store_true", help="four-symbol model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    _add_output_args(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="stream or count all tableaux of a size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("ab", "four", "max"), default="ab")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--allow-large", action="store_true",
                   help="override the enumeration cap")
    _add_output_args(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dist-a", help="exact law of the diagonal alpha count")
    p.add_argument("--n", type=int, required=True)
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_dist_a)

    p = sub.add_parser("moments-a", help="exact mean/variance of the diagonal alpha count")
    p.add_argument("--n", type=int, required=True)
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_moments_a)

    p = sub.add_parser("decompose", help="Bernoulli decomposition via root isolation")
    p.add_argument("--n", type=int, required=True)
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pairs-n", help="independent pair laws of (N_alpha, N_beta)")
    p.add_argument("--n", type=int, required=True)
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_pairs_n)

    p = sub.add_parser("positions", help="exact symbol position probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("diag", "cell", "joint", "cov"), required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--positions", default=None, help="comma-separated columns for --kind joint")
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_positions)

    p = sub.add_parser("subcheck", help="verify the subtableau law identity by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_subcheck)

    p = sub.add_parser("urn", help="simulate the opposite-colour urn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=parse_rational, default=None)
    p.add_argument("--b", type=parse_rational, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    _add_output_args(p)
    p.set_defaults(func=cmd_urn)

    p = sub.add_parser("triangle", help="exact generalized Eulerian triangle")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--row", type=int, default=None, help="emit a single row")
    p.add_argument("--symbolic", action="store_true",
                   help="emit the bivariate coefficient polynomials instead")
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("asep", help="u/q filling and the six-variable generating function")
    p.add_argument("action", choices=("fill", "weight", "z-full"))
    p.add_argument("--input", default=None, help="tableau JSON file ('-' for stdin)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=parse_rational, default=None)
    p.add_argument("--beta", type=parse_rational, default=None)
    p.add_argument("--gamma", type=parse_rational, default=None)
    p.add_argument("--delta", type=parse_rational, default=None)
    p.add_argument("--q", type=parse_rational, default=Fraction(1))
    p.add_argument("--u", type=parse_rational, default=Fraction(1))
    p.add_argument("--allow-large", action="store_true")
    _add_output_args(p)
    p.set_defaults(func=cmd_asep)

    p = sub.add_parser("clt", help="finite-n normal/local limit diagnostics")
    p.add_argument("--n", type=int, required=True)
    _add_param_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--level", choices=("quick", "desk"), default="desk")
    p.add_argument("--only", type=int, action="append", default=None,
                   help="run a single criterion (repeatable)")
    _add_output_args(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError, MalformedDocumentError, InvalidTableauError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RootFindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
