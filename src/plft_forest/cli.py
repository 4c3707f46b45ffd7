"""Command-line surface.

Every subcommand is a thin adapter over the library; no arithmetic
lives here.  Each command imports the library modules it uses when it
runs, so a process loads only those (``census``, ``series`` and ``aux``
never load the tree modules), and an input that argparse rejects loads
none.  Exit statuses: 0 success, 2 input error (an input too large for
memory or for an index included), 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InternalInvariantError


def _parse_points(text: str) -> list[int]:
    try:
        points = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"--points wants comma-separated integers, got {text!r}") from None
    if not points:
        raise ValueError("--points is empty")
    return points


def _cmd_root(args) -> str:
    from .cf import orphan_root_cf
    from .plft import Plft, format_word, root_by_iteration

    w = Plft.parse(args.plft)
    root, word = root_by_iteration(w)
    report = orphan_root_cf(w)
    if report.root != root:
        raise InternalInvariantError(
            f"continued-fraction route found {report.root.coeffs()}, iteration found {root.coeffs()}"
        )
    return f"root={root} word={format_word(word)}"


def _cmd_cf(args) -> str:
    from .cf import cf_of_rational, format_rational_cf, parse_rational, plft_cf_expand
    from .plft import Plft

    if "," in args.value:
        return str(plft_cf_expand(Plft.parse(args.value)))
    r = parse_rational(args.value)
    if r <= 0:
        raise ValueError(f"expected a positive rational, got {r}")
    return format_rational_cf(cf_of_rational(r))


def _cmd_decompose(args) -> str:
    from .cf import decompose_special
    from .plft import Plft, format_word

    word = decompose_special(Plft.parse(args.plft))
    return "none" if word is None else f"word={format_word(word)}"


def _cmd_descend(args) -> str:
    from .cf import ancestors_of_rational, is_descendant_rational, parse_rational

    first = parse_rational(args.ancestor)
    if args.target is None:
        return "\n".join(str(a) for a in ancestors_of_rational(first))
    return "true" if is_descendant_rational(first, parse_rational(args.target)) else "false"


def _cmd_census(args) -> str:
    from .census import census_rows

    lines = ["D,nu2,sigma,tau,h"]
    for row in census_rows(args.max):
        lines.append(f"{row.D},{row.nu2},{row.sigma},{row.tau},{row.h_closed}")
    return "\n".join(lines)


def _cmd_series(args) -> str:
    from .census import ratio_series

    lines = ["x,summatory,reference,ratio"]
    for point in ratio_series(_parse_points(args.points)):
        lines.append(f"{point.x},{point.summatory},{point.reference!r},{point.ratio!r}")
    return "\n".join(lines)


def _cmd_aux(args) -> str:
    from .census import harmonic_double_sum, harmonic_double_sum_reference

    lines = ["x,sum,reference,ratio"]
    for x in _parse_points(args.points):
        total = harmonic_double_sum(x)
        ref = harmonic_double_sum_reference(x)
        lines.append(f"{x},{total!r},{ref!r},{total / ref!r}")
    return "\n".join(lines)


def _params(args):
    from .complex_forest import OrphanParams

    return OrphanParams(u=args.u, v=args.v)


def _cmd_corphan(args) -> str:
    from .complex_forest import GaussianRational, is_complex_orphan

    return "true" if is_complex_orphan(GaussianRational.parse(args.z), _params(args)) else "false"


def _cmd_cchain(args) -> str:
    from .complex_forest import GaussianRational, ancestor_chain, ancestor_runs
    from .plft import format_word, word_of_runs

    z, params = GaussianRational.parse(args.z), _params(args)
    if args.format == "csv":
        lines = ["step,move,re,im"]
        for i, step in enumerate(ancestor_chain(z, params)[1], start=1):
            lines.append(f"{i},{step.move},{step.value.re},{step.value.im}")
        return "\n".join(lines)
    root, runs = ancestor_runs(z, params)
    return f"root={root} steps={sum(runs)} moves={format_word(word_of_runs(runs))}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plft-forest",
        description="Exact computations in the forest of positive linear fractional transformations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root", parents=[common], help="orphan root and word of a PLFT a,b,c,d")
    p.add_argument("plft")
    p.set_defaults(handler=_cmd_root)

    p = sub.add_parser("cf", parents=[common], help="continued fraction of a PLFT a,b,c,d or rational p/q")
    p.add_argument("value")
    p.set_defaults(handler=_cmd_cf)

    p = sub.add_parser("decompose", parents=[common], help="word over L1,R1 multiplying out to the matrix")
    p.add_argument("plft")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "descend",
        parents=[common],
        help="with two rationals: is the second a descendant of the first; with one: its ancestors",
    )
    p.add_argument("ancestor")
    p.add_argument("target", nargs="?")
    p.set_defaults(handler=_cmd_descend)

    p = sub.add_parser("census", parents=[common], help="CSV census table D,nu2,sigma,tau,h")
    p.add_argument("--max", type=int, required=True, help="largest determinant")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("series", parents=[common], help="CSV summatory series x,summatory,reference,ratio")
    p.add_argument("--points", required=True, help="comma-separated x values")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("aux", parents=[common], help="CSV of the harmonic double sum against log^2(x)/2")
    p.add_argument("--points", required=True, help="comma-separated x values")
    p.set_defaults(handler=_cmd_aux)

    p = sub.add_parser("corphan", parents=[common], help="is p/q+r/s*i a complex (u,v)-orphan")
    p.add_argument("z")
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--v", type=int, default=1)
    p.set_defaults(handler=_cmd_corphan)

    p = sub.add_parser("cchain", parents=[common], help="ancestor chain of p/q+r/s*i up to its orphan root")
    p.add_argument("z")
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--v", type=int, default=1)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(handler=_cmd_cchain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a size past sys.maxsize, such as a run of moves spelled out
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
