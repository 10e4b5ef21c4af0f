"""Command-line front end.

Subcommands: kl, pkl, sigma0, mseg, expand, verify.  Permutations are
comma-separated one-line notation; bi-sequences are two comma-separated
lists or a JSON object {"a": [...], "b": [...]}.  Polynomial output is
either a human-readable table form like 1+q or the JSON wire form.

The Kazhdan-Lusztig memo table can persist to an append-only JSON-lines
file given by --cache or the KLFORGE_CACHE environment variable; --no-cache
bypasses persistence.  Each subcommand takes only the flags it reads:
--format on kl, pkl, sigma0 and mseg, --cache and --no-cache on the ones
that open a memo table (kl, pkl, expand and verify).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .kl import KLTable, kl_poly, parabolic_kl_neg1, parabolic_kl_q
from .poly import LaurentPoly
from .segcomb import BiSequence, multisegment_of, replicate, sigma0
from .symgroup import NotComparable, Perm
from .transition import expand_E_in_G, expand_G_in_E, transition_index
from .verify import summarize, sweep


def _parse_perm(text: str) -> Perm:
    try:
        word = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a permutation: {text!r}")
    if sorted(word) != list(range(1, len(word) + 1)):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not one-line notation for a permutation")
    return word


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _poly_out(p: LaurentPoly, fmt: str, var: str) -> str:
    if fmt == "json":
        return json.dumps(p.to_json(var), sort_keys=True)
    return p.format(var)


def _table(args) -> KLTable:
    """The memo table, persisted to --cache or KLFORGE_CACHE unless --no-cache."""
    cache = None
    if not args.no_cache:
        cache = args.cache or os.environ.get("KLFORGE_CACHE") or None
    if cache is not None:
        parent = os.path.dirname(os.path.abspath(cache))
        if not os.path.isdir(parent):
            raise ValueError(f"cache directory {parent} does not exist")
        if os.path.isdir(cache):
            raise ValueError(f"cache path {cache} is a directory")
    return KLTable(cache)


def cmd_kl(args) -> int:
    s, w = args.s, args.w
    if len(s) != len(w):
        print("error: permutations must have the same size", file=sys.stderr)
        return 2
    print(_poly_out(kl_poly(_table(args), s, w), args.format, "q"))
    return 0


def cmd_pkl(args) -> int:
    fn = parabolic_kl_q if args.variant == "q" else parabolic_kl_neg1
    try:
        p = fn(_table(args), args.s, args.w, args.m)
    except NotComparable as exc:
        print(f"not comparable: {exc}", file=sys.stderr)
        return 1
    print(_poly_out(p, args.format, "q"))
    return 0


def _bisequence_from_args(args) -> BiSequence:
    if args.family:
        return BiSequence.from_json(json.loads(args.family))
    if args.a is None or args.b is None:
        raise ValueError("expand needs --family, or both --a and --b")
    return BiSequence(args.a, args.b)


def cmd_sigma0(args) -> int:
    s0 = sigma0(BiSequence(args.a, args.b))
    if args.format == "json":
        print(json.dumps(list(s0)))
    else:
        print(",".join(map(str, s0)))
    return 0


def cmd_mseg(args) -> int:
    A = BiSequence(args.a, args.b)
    mseg = multisegment_of(A, args.perm)
    if args.format == "json":
        print(json.dumps(mseg.to_json(), sort_keys=True))
        return 0
    # construction order a_i, b_{perm(i)}, empty pairs dropped
    parts = []
    for i in range(A.k):
        a, b = A.a[i], A.b[args.perm[i] - 1]
        if a <= b:
            parts.append(f"[{a},{b}]")
    print("+".join(parts) if parts else "0")
    return 0


def cmd_expand(args) -> int:
    if args.m < 1:
        raise ValueError("m must be at least 1")
    A = _bisequence_from_args(args)
    if args.m > 1:
        A = replicate(A, args.m)
    table = _table(args)
    index = transition_index(table, A)
    if args.w is not None and args.w not in index:
        raise ValueError(f"--w {','.join(map(str, args.w))} is not in the matrix index")
    expander = expand_E_in_G if args.direction == "e2g" else expand_G_in_E
    entries = {(row, col): c for col in (index if args.w is None else [args.w])
               for row, c in expander(table, A, col).items()}
    print(json.dumps({
        "family": A.to_json(),
        "direction": args.direction,
        "index": [list(w) for w in index],
        "entries": [{"row": list(row), "col": list(col), "coeff": coeff.to_json("v")}
                    for (row, col), coeff in sorted(entries.items())],
    }, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    reports = sweep(_table(args), args.kmax, args.mmax)
    for rep in reports:
        print(json.dumps(rep.to_json(), sort_keys=True))
    counts = summarize(reports)
    print(f"pass={counts['pass']} fail={counts['fail']} skipped={counts['skipped']}",
          file=sys.stderr)
    return 1 if counts["fail"] else 0


def _add_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", help="path of the persistent memo file")
    p.add_argument("--no-cache", action="store_true",
                   help="never read or write a memo file")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klforge",
        description="Kazhdan-Lusztig combinatorics and verification sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kl", help="ordinary polynomial of a pair")
    p.add_argument("--s", type=_parse_perm, required=True)
    p.add_argument("--w", type=_parse_perm, required=True)
    _add_cache(p)
    _add_format(p)
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("pkl", help="parabolic polynomial of a coset pair")
    p.add_argument("--s", type=_parse_perm, required=True)
    p.add_argument("--w", type=_parse_perm, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--variant", choices=("q", "neg1"), default="q")
    _add_cache(p)
    _add_format(p)
    p.set_defaults(func=cmd_pkl)

    p = sub.add_parser("sigma0", help="minimal permutation of a bi-sequence")
    p.add_argument("--a", type=_parse_ints, required=True)
    p.add_argument("--b", type=_parse_ints, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_sigma0)

    p = sub.add_parser("mseg", help="family member at a permutation")
    p.add_argument("--a", type=_parse_ints, required=True)
    p.add_argument("--b", type=_parse_ints, required=True)
    p.add_argument("--perm", type=_parse_perm, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_mseg)

    p = sub.add_parser("expand", help="transition matrix of a family")
    p.add_argument("--family", help='bi-sequence JSON {"a": [...], "b": [...]}')
    p.add_argument("--a", type=_parse_ints)
    p.add_argument("--b", type=_parse_ints)
    p.add_argument("--m", type=int, default=1,
                   help="replicate the family this many times")
    p.add_argument("--direction", choices=("e2g", "g2e"), required=True)
    p.add_argument("--w", type=_parse_perm,
                   help="emit only the expansion of this element")
    _add_cache(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="run the verification sweep")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--mmax", type=int, default=3)
    _add_cache(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
