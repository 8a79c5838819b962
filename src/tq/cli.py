"""Command-line interface.

Subcommands:
  tq compute --d1 D1 --d2 D2 [--json] [--m M] [--sign plus|minus]
             [--extra-s p,q,...]
  tq sweep --max N [--json]              (N <= SWEEP_MAX = 7000)
  tq selftest
  tq lemma38 --conductor-max N --tol T   (5 <= N <= CONDUCTOR_MAX = 7000)

Time grows as N^2; at the caps, `tq sweep --max 7000 --json` takes about
1.1 s (0.4 s of it in `sweep`) and lemma38 about 2.5 s on a shared 2-CPU
Intel Xeon x86-64 machine (medians; see README).

Exit codes: 0 vanishes / all checks pass, 1 any other `tq` error or a
closed stdout, 2 inadmissible, 3 nonzero torsion (or a failed
verification), 4 input error, argument parse errors included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import starmap

from .arith import is_squarefree
from .biquadratic import field_data, quad_field_disc
from .invariant import (INADMISSIBLE_NOTE, VERDICT_INADMISSIBLE,
                             VERDICT_NONZERO, VERDICT_VANISHES, leading_ratio_check,
                             omega_loc_torsion, resolvent_factor_check, sweep)
from .errors import InputError, TqError
from .grouprings import V4_A, V4_B, V4_CHARS
from .localterms import (LatticeExponent, TameComplexSpec, build_tame_complex,
                         local_term_closed_form, local_term_via_complex,
                         residue_class, valuation_iso, verify_residue_resolution)
from .perfectcomplex import class_representative
from .relk0 import HomRep, torsion_class

EXIT_VANISHES = 0
EXIT_INADMISSIBLE = 2
EXIT_NONZERO = 3
EXIT_INPUT = 4

SWEEP_MAX = 7000
CONDUCTOR_MAX = 7000


def _parse_lattice(args) -> LatticeExponent:
    return LatticeExponent(args.m, 1 if args.sign == "plus" else -1)


def _parse_extra(text: str | None) -> list[int]:
    if not text:
        return []
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"--extra-s expects comma-separated integers, "
                         f"got {text!r}") from None


def cmd_compute(args) -> int:
    report = omega_loc_torsion(args.d1, args.d2,
                               s_extra=_parse_extra(args.extra_s),
                               lat=_parse_lattice(args))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        f = report.field
        print(f"E = Q(sqrt({f.d1}), sqrt({f.d2}))   third subfield: sqrt({f.d3})")
        print(f"ramified/extra primes: {list(report.per_prime)}")
        for p, pr in report.per_prime.items():
            loc = pr.local.to_json_dict()
            tag = "full decomposition" if pr.local.full_decomposition else \
                f"|D| = {len(pr.local.decomposition)}"
            print(f"  p = {p}: inertia {loc['inertia']}, Frobenius "
                  f"{loc['frobenius']} ({tag})")
        if report.verdict == VERDICT_INADMISSIBLE:
            print("verdict: inadmissible --", INADMISSIBLE_NOTE)
        else:
            if report.resolvent_check is not None:
                rc = report.resolvent_check
                print(f"resolvent quotient check: {rc.status}"
                      + (f" (r = {rc.value}, {rc.completion})" if rc.value is not None else
                         f" ({rc.reason})"))
            print(f"torsion class: {report.torsion}   verdict: {report.verdict}")
    if report.verdict == VERDICT_INADMISSIBLE:
        return EXIT_INADMISSIBLE
    return EXIT_VANISHES if report.verdict == VERDICT_VANISHES else EXIT_NONZERO


def cmd_sweep(args) -> int:
    if args.max > SWEEP_MAX:
        raise InputError(f"--max must be at most {SWEEP_MAX}, got {args.max}")
    summary = sweep(args.max)
    if args.json:
        # The encoder writes all but the pairs, ending in `"nonzero_fields": []\n}`.
        # Each pair, an int pair at depth 1, is one template in the encoder's layout.
        text = json.dumps(summary._replace(nonzero_fields=[]).to_json_dict(), indent=2)
        if summary.nonzero_fields:
            pairs = ",\n".join(starmap("    [\n      {},\n      {}\n    ]".format,
                                       summary.nonzero_fields))
            text = text.removesuffix("[]\n}") + "[\n" + pairs + "\n  ]\n}"
        print(text)
    else:
        print(f"pairs scanned: {summary.n_fields} (1 < d1 < d2 <= {args.max}, squarefree)")
        for verdict in (VERDICT_VANISHES, VERDICT_NONZERO, VERDICT_INADMISSIBLE):
            print(f"  {verdict}: {summary.counts[verdict]}")
        if summary.nonzero_fields:
            print("NONZERO TORSION FIELDS (predicted vanishing fails here):")
            sys.stdout.writelines(starmap("  d1 = {}, d2 = {}\n".format,
                                          summary.nonzero_fields))
    return EXIT_NONZERO if summary.nonzero_fields else EXIT_VANISHES


def _selftest_cases():
    from .grouprings import idempotent, GroupRingElem
    yield ("idempotents sum to 1 and are orthogonal",
           lambda: sum((idempotent(c) for c in V4_CHARS),
                       GroupRingElem.zero()) == GroupRingElem.one()
           and all((idempotent(c) * idempotent(d)).is_zero()
                   for c in V4_CHARS for d in V4_CHARS if c != d))

    def tame_fixtures():
        for p in (3, 5, 7, 11, 13, 17, 19):
            spec = TameComplexSpec(p, V4_A, V4_B)
            rep = class_representative(build_tame_complex(spec),
                                       valuation_iso(spec))
            expected = {"1": Fraction(1, 2 * p - 2), "chi1": Fraction(-1),
                        "chi2": Fraction(-2, p + 1), "chi1chi2": Fraction(-1)}
            if any(rep[k] != v for k, v in expected.items()):
                return False
        return True
    yield ("tame complex determinants, p in 3..19", tame_fixtures)

    yield ("residue resolution identities, p <= 50",
           lambda: all(verify_residue_resolution(p, V4_A).ok
                       for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)))

    yield ("residue class values at p = 5",
           lambda: residue_class(5, V4_A).as_tuple() == (Fraction(5), Fraction(1),
                                                         Fraction(5), Fraction(1)))

    yield ("torsion of (3,1,1,1) is 3",
           lambda: torsion_class(HomRep((3, 1, 1, 1))) == 3)

    def local_routes():
        from .biquadratic import local_galois
        f = field_data(5, 13)
        for p in (5, 13):
            loc = local_galois(f, p)
            for m in (1, 2):
                for sign in (1, -1):
                    lat = LatticeExponent(m, sign)
                    a = torsion_class(local_term_closed_form(p, loc, lat))
                    b = torsion_class(local_term_via_complex(p, loc, lat))
                    if a != b:
                        return False
        return True
    yield ("closed form vs determinant route agree mod 4", local_routes)

    def worked_fields():
        if omega_loc_torsion(5, 13).verdict != VERDICT_VANISHES:
            return False
        if omega_loc_torsion(13, 17).verdict != VERDICT_VANISHES:
            return False
        if omega_loc_torsion(2, 5).verdict != VERDICT_INADMISSIBLE:
            return False
        rc = resolvent_factor_check(field_data(2, 17))
        return rc is not None and rc.status == "pass" and rc.value == Fraction(17, 1024)
    yield ("worked field examples incl. (2,17) quotient 17/1024", worked_fields)


def cmd_selftest(_args) -> int:
    failures = 0
    for name, check in _selftest_cases():
        try:
            ok = check()
        except TqError as exc:
            ok = False
            name = f"{name} [{exc}]"
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return EXIT_VANISHES if failures == 0 else EXIT_NONZERO


def cmd_lemma38(args) -> int:
    if not 0 < args.tol < math.inf:
        raise InputError(f"--tol must be a finite number > 0, got {args.tol}")
    if args.conductor_max > CONDUCTOR_MAX:
        raise InputError(f"--conductor-max must be at most {CONDUCTOR_MAX}, "
                         f"got {args.conductor_max}")
    if args.conductor_max < 5:
        raise InputError(f"--conductor-max must be at least 5, the least conductor "
                         f"of an even quadratic character, got {args.conductor_max}")
    failures = 0
    rows = []
    for d in range(2, args.conductor_max + 1):
        if not is_squarefree(d):
            continue
        cond = quad_field_disc(d)
        if cond > args.conductor_max:
            continue
        f = field_data(2, d) if d != 2 else field_data(2, 3)
        label = next(lbl for lbl, sub in f.char_to_subfield.items() if sub == d)
        check = leading_ratio_check(label, f, tol=args.tol)
        rows.append((cond, d, check))
        if not check.ok:
            failures += 1
    rows.sort()
    for cond, d, check in rows:
        print(f"{'PASS' if check.ok else 'FAIL'}  conductor {cond:4d} "
              f"(d = {d:3d})  |ratio^2 - 4/f| = {check.abs_error_squared:.3e}")
    print(f"{len(rows)} characters checked, {failures} failures (tol {args.tol:g})")
    return EXIT_VANISHES if failures == 0 else EXIT_NONZERO


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as an input error (exit 4), not by argparse's
    own exit 2, which here means "inadmissible"."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


# name: (help, handler, {option flag: the keywords of its add_argument})
COMMANDS = {
    "compute": ("one field", cmd_compute, {
        "--d1": dict(type=int, required=True),
        "--d2": dict(type=int, required=True),
        "--json": dict(action="store_true"),
        "--m": dict(type=int, default=1),
        "--sign": dict(choices=("plus", "minus"), default="plus"),
        "--extra-s": dict(type=str, default="",
                          help="comma-separated extra odd primes to enlarge S")}),
    "sweep": ("all squarefree pairs up to a bound", cmd_sweep, {
        "--max": dict(type=int, required=True), "--json": dict(action="store_true")}),
    "selftest": ("run the built-in fixture checks", cmd_selftest, {}),
    "lemma38": ("numeric check of the leading-coefficient ratio against 4/f", cmd_lemma38,
                {"--conductor-max": dict(type=int, default=60),
                 "--tol": dict(type=float, default=1e-8)}),
}


def build_parser() -> argparse.ArgumentParser:
    """The full `tq` parser, with a subparser for every command."""
    parser = _Parser(
        prog="tq",
        description="Exact 2-adic torsion invariant of biquadratic fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for flag, kwargs in options.items():
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """argv, whose argv[0] names a command, read straight from that
    command's `COMMANDS` declarations, or None (declined) when argparse
    could read it differently. Every word must be a flag of the command,
    spelled out; each flag but a `store_true` one takes the next word, which
    must not start with `-`, through its `type` and then its `choices`. A
    required flag must be given; any other gets its default."""
    _help, func, options = COMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for flag in words:
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        word = next(words, None)
        if word is None or word.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(word)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace()
    for flag, kwargs in options.items():
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default",
                               False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    args.func = func
    return args


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it, help and errors included.
    A plain command line is read from `COMMANDS` (`_plain_args`); only any
    other line builds the full parser."""
    args = _plain_args(argv) if argv and argv[0] in COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (`tq sweep ... | head`). Point fd 1 at
        # devnull so that the flush at shutdown fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
