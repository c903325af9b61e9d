"""Polynomial and fan parsers, report builders, and the CLI.

Each request takes one path: parse_polynomial or parse_fan reads its text,
splitting or toric computes, one report builder makes the Report, and _emit
writes it as JSON or CSV.

Polynomial grammar (whitespace between tokens is ignored):
    poly   := sign* term (sign+ term)*     sign := '+' | '-'
    term   := [integer ['*']] factor (['*'] factor)*
    factor := ident ['^' integer]          ident := letter (letter | digit)*
Consecutive signs multiply ("x - -y" is x + y); a sign after the last term
is an error.  Variables are ordered by first appearance, or by --vars,
whose names must be distinct identifiers.

Exit codes: 0 success, 1 usage, 2 parse error, 3 validation failure
(including instances over the size caps), 4 internal-check failure or any
other unexpected exception (always a bug; the message carries the
falsifying datum or the exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, TextIO

from . import __version__
from .errors import (FrobwError, InternalCheckError, ParseError,
                     ValidationError)
from .ffkernel import PolynomialFp, PrimeField
from .splitting import (FanoReport, GradedHypersurface, SplittingProfile,
                        check_level, fano_report, membership_check,
                        profile)
from .toric import FanData, ToricAlphaReport, toric_alpha


class UsageError(FrobwError):
    """Bad command line (exit code 1)."""


# ---------------------------------------------------------------------------
# polynomial parsing

_IDENT = r"[A-Za-z][A-Za-z0-9]*"
_TOKEN_RE = re.compile(rf"(?P<ident>{_IDENT})|(?P<int>\d+)|(?P<op>[\^*+\-])"
                       r"|(?P<space>\s+)|(?P<bad>.)")


@dataclass
class PolySource:
    """A parsed polynomial together with its variable table."""

    names: tuple[str, ...]
    poly: PolynomialFp
    warnings: list[str] = field(default_factory=list)


def _tokenize(text: str) -> list[tuple[str, str]]:
    if "(" in text or ")" in text:
        raise ParseError("implicit product parentheses unsupported")
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unknown character {m.group()!r} at "
                             f"position {m.start()}")
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group()))
    return tokens


def parse_polynomial(text: str, p: int,
                     var_names: Sequence[str] | None = None) -> PolySource:
    """Parse text in the grammar of the module docstring, in one pass.

    Variable order is first-appearance order unless var_names is given.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    field_ = PrimeField(p)
    names = list(var_names) if var_names is not None else []
    index: dict[str, int] = {}
    for name in names:
        if name in index or not re.fullmatch(_IDENT, name):
            what = "repeated" if name in index else "not an identifier"
            raise ParseError(f"--vars name {name!r} is {what}: names must be "
                             f"distinct identifiers")
        index[name] = len(index)
    warnings: list[str] = []
    parsed: list[tuple[int, dict[int, int]]] = []  # (coefficient, exponents)
    sign, i, n = 1, 0, len(tokens)

    def at(*ops: str) -> bool:  # no ident or int token is an operator
        return i < n and tokens[i][1] in ops

    while i < n:
        if at("+", "-"):
            sign = -sign if tokens[i][1] == "-" else sign
            i += 1
            continue
        coeff, exps, sign = sign, {}, 1
        if tokens[i][0] == "int":
            coeff *= int(tokens[i][1])
            i += 1
            if at("*"):
                i += 1
        while i < n and not at("+", "-"):
            kind, name = tokens[i]
            if kind != "ident":
                raise ParseError(f"unexpected {name!r} in term (expected a "
                                 f"variable)")
            i += 1
            power = 1
            if at("^"):
                i += 1
                if i == n or tokens[i][0] != "int":
                    raise ParseError(f"missing exponent after '^' on {name}")
                power = int(tokens[i][1])
                i += 1
                if power == 0:
                    warnings.append(
                        f"exponent 0 on {name}: write the factor absent "
                        f"instead; accepted")
            if name not in index:
                if var_names is not None:
                    raise ParseError(f"unknown variable {name!r} (not in "
                                     f"the --vars list)")
                index[name] = len(names)
                names.append(name)
            exps[index[name]] = exps.get(index[name], 0) + power
            if at("*"):
                i += 1
                if i == n or at("+", "-"):
                    raise ParseError("dangling '*' at end of term")
        if not exps:
            raise ParseError("term without variables is not supported")
        if coeff % p == 0:
            warnings.append(
                f"coefficient {coeff} vanishes mod {p}; term dropped")
        parsed.append((coeff, exps))
    if not parsed:
        raise ParseError("empty input")
    if tokens[-1][1] in ("+", "-"):
        raise ParseError(f"trailing {tokens[-1][1]!r} after the last term")

    terms: dict[tuple[int, ...], int] = {}
    for coeff, exps in parsed:
        key = tuple(exps.get(j, 0) for j in range(len(names)))
        terms[key] = terms.get(key, 0) + coeff
    poly = PolynomialFp(field_, len(names), terms)
    if poly.is_zero():
        raise ParseError("zero polynomial")
    return PolySource(names=tuple(names), poly=poly, warnings=warnings)


# ---------------------------------------------------------------------------
# fan parsing

def parse_fan(data: bytes | str) -> FanData:
    """Fan JSON: {"dim": d, "rays": [[...],...], "cones": [[i,...],...]},
    0-based integer indices; JSON booleans are not integers."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as ex:
        raise ParseError(f"fan JSON malformed: {ex}") from ex
    if not isinstance(obj, dict):
        raise ParseError("fan JSON must be an object")
    for key in ("dim", "rays", "cones"):
        if key not in obj:
            raise ParseError(f"fan JSON missing key {key!r}")
    dim, rays, cones = obj["dim"], obj["rays"], obj["cones"]
    if type(dim) is not int:
        raise ParseError("fan 'dim' must be an integer")
    for what, seq in (("rays", rays), ("cones", cones)):
        if not isinstance(seq, list) or not all(
                isinstance(row, list) and all(type(a) is int for a in row)
                for row in seq):
            raise ParseError(f"fan {what!r} must be a list of integer lists")
    return FanData(dim, rays, cones)


# ---------------------------------------------------------------------------
# reports

def fmt_rational(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


@dataclass
class Report:
    """Machine-readable record of a computation plus provenance."""

    kind: str
    input: dict
    p: int | None
    results: list
    checks: dict
    version: str = __version__
    elapsed_ms: int = 0  # set by _emit

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = ["e,m,dimRm,b,dimIe"]
        for res in self.results:
            for row in res.get("rows", []):
                lines.append(f"{row['e']},{row['m']},{row['dimRm']},"
                             f"{row['b']},{row['dimIe']}")
        return "\n".join(lines) + "\n"


def _profile_result(ring: GradedHypersurface, pr: SplittingProfile) -> dict:
    rows = []
    for m, b in enumerate(pr.b):
        dim = ring.dim_R(m)
        rows.append({"e": pr.e, "m": m, "dimRm": dim, "b": b,
                     "dimIe": dim - b})
    return {
        "e": pr.e,
        "q": pr.q,
        "M_e": pr.M_e,
        "b": list(pr.b),
        "m_e": pr.m_e,
        "alpha_e": fmt_rational(pr.alpha_e),
        "alpha_e_approx": float(pr.alpha_e),
        "alpha_upper": fmt_rational(pr.alpha_upper),
        "alpha_upper_approx": float(pr.alpha_upper),
        "a_e": pr.a_e,
        "s_raw": fmt_rational(pr.s_raw),
        "s_raw_approx": float(pr.s_raw),
        "duality_ok": pr.duality_ok,
        "monotone_ok": pr.monotone_ok,
        "rows": rows,
    }


def split_report(ring: GradedHypersurface, profiles: list[SplittingProfile],
                 raw: str) -> Report:
    return Report(
        kind="split",
        input={"poly": raw, "vars": list(ring.names),
               "delta": ring.delta, "v": ring.v},
        p=ring.field.p,
        results=[_profile_result(ring, pr) for pr in profiles],
        checks={
            "duality_ok": all(pr.duality_ok for pr in profiles),
            "monotone_ok": all(pr.monotone_ok is not False
                               for pr in profiles),
        },
    )


def fano_report_to_report(ring: GradedHypersurface, fr: FanoReport,
                          raw: str) -> Report:
    """The split report of fr's profiles plus the normalized entry and its
    three checks."""
    rep = split_report(ring, fr.profiles, raw)
    rep.kind = "fano"
    normalized = {
        "coindex": fr.coindex,
        "alpha_normalized_estimates": [fmt_rational(x) for x in
                                       fr.alpha_normalized_estimates],
        "alpha_normalized_upper": [fmt_rational(x) for x in
                                   fr.alpha_normalized_upper],
        "s_normalized": [fmt_rational(x) for x in fr.s_normalized],
        "volume": fr.volume,
        "bound": fmt_rational(fr.bound),
        "bound_approx": float(fr.bound),
    }
    if fr.s_half_normalized is not None:
        normalized["s_half_normalized"] = [fmt_rational(x) for x in
                                           fr.s_half_normalized]
    rep.results.append({"normalized": normalized})
    rep.checks.update(
        conclusive_below_half=fr.conclusive_below_half,
        min_alpha_upper_normalized=fmt_rational(
            fr.min_alpha_upper_normalized),
        slack_above_half=fmt_rational(fr.slack_above_half))
    return rep


def toric_report(fan: FanData, rep: ToricAlphaReport, source: str) -> Report:
    return Report(
        kind="toric-alpha",
        input={"fan": source, "dim": fan.d, "rays": [list(r) for r
                                                     in fan.rays]},
        p=None,
        results=[{
            "r": rep.r,
            "alpha": fmt_rational(rep.alpha),
            "alpha_approx": float(rep.alpha),
            "witness_u": list(rep.witness_u),
            "witness_ray": rep.witness_ray,
            "witness_is_vertex": True,
            "volume": fmt_rational(rep.volume),
            "volume_approx": float(rep.volume),
            "bound": fmt_rational(rep.bound),
            "bound_approx": float(rep.bound),
        }],
        checks={"alpha_le_half": rep.alpha <= Fraction(1, 2),
                "dilation_stable": True},
    )


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _parse_levels(spec: str) -> range:
    """The levels of --e, b or a..b, as a range: a huge b costs nothing."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", spec)
    if not m:
        raise UsageError(f"--e expects an integer or a..b range, got "
                         f"{spec!r}")
    a, b = int(m[1]), int(m[2] or m[1])
    if a < 1 or b < a:
        raise UsageError(f"bad level range {spec!r}")
    return range(a, b + 1)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expects a positive integer, got {text!r}")
    return value


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    """argparse takes a word that starts with '-' for an option, which would
    leave --poly in "--poly -x^2-y^2" without its text.  So a word that
    starts with one '-' and follows --poly or --element is joined to it:
    "--poly=-x^2-y^2"."""
    out: list[str] = []
    for word in argv:
        if (out and out[-1] in ("--poly", "--element")
                and word.startswith("-") and not word.startswith("--")):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once: parsing leaves it unchanged."""
    parser = _Parser(prog="frobw", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_args(sp, levels_help):
        sp.add_argument("--p", type=int, required=True, help="prime")
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--poly", help="polynomial text")
        grp.add_argument("--poly-file", help="file containing the polynomial")
        sp.add_argument("--vars", type=lambda text: text.split(","),
                        help="comma-separated variable order")
        sp.add_argument("--e", default="1", help=levels_help)
        sp.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted for older callers; has no effect: "
                             "ranks run on the calling thread")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="write the report here instead of "
                                      "stdout")

    add_poly_args(sub.add_parser("split", help="b-profiles and thresholds"),
                  "Frobenius level n or range a..b (default 1)")
    add_poly_args(sub.add_parser("fano", help="normalized Fano report"),
                  "top Frobenius level b, or 1..b: every level from 1 to b "
                  "is reported (default 1)")

    toric = sub.add_parser("toric-alpha", help="exact toric alpha")
    toric.add_argument("--fan", required=True, help="fan JSON file")
    toric.add_argument("--format", choices=("json",), default="json",
                       help="json only: a toric report has no b-profile "
                            "table")
    toric.add_argument("--out")

    mem = sub.add_parser("membership", help="splitting-ideal membership")
    mem.add_argument("--p", type=int, required=True)
    mem.add_argument("--e", type=int, default=1)
    mem.add_argument("--poly", required=True, help="the hypersurface G")
    mem.add_argument("--element", required=True, help="the element to test")
    mem.add_argument("--vars", type=lambda text: text.split(","))
    mem.set_defaults(format="json", out=None)

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--deep", action="store_true",
                     help="add oracle-equivalence checks")
    return parser


def _emit(report: Report, args, stream: TextIO, t0: float) -> int:
    """Stamp the report with the milliseconds since t0 and write it."""
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stream.write(text)
    return 0


def _ring(p: int, *sources: PolySource) -> GradedHypersurface:
    """The ring of the first source; prints every source's warnings."""
    for src in sources:
        for w in src.warnings:
            print(f"warning: {w}", file=sys.stderr)
    return GradedHypersurface(PrimeField(p), sources[0].names,
                              sources[0].poly)


def _build_ring(args) -> tuple[GradedHypersurface, str]:
    text = args.poly
    if text is None:
        try:
            with open(args.poly_file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as ex:
            raise UsageError(f"cannot read {args.poly_file}: {ex}") from ex
    src = parse_polynomial(text, args.p, args.vars)
    return _ring(args.p, src), text


def _cmd_split(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    ring, text = _build_ring(args)
    levels = _parse_levels(args.e)
    check_level(ring, levels[-1])  # refused before level 1 is ranked
    profiles: list[SplittingProfile] = []
    prev = None
    for e in range(1, levels[-1] + 1):
        prev = profile(ring, e, prev=prev)
        if e in levels:
            profiles.append(prev)
    return _emit(split_report(ring, profiles, text), args, stream, t0)


def _cmd_fano(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    levels = _parse_levels(args.e)
    if ".." in args.e and levels[0] > 1:
        raise UsageError(f"fano reports every level from 1 to b: give --e "
                         f"as b or 1..b, got {args.e!r}")
    ring, text = _build_ring(args)
    fr = fano_report(ring, levels[-1])
    return _emit(fano_report_to_report(ring, fr, text), args, stream, t0)


def _cmd_toric(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    try:
        with open(args.fan, "rb") as fh:
            data = fh.read()
    except OSError as ex:
        raise UsageError(f"cannot read {args.fan}: {ex}") from ex
    fan = parse_fan(data)
    rep = toric_report(fan, toric_alpha(fan), args.fan)
    return _emit(rep, args, stream, t0)


def _cmd_membership(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    src = parse_polynomial(args.poly, args.p, args.vars)
    elem = parse_polynomial(args.element, args.p, src.names)
    res = membership_check(_ring(args.p, src, elem), args.e, elem.poly)
    rep = Report(
        kind="membership",
        input={"poly": args.poly, "element": args.element,
               "vars": list(src.names), "e": args.e},
        p=args.p,
        results=[{"member": bool(res),
                  "in_principal_ideal": res.in_principal_ideal}],
        checks={},
    )
    return _emit(rep, args, stream, t0)


def _cmd_verify(args, stream: TextIO) -> int:
    from .acceptance import run_acceptance
    return run_acceptance(deep=args.deep, stream=stream)


def run_cli(argv: Sequence[str],
            stream: TextIO | None = None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
        handler = {
            "split": _cmd_split,
            "fano": _cmd_fano,
            "toric-alpha": _cmd_toric,
            "membership": _cmd_membership,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args, stream)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 1
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except InternalCheckError as ex:
        print(f"internal check failed (this is a bug): {ex}",
              file=sys.stderr)
        return 4
    except ValidationError as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return 3
    except Exception as ex:  # the CLI boundary: no traceback escapes
        print(f"unexpected error (this is a bug): "
              f"{type(ex).__name__}: {ex}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
