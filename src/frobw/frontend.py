"""Polynomial and fan parsers, report serialization, and the CLI.

Exit codes: 0 success, 1 usage, 2 parse error, 3 validation failure
(including instances over the size caps), 4 internal-check failure or any
other unexpected exception (always a bug; the message carries the
falsifying datum or the exception).
"""

from __future__ import annotations

import argparse
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
                        fano_report, membership_check, profile)
from .toric import FanData, ToricAlphaReport, toric_alpha


class UsageError(FrobwError):
    """Bad command line (exit code 1)."""


# ---------------------------------------------------------------------------
# polynomial parsing

_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)|(?P<op>[\^*+\-])")


@dataclass
class PolySource:
    """A parsed polynomial together with its raw text and variable table."""

    raw: str
    names: tuple[str, ...]
    poly: PolynomialFp
    warnings: list[str] = field(default_factory=list)


def _tokenize(text: str) -> list[tuple[str, str]]:
    if "(" in text or ")" in text:
        raise ParseError("implicit product parentheses unsupported")
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unknown character {text[pos]!r} at "
                             f"position {pos}")
        tokens.append((m.lastgroup, m.group()))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, p: int,
                     var_names: Sequence[str] | None = None) -> PolySource:
    """Parse a sum of terms: term := [integer][*]? factor ('*'? factor)*,
    factor := ident ('^' posint)?.

    Variable order is first-appearance order unless var_names is given.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    field_ = PrimeField(p)
    warnings: list[str] = []
    names: list[str] = list(var_names) if var_names is not None else []
    fixed_names = var_names is not None

    # split at top-level +/- into signed terms
    terms: list[tuple[int, list[tuple[str, str]]]] = []
    sign = 1
    current: list[tuple[str, str]] = []
    started = False
    for kind, tok in tokens:
        if kind == "op" and tok in "+-" and (started or not current):
            if current:
                terms.append((sign, current))
                current = []
            elif started:
                raise ParseError(f"empty term before {tok!r}")
            sign = -1 if tok == "-" else 1
            started = False
        else:
            current.append((kind, tok))
            started = True
    if current:
        terms.append((sign, current))
    if not terms:
        raise ParseError("empty input")

    accum: dict[tuple[int, ...], int] = {}
    var_index = {n: i for i, n in enumerate(names)}

    for sgn, toks in terms:
        coeff = sgn
        exps: dict[str, int] = {}
        i = 0
        if toks and toks[0][0] == "int":
            coeff *= int(toks[0][1])
            i = 1
            if i < len(toks) and toks[i] == ("op", "*"):
                i += 1
        saw_factor = False
        while i < len(toks):
            kind, tok = toks[i]
            if kind != "ident":
                raise ParseError(f"unexpected {tok!r} in term (expected a "
                                 f"variable)")
            name = tok
            i += 1
            power = 1
            if i < len(toks) and toks[i] == ("op", "^"):
                i += 1
                if i >= len(toks) or toks[i][0] != "int":
                    raise ParseError(f"missing exponent after '^' on {name}")
                power = int(toks[i][1])
                i += 1
                if power == 0:
                    warnings.append(
                        f"exponent 0 on {name}: write the factor absent "
                        f"instead; accepted")
            saw_factor = True
            if name not in var_index:
                if fixed_names:
                    raise ParseError(f"unknown variable {name!r} (not in "
                                     f"the --vars list)")
                var_index[name] = len(names)
                names.append(name)
            exps[name] = exps.get(name, 0) + power
            if i < len(toks) and toks[i] == ("op", "*"):
                i += 1
                if i == len(toks):
                    raise ParseError("dangling '*' at end of term")
        if not saw_factor:
            raise ParseError("term without variables is not supported")
        if coeff % p == 0:
            warnings.append(
                f"coefficient {coeff} vanishes mod {p}; term dropped")
        key = exps
        accum[tuple(sorted(key.items()))] = (
            accum.get(tuple(sorted(key.items())), 0) + coeff)

    v = len(names)
    poly_terms: dict[tuple[int, ...], int] = {}
    for key, c in accum.items():
        e = [0] * v
        for name, a in key:
            e[var_index[name]] = a
        tup = tuple(e)
        poly_terms[tup] = poly_terms.get(tup, 0) + c
    poly = PolynomialFp(field_, v, poly_terms)
    if poly.is_zero():
        raise ParseError("zero polynomial")
    return PolySource(raw=text, names=tuple(names), poly=poly,
                      warnings=warnings)


def format_polynomial(poly: PolynomialFp, names: Sequence[str]) -> str:
    """Canonical text form; re-parsing yields term-identical results."""
    items = sorted(poly.terms.items(),
                   key=lambda kv: (sum(kv[0]), tuple(reversed(kv[0]))),
                   reverse=True)
    parts = []
    for exps, c in items:
        factors = [f"{names[i]}^{a}" if a > 1 else names[i]
                   for i, a in enumerate(exps) if a > 0]
        if not factors:
            raise ValidationError("cannot print a constant term in the "
                                  "input grammar")
        if c != 1:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# fan parsing

def parse_fan(data: bytes | str) -> FanData:
    """Fan JSON: {"dim": d, "rays": [[...],...], "cones": [[i,...],...]},
    0-based integer indices."""
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
    if not isinstance(dim, int):
        raise ParseError("fan 'dim' must be an integer")
    for what, seq in (("rays", rays), ("cones", cones)):
        if not isinstance(seq, list) or not all(
                isinstance(row, list) and all(isinstance(a, int) for a in row)
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
    version: str
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input": self.input,
            "p": self.p,
            "results": self.results,
            "checks": self.checks,
            "version": self.version,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

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
                 raw: str, elapsed_ms: int) -> Report:
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
        version=__version__,
        elapsed_ms=elapsed_ms,
    )


def fano_report_to_report(ring: GradedHypersurface, fr: FanoReport,
                          raw: str, elapsed_ms: int) -> Report:
    results = [_profile_result(ring, pr) for pr in fr.profiles]
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
    results.append({"normalized": normalized})
    return Report(
        kind="fano",
        input={"poly": raw, "vars": list(ring.names),
               "delta": ring.delta, "v": ring.v},
        p=ring.field.p,
        results=results,
        checks={
            "duality_ok": all(pr.duality_ok for pr in fr.profiles),
            "monotone_ok": all(pr.monotone_ok is not False
                               for pr in fr.profiles),
            "conclusive_below_half": fr.conclusive_below_half,
            "min_alpha_upper_normalized": fmt_rational(
                fr.min_alpha_upper_normalized),
            "slack_above_half": fmt_rational(fr.slack_above_half),
        },
        version=__version__,
        elapsed_ms=elapsed_ms,
    )


def toric_report(fan: FanData, rep: ToricAlphaReport,
                 source: str, elapsed_ms: int) -> Report:
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
            "witness_is_vertex": rep.witness_is_vertex,
            "volume": fmt_rational(rep.volume),
            "volume_approx": float(rep.volume),
            "bound": fmt_rational(rep.bound),
            "bound_approx": float(rep.bound),
        }],
        checks={"alpha_le_half": rep.alpha <= Fraction(1, 2),
                "dilation_stable": True},
        version=__version__,
        elapsed_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _parse_levels(spec: str) -> list[int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", spec)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
    elif re.fullmatch(r"\d+", spec):
        a = b = int(spec)
    else:
        raise UsageError(f"--e expects an integer or a..b range, got "
                         f"{spec!r}")
    if a < 1 or b < a:
        raise UsageError(f"bad level range {spec!r}")
    return list(range(a, b + 1))


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expects a positive integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="frobw", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_args(sp):
        sp.add_argument("--p", type=int, required=True, help="prime")
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--poly", help="polynomial text")
        grp.add_argument("--poly-file", help="file containing the polynomial")
        sp.add_argument("--vars", help="comma-separated variable order")
        sp.add_argument("--e", default="1",
                        help="Frobenius level n or range a..b (default 1)")
        sp.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted for older callers; has no effect: "
                             "ranks run on the calling thread")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="write the report here instead of "
                                      "stdout")

    add_poly_args(sub.add_parser("split", help="b-profiles and thresholds"))
    add_poly_args(sub.add_parser("fano", help="normalized Fano report"))

    toric = sub.add_parser("toric-alpha", help="exact toric alpha")
    toric.add_argument("--fan", required=True, help="fan JSON file")
    toric.add_argument("--format", choices=("json", "csv"), default="json")
    toric.add_argument("--out")

    mem = sub.add_parser("membership", help="splitting-ideal membership")
    mem.add_argument("--p", type=int, required=True)
    mem.add_argument("--e", type=int, default=1)
    mem.add_argument("--poly", required=True, help="the hypersurface G")
    mem.add_argument("--element", required=True, help="the element to test")
    mem.add_argument("--vars")

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--deep", action="store_true",
                     help="add oracle-equivalence checks")
    return parser


def _read_poly_text(args) -> str:
    if args.poly is not None:
        return args.poly
    try:
        with open(args.poly_file, encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise UsageError(f"cannot read {args.poly_file}: {ex}") from ex


def _emit(report: Report, args, stream: TextIO) -> None:
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stream.write(text)


def _build_ring(args, stream: TextIO) -> tuple[GradedHypersurface, str]:
    text = _read_poly_text(args)
    var_names = args.vars.split(",") if args.vars else None
    src = parse_polynomial(text, args.p, var_names)
    for w in src.warnings:
        print(f"warning: {w}", file=sys.stderr)
    ring = GradedHypersurface(PrimeField(args.p), src.names, src.poly)
    return ring, text


def _cmd_split(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    ring, text = _build_ring(args, stream)
    levels = _parse_levels(args.e)
    profiles: list[SplittingProfile] = []
    prev = None
    for e in range(1, max(levels) + 1):
        prev = profile(ring, e, prev=prev)
        if e in levels:
            profiles.append(prev)
    rep = split_report(ring, profiles, text,
                       int((time.monotonic() - t0) * 1000))
    _emit(rep, args, stream)
    return 0


def _cmd_fano(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    ring, text = _build_ring(args, stream)
    if ring.fano_coindex <= 0:
        raise ValidationError(f"non-Fano: v-delta = {ring.fano_coindex}")
    levels = _parse_levels(args.e)
    fr = fano_report(ring, max(levels))
    rep = fano_report_to_report(ring, fr, text,
                                int((time.monotonic() - t0) * 1000))
    _emit(rep, args, stream)
    return 0


def _cmd_toric(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    try:
        with open(args.fan, "rb") as fh:
            data = fh.read()
    except OSError as ex:
        raise UsageError(f"cannot read {args.fan}: {ex}") from ex
    fan = parse_fan(data)
    result = toric_alpha(fan)
    rep = toric_report(fan, result, args.fan,
                       int((time.monotonic() - t0) * 1000))
    _emit(rep, args, stream)
    return 0


def _cmd_membership(args, stream: TextIO) -> int:
    t0 = time.monotonic()
    var_names = args.vars.split(",") if args.vars else None
    src = parse_polynomial(args.poly, args.p, var_names)
    elem = parse_polynomial(args.element, args.p, src.names)
    for w in src.warnings + elem.warnings:
        print(f"warning: {w}", file=sys.stderr)
    ring = GradedHypersurface(PrimeField(args.p), src.names, src.poly)
    res = membership_check(ring, args.e, elem.poly)
    rep = Report(
        kind="membership",
        input={"poly": args.poly, "element": args.element,
               "vars": list(src.names), "e": args.e},
        p=args.p,
        results=[{"member": bool(res),
                  "in_principal_ideal": res.in_principal_ideal}],
        checks={},
        version=__version__,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )
    stream.write(rep.to_json() + "\n")
    return 0


def _cmd_verify(args, stream: TextIO) -> int:
    from .acceptance import run_acceptance
    return run_acceptance(deep=args.deep, stream=stream)


def run_cli(argv: Sequence[str],
            stream: TextIO | None = None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
