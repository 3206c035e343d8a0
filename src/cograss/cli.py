"""Command-line front end.

Five subcommands: ``roots`` (diagram and root-system data), ``smooth``
(the smoothness criteria for one affine Levi element), ``conormal``
(the full report for one minimal representative, optionally with the
fibre decomposition), ``detvar`` (the skew-symmetric determinantal
fibre theorem for one (n, r)), and ``verify`` (named lemma sweeps with
a pass/fail exit code).

One table, ``COMMANDS``, drives the command line: each subcommand's help
text, handler and arguments, as (flag, ``add_argument`` options) pairs,
sit in one entry, and ``build_parser`` adds every subcommand, with
``--json``, by looping over it.  A handler returns (JSON payload, text
lines, exit code), and ``main`` prints one of the two once the handler
has returned.

Exit codes: 0 on success or all-pass; 1 on any failed check, and on a
broken library invariant (``InvariantError``), reported on stderr as
``invariant violated: <msg>`` with nothing on stdout; 2 on usage errors
including precondition violations from the library (``ValueError``); a
``verify`` sweep that the rank cap leaves without a single check is one
of them.
JSON output is byte-stable for fixed inputs: keys are sorted and no
timing data is emitted unless --timing is given.

The argparse tree is built once per process: ``build_parser`` is cached,
and each ``main`` call parses its argv into a fresh namespace, so a
long-running caller pays per query only for the mathematics.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import checks, conormal, detvar
from .cominuscule import build_context, cominuscule_nodes
from .rootsys import InvariantError, build_diagram, highest_root, positive_roots


def _parse_element(ctx, text: str):
    """Word form always; bracketed signed permutations for type-D queries."""
    text = text.strip()
    if text.startswith("["):
        return detvar.element_of(ctx, detvar.parse_perm(text))
    return ctx.group.from_word_str(text)


def _roots(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    diagram = build_diagram(args.type, args.rank, affine=args.affine)
    payload: dict = {
        "type": args.type,
        "rank": args.rank,
        "affine": args.affine,
        "nodes": list(diagram.nodes),
        "cartan": [list(row) for row in diagram.cartan],
        "cominuscule_nodes": list(cominuscule_nodes(args.type, args.rank)),
    }
    lines = [f"diagram {args.type}{args.rank}" + (" (affine)" if args.affine else ""),
             f"nodes: {' '.join(str(n) for n in diagram.nodes)}"]
    if args.affine:
        payload["delta"] = list(diagram.delta)
        lines.append(f"delta marks: {' '.join(str(m) for m in diagram.delta)}")
    else:
        roots = sorted(positive_roots(diagram))
        payload["positive_roots"] = [list(r) for r in roots]
        payload["highest_root"] = list(highest_root(diagram))
        lines.append(f"positive roots ({len(roots)}):")
        lines.extend("  " + " ".join(str(c) for c in r) for r in roots)
        lines.append("highest root: "
                     + " ".join(str(c) for c in payload["highest_root"]))
    lines.append("cominuscule nodes: "
                 + (" ".join(str(d) for d in payload["cominuscule_nodes"]) or "none"))
    return payload, lines, 0


def _smooth(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    ctx = build_context(args.type, args.rank, args.comin)
    u = _parse_element(ctx, args.u)
    report = conormal.is_smooth(ctx, u)
    payload = {
        "type": args.type, "rank": args.rank, "d": args.comin,
        "u_word": u.word_str(),
        **conormal.smoothness_to_dict(report),
        "witness": [report.witness[0].word_str(), report.witness[1].word_str()],
        "smooth": report.smooth,
    }
    lines = [f"u = {u.word_str() or 'e'} in the affine Levi of {args.type}{args.rank}, d={args.comin}",
             f"criteria: c3={report.c3} c4={report.c4} c5={report.c5} c6={report.c6}",
             f"support L: {' '.join(str(i) for i in report.support) or '(empty)'}",
             f"smooth: {report.smooth}"]
    return payload, lines, 0


def _conormal(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    ctx = build_context(args.type, args.rank, args.comin)
    w = _parse_element(ctx, args.w)
    want_fibre = args.fibre or args.full_fibre
    report = conormal.closure_is_schubert(ctx, w, with_fibre=want_fibre,
                                          full_fibre=args.full_fibre)
    payload = conormal.report_to_dict(ctx, report)
    lines = [f"w  = {report.w.word_str() or 'e'}",
             f"v  = {report.v.word_str() or 'e'}",
             f"wv = {report.wv.word_str() or 'e'}",
             f"|R| = {report.root_bits.bit_count()}",
             f"dual element smooth: {report.smooth.smooth}",
             f"closure is Schubert: {report.closure_is_schubert}"]
    if want_fibre and report.fibre_max is None:
        lines.append("fibre: refused (closure is not a Schubert variety)")
        payload["fibre_refused"] = True
    elif report.fibre_max is not None:
        lines.append("fibre maxima: "
                     + "; ".join(sorted(u.word_str() or "e" for u in report.fibre_max)))
        if report.fibre_all is not None:
            lines.append(f"fibre size: {len(report.fibre_all)}")
    return payload, lines, 0


def _detvar(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    corank, witness = detvar.fibre_rank(args.n, args.r)
    payload = {
        "n": args.n, "r": args.r,
        "even_rank": detvar.even_rank(args.n),
        "fibre_rank": corank,
        "witness": str(witness),
        "stratum": str(detvar.skew_rank_element(args.n, args.r)),
    }
    lines = [f"skew-symmetric {args.n} x {args.n} matrices of rank <= {args.r}",
             f"stratum element: {payload['stratum']}",
             f"conormal fibre at 0 has rank {corank}",
             f"witness element: {payload['witness']}"]
    return payload, lines, 0


def _verify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    report = checks.run_suite(args.suite, max_rank=args.max_rank,
                              include_e7=args.include_e7)
    payload: dict = {
        "suite": report.suite,
        "max_rank": report.max_rank,
        "include_e7": report.include_e7,
        "total": len(report.checks),
        "failed": len(report.failed),
        "pass": report.all_pass,
        "checks": [
            {"id": c.check_id, "params": c.params, "pass": c.passed,
             **({"note": c.note} if c.note else {}),
             **({"elapsed": round(c.elapsed, 6)} if args.timing and c.elapsed is not None else {})}
            for c in report.checks
        ],
    }
    width = max((len(c.check_id) for c in report.checks), default=0)
    pwidth = max((len(c.params) for c in report.checks), default=0)
    lines = []
    for c in report.checks:
        line = (f"{c.check_id:<{width}}  {c.params:<{pwidth}}  "
                + ("pass" if c.passed else "FAIL"))
        if args.timing and c.elapsed is not None:
            line += f"  {c.elapsed:.3f}s"
        if c.note:
            line += f"  [{c.note}]"
        lines.append(line)
    lines.append(f"{len(report.checks) - len(report.failed)}/{len(report.checks)} checks passed")
    return payload, lines, 0 if report.all_pass else 1


_TYPE = ("--type", {"required": True, "choices": list("ABCDE")})
_INT = {"required": True, "type": int}
_ELEMENT = {"required": True, "help": "space-separated word ('' for the identity); "
                                      "type-D fork queries also accept [v1,...,vn]"}
_FLAG = {"action": "store_true"}

COMMANDS = {  # name -> (help, handler, (flag, add_argument options) pairs); each adds --json
    "roots": ("diagram and root system data", _roots,
              [_TYPE, ("--rank", _INT), ("--affine", _FLAG)]),
    "smooth": ("smoothness criteria for one element", _smooth,
               [_TYPE, ("--rank", _INT), ("--comin", _INT), ("--u", _ELEMENT)]),
    "conormal": ("conormal report for one element", _conormal,
                 [_TYPE, ("--rank", _INT), ("--comin", _INT), ("--w", _ELEMENT),
                  ("--fibre", {**_FLAG, "help": "include the Bruhat-maximal fibre labels"}),
                  ("--full-fibre", {**_FLAG, "help": "include the whole fibre index set"})]),
    "detvar": ("skew-symmetric determinantal fibre", _detvar, [("--n", _INT), ("--r", _INT)]),
    "verify": ("run a named verification suite", _verify,
               [("--suite", {"required": True, "choices": sorted(checks.SUITES) + ["all"]}),
                ("--max-rank", {"type": int, "default": 5}),
                ("--include-e7", _FLAG), ("--timing", _FLAG)]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cograss",
        description="Exact conormal combinatorics for cominuscule Grassmannians.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, options in (*arguments, ("--json", _FLAG)):
            command.add_argument(flag, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = COMMANDS[args.command][1](args)
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")) if args.json
          else "\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
