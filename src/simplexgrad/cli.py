"""Command-line harness.

Subcommands:

* ``reproduce <id>`` -- recompute a known-answer example, print
  computed-vs-expected lines, optionally write CSV artifacts;
* ``convergence`` -- run a density schedule for one registry field on a
  box or ball and write the versioned CSV table;
* ``list-fields`` -- show the field registry.

Exit codes: 0 on pass, 1 on any tolerance failure (a failed reproduction
check or a bound-domination violation), 2 on usage errors, 3 when the
field cannot be evaluated at a sample point (an error or a non-finite
value).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import REPRODUCE_IDS, ExperimentConfig, convergence, reproduce
from .fields import field_ids, get_field
from .gsg import EvaluationError

__all__ = ["main"]


def _parse_schedule(text: str) -> tuple[int, ...]:
    """Per-axis counts: either '2^2..2^10' (powers of two) or '4,8,16'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            klo = _parse_power(lo)
            khi = _parse_power(hi)
        else:
            return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ValueError(
            f"invalid schedule {text!r} ({exc}); use '2^a..2^b' (powers of two) or a list like '4,8,16'"
        ) from None
    if khi < klo:
        raise ValueError("schedule range is empty")
    return tuple(2**k for k in range(klo, khi + 1))


def _parse_power(tok: str) -> int:
    tok = tok.strip()
    if not tok.startswith("2^"):
        raise ValueError(f"expected a power of two like 2^4, got {tok!r}")
    return int(tok[2:])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simplexgrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = sub.add_parser("reproduce", help="recompute a known-answer example")
    p_rep.add_argument("example_id", choices=list(REPRODUCE_IDS))
    p_rep.add_argument("--out", type=Path, default=None, help="directory for CSV artifacts")

    p_conv = sub.add_parser("convergence", help="run a sample-density schedule")
    p_conv.add_argument("--field", required=True, choices=field_ids())
    p_conv.add_argument("--region", required=True, choices=["rect", "ball"])
    p_conv.add_argument("--sides", default=None, help="box side lengths, comma separated (default: the unit box)")
    p_conv.add_argument("--radius", type=float, default=1.0, help="ball radius")
    p_conv.add_argument(
        "--x0",
        default=None,
        help="reference point, comma separated (default: field anchor); write --x0=-0.5,1 when it starts with '-'",
    )
    p_conv.add_argument("--schedule", default="2^2..2^6", help="per-axis counts: '2^2..2^10' or '4,8,16'")
    p_conv.add_argument("--sample", default="grid", choices=["grid", "arbitrary"])
    p_conv.add_argument("--nodes", type=int, default=64, help="quadrature nodes per axis for the limit")
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out", type=Path, default=None, help="CSV output path (default: stdout)")

    sub.add_parser("list-fields", help="show the field registry")
    return parser


def _cmd_reproduce(args) -> int:
    report = reproduce(args.example_id)
    for line in report.lines():
        print(line)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, text in report.artifacts.items():
            path = args.out / name
            path.write_text(text, encoding="utf-8", newline="\n")
            print(f"wrote {path}")
    return 0 if report.passed else 1


def _cmd_convergence(args) -> int:
    x0 = None if args.x0 is None else tuple(float(t) for t in args.x0.split(","))
    per_axis = _parse_schedule(args.schedule)
    entry = get_field(args.field)
    dim = entry.field.dim
    schedule = tuple((c,) * dim for c in per_axis)
    config = ExperimentConfig(
        field_id=args.field,
        region=args.region,
        schedule=schedule,
        x0=x0,
        sides=(1.0,) * dim if args.sides is None else tuple(float(t) for t in args.sides.split(",")),
        radius=args.radius,
        sample=args.sample,
        nodes=args.nodes,
        seed=args.seed,
    )
    result = convergence(config)
    text = result.to_csv()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.out} ({len(result.rows)} rows)")
    else:
        sys.stdout.write(text)
    if not result.dominated():
        print("bound domination violated", file=sys.stderr)
        return 1
    return 0


def _cmd_list_fields() -> int:
    for fid in field_ids():
        entry = get_field(fid)
        lip_g = entry.grad_lipschitz_on(entry.anchor, 1.0)
        lip_h = entry.hess_lipschitz_on(entry.anchor, 1.0)
        print(
            f"{fid}: dim={entry.field.dim} anchor={entry.anchor} "
            f"L_grad@1={lip_g:g} L_hess@1={lip_h:g} ({entry.note})"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return _cmd_list_fields()
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
