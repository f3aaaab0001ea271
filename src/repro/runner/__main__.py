"""Command-line campaign driver: ``python -m repro.runner``.

Campaigns are declarative :class:`~repro.campaigns.CampaignSpec` grids,
resolved from the named-campaign table or from an exported JSON spec
file, sliced or widened with ``--set``, and executed through the
parallel runner with a paper-style summary table.  Subcommands::

    # what is registered, and what would a campaign run?
    python -m repro.runner list
    python -m repro.runner describe smoke
    python -m repro.runner describe fig5 --set clients=100,500

    # tiny pool-path smoke test over every protocol (CI uses this);
    # includes one crash->recover cell per protocol
    python -m repro.runner run smoke --protocol all --workers 2 --transactions 120

    # the Figure 5/6 performance sweep, resumable under results/fig5/
    python -m repro.runner run fig5 --workers 4 --artifact-dir results/fig5

    # slice or widen any axis of a registered campaign
    python -m repro.runner run fig7 --set fault=random,bursty --set seed=42,43

    # save a spec, edit/diff it, re-run it from the file; the artifact
    # store records the spec hash for provenance
    python -m repro.runner export recovery -o recovery.json
    python -m repro.runner run --spec recovery.json --protocol all

    # analyze stored artifacts: summary, paper figures, grouping,
    # pivoting and protocol comparisons (see repro.analysis)
    python -m repro.runner report results/fig5 --figure fig5a
    python -m repro.runner report results/fig5 --metric throughput_tpm --by clients
    python -m repro.runner report results/smoke --compare protocol=dbsm,primary-copy
    python -m repro.runner report results/smoke --format json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..analysis import report, summary_text
from ..campaigns import (
    CampaignSpec,
    CampaignSpecError,
    available_campaigns,
    get_campaign,
    parse_axis_override,
)
from ..protocols import available_protocols
from . import run_campaign

_EPILOG = """\
environment knobs (every campaign honours them; see README "Fault model &
recovery" for the full table):
  REPRO_SCALE         per-run transaction scale (default 0.3; 1.0 = paper size)
  REPRO_WORKERS       default worker-process count (--workers overrides)
  REPRO_ARTIFACT_DIR  root for resumable JSON artifacts (--artifact-dir overrides)

axis overrides compose left to right: --set protocol=dbsm,primary-copy
--set clients=100,500 --set seed=1000..1019,5 (A..B: the integers A to B
inclusive).  --protocol and --transactions are sugar for the matching --set.
"""

# ----------------------------------------------------------------------
# spec resolution
# ----------------------------------------------------------------------
def _resolve_spec(args: argparse.Namespace) -> CampaignSpec:
    """Registered name or --spec file, then the axis overrides."""
    if args.spec is not None:
        if args.name is not None:
            raise CampaignSpecError(
                "give either a campaign name or --spec FILE, not both"
            )
        try:
            data = json.loads(Path(args.spec).read_text())
        except OSError as exc:
            raise CampaignSpecError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(
                f"{args.spec}: not valid JSON ({exc})"
            ) from exc
        spec = CampaignSpec.from_dict(data)
    elif args.name is not None:
        spec = get_campaign(args.name)
    else:
        raise CampaignSpecError(
            "give a campaign name (see 'list') or --spec FILE"
        )
    for override in args.set or []:
        axis, values = parse_axis_override(override)
        spec = spec.with_axis(axis, values)
    if getattr(args, "protocol", None) is not None:
        protocols = (
            available_protocols()
            if args.protocol == "all"
            else (args.protocol,)
        )
        spec = spec.with_axis("protocol", tuple(protocols))
    # `is None` deliberately: `--transactions 0` must surface the
    # validation error, not silently fall back to the scaled default.
    if getattr(args, "transactions", None) is not None:
        spec = spec.with_axis("transactions", (args.transactions,))
    return spec


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    cells = spec.expand()
    campaign = run_campaign(
        cells,
        workers=args.workers,
        artifact_dir=args.artifact_dir,
        campaign=spec.name,
        progress=not args.quiet,
        manifest=spec.manifest(),
        journal=False if args.no_journal else "auto",
    )
    # the per-cell summary table (byte-identical to the historical
    # formatter), then the tracebacks of the cells that raised
    print(summary_text(campaign.cells))
    for cell in [c for c in campaign.cells if c.error]:
        print(f"\n--- {cell.label} ---\n{cell.error}", file=sys.stderr)
    return 0 if campaign.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in available_campaigns():
        spec = get_campaign(name)
        rows.append((name, len(spec.expand()), spec.description))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'campaign':<{width}s}  {'cells':>5s}  description")
    for name, cells, description in rows:
        print(f"{name:<{width}s}  {cells:>5d}  {description}")
    print(
        "\nrun one with: python -m repro.runner run <campaign> "
        "[--protocol all] [--set axis=v1,v2 ...]"
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    cells = spec.expand()
    print(f"campaign:    {spec.name}")
    if spec.description:
        print(f"description: {spec.description}")
    print(f"spec hash:   {spec.spec_hash()}")
    print("axes:")
    for name, values in spec.axis_summary().items():
        shown = ", ".join(_describe_value(name, v) for v in values)
        print(f"  {name}: {shown}")
    print(f"cells ({len(cells)}):")
    for label, config in cells:
        print(
            f"  {label:<32s} {config.sites}x{config.cpus_per_site}cpu "
            f"c{config.clients} t{config.transactions} "
            f"seed={config.seed} protocol={config.protocol}"
        )
    return 0


def _describe_value(name: str, value: object) -> str:
    if value is None:
        return "<scaled default>" if name == "transactions" else "None"
    if name == "system" and isinstance(value, (tuple, list)):
        return f"{value[0]} ({value[1]}x{value[2]}cpu)"
    return str(value)


def _cmd_serve(args: argparse.Namespace) -> int:
    # load on use: http.server (and the email package behind it) would
    # otherwise be imported by every `run` and `list`
    from ..dashboard.server import serve_campaign

    serve_campaign(args.target, host=args.host, port=args.port)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    payload = dict(spec.to_dict())
    payload["spec_hash"] = spec.spec_hash()
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(
            f"wrote {spec.name} ({len(spec.expand())} cells, "
            f"hash {spec.spec_hash()}) to {args.output}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered campaign name (see 'list')",
    )
    parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="load the campaign from an exported JSON spec file "
        "instead of the campaign table",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=None,
        metavar="AXIS=V1[,V2...]",
        help="override one sweep axis (repeatable); values parse as JSON "
        "scalars, else strings",
    )
    parser.add_argument(
        "--protocol",
        choices=sorted(available_protocols()) + ["all"],
        default=None,
        help="replication protocol for the replicated cells "
        "('all' runs every registered protocol side by side); "
        "sugar for --set protocol=...",
    )


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description=__doc__,
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="expand a campaign spec and execute it",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_spec_arguments(run_p)
    run_p.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes, at least 1 (default: REPRO_WORKERS or 1)",
    )
    run_p.add_argument(
        "--artifact-dir",
        default=None,
        help="campaign directory for resumable JSON artifacts "
        "(default: REPRO_ARTIFACT_DIR/<campaign> when that is set)",
    )
    run_p.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="per-cell transaction count (default: REPRO_SCALE-scaled "
        "paper count); sugar for --set transactions=N",
    )
    run_p.add_argument(
        "--no-journal",
        action="store_true",
        help="do not write the events.jsonl observability journal into "
        "the artifact directory (results are bit-identical either way)",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="no progress lines"
    )
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list the registered campaigns")
    list_p.set_defaults(func=_cmd_list)

    describe_p = sub.add_parser(
        "describe",
        help="show a campaign's axes and the cells it would run",
    )
    _add_spec_arguments(describe_p)
    describe_p.set_defaults(func=_cmd_describe)

    export_p = sub.add_parser(
        "export",
        help="write a campaign spec as JSON (re-runnable via run --spec)",
    )
    _add_spec_arguments(export_p)
    export_p.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    export_p.set_defaults(func=_cmd_export)

    report.add_arguments(
        sub.add_parser(
            "report",
            help="analyze a campaign's stored artifacts (see repro.analysis)",
        )
    )

    serve_p = sub.add_parser(
        "serve",
        help="serve the live dashboard over a campaign artifact directory",
    )
    serve_p.add_argument(
        "target",
        help="artifact directory, or a campaign name resolved under "
        "REPRO_ARTIFACT_DIR",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_p.add_argument(
        "--port", type=int, default=8035, help="bind port (default: 8035)"
    )
    serve_p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # CampaignSpecError, unknown campaign, …
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
