"""End-to-end benchmark of fit, online serving and batch/plan serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online_unpruned --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same workload, then the per-layer probes and a traced daemon,
and reports the per-layer metrics instead.  Readable tables go to stdout
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans are kept in memory and written to
``.bench_out/<workload>-seed<seed>/spans.json`` when the run ends.
See ``perfbench/README.md`` for what each metric means per workload.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit_20k", "online_unpruned", "batch_pruned"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run of the same paths")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]

    from common import Report, Spans, run_dir
    from workloads import SCALES, WORKLOADS, Run

    report = Report()
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=SCALES[args.scale],
        report=report,
        spans=Spans(enabled=bool(args.trace)),
        dir=run_dir(args.workload, args.seed),
    )
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, scale {args.scale}")
    with run.spans.span(f"run.{args.workload}"):
        WORKLOADS[args.workload](run)
    if run.spans.enabled:
        run.spans.write(run.dir / "spans.json")
        print(f"spans written to {run.dir / 'spans.json'}")
    share = report.failed / report.attempted if report.attempted else 1.0
    print(f"  error_share {share:.4f} ({report.failed} of {report.attempted} "
          "operations failed, refused or incorrect)")
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
