"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload paper_t7 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs the untraced and the traced pass on
the same seed and prints the per-layer metrics.  ``--size smoke`` runs a
tiny version of the workload (self-tests).  The full result, host facts,
counters and fingerprints are written to ``.perfbench_out/``.  The exit
code is 0 only when every check passed.

The counters and fingerprints of each unit of work must equal the values
committed in ``perfbench/expected.json`` for the seed.  ``--record``
writes them there instead of comparing (``--trace 0``; a short
``--seconds`` is enough):

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload paper_t7 --seed $seed --seconds 1 --record
    done
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("paper_t7", "mega_swarm", "table1_campaign", "tracker_wire")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="write the witnesses into perfbench/expected.json")
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record needs --trace 0: a traced run covers only some units")
    return args


def run(args: argparse.Namespace):
    """Execute one workload; returns its :class:`~perfbench.harness.Report`."""
    from perfbench.harness import (
        Report, check_expected, check_ledger, record_expected, write_outputs,
    )

    report = Report(args.workload, args.seed, args.size, bool(args.trace))
    if args.workload in ("paper_t7", "mega_swarm"):
        from perfbench.sims import run_mega, run_paper

        runner = run_paper if args.workload == "paper_t7" else run_mega
    elif args.workload == "table1_campaign":
        from perfbench.campaign import run_campaign as runner
    else:
        from perfbench.tracker import run_tracker as runner
    recorder = runner(report, args.seconds)
    if args.record:
        if report.outcome.correct:
            record_expected(report)
    else:
        check_expected(report)
    check_ledger(report)
    write_outputs(report, recorder)
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            "perfbench: no program sources at %s; run from a full checkout"
            % (ROOT / "src" / "repro"),
            file=sys.stderr,
        )
        return 2
    report = run(args)
    from perfbench.harness import host_facts
    from perfbench.stats import summarize

    print("host: %s" % json.dumps(host_facts(), sort_keys=True))
    for name, values in sorted(report.timings.items()):
        summary = summarize(values)
        print("%s: %s median %.6g s (q1 %.6g, q3 %.6g, n=%d)" % (
            args.workload, name, summary["median"], summary["q1"], summary["q3"],
            summary["n"]))
    for name, value in sorted(report.extra.items()):
        print("%s: %s = %.6g" % (args.workload, name, value))
    for line in report.outcome.failures:
        print("FAILED: %s" % line)
    print(json.dumps(report.as_json(), sort_keys=True))
    return 0 if report.outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
