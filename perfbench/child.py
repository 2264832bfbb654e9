"""Run one round of a workload in this (fresh) interpreter.

``run.py`` starts this script (``child.py``) once per round, with ``src`` and
``perfbench/hooks`` on ``PYTHONPATH``, and reads the JSON it writes to
``--out``. Modes:

* ``run``: the round untraced;
* ``setup``: stop at the end of set-up (first chain granted or first
  query issued), to sample set-up time;
* ``trace``: the round with every layer traced, its chains in this
  process;
* ``coordinator``: the round on its parallel executor with only the
  coordinator's engine layer traced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import tracing
from workloads import Marks, SetupDone, search_round, verify_round


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("run", "setup", "trace", "coordinator"))
    parser.add_argument("--serial", action="store_true")
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    marks = Marks(setup_only=args.mode == "setup")
    tracer = None
    if args.mode in ("trace", "coordinator"):
        tracer = tracing.Tracer()
        tracing.install(tracer, inner=args.mode == "trace")
    from repro.emulator.compile import evaluator_counters
    before = evaluator_counters()
    if args.workload != "verify":
        marks.install_engine_hooks()
    if tracer is not None:
        tracer.start()
        marks.on_done = tracer.stop
    try:
        if args.workload == "verify":
            outcome = verify_round(args.seed, args.round, marks=marks)
        else:
            outcome = search_round(
                args.workload, args.seed, args.round,
                parallel=not args.serial, run_dir=args.dir / "runs",
                verdict_dir=args.dir / "verdicts", marks=marks)
    except SetupDone:
        args.out.write_text(json.dumps({"setup_mark": marks.setup}))
        return 0
    report = outcome.to_json(marks)
    report["round"] = args.round
    if tracer is not None:
        after = evaluator_counters()
        delta = {name: after[name] - before[name] for name in after}
        report["layers"] = tracing.layer_metrics(tracer, delta,
                                                 outcome.counts)
        report["root_s"] = tracer.seconds("root")
        report["root_self_s"] = tracer.self_seconds("root")
        tracer.write(args.dir / "spans.json")
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
