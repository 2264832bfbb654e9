"""Per-query validator records from every process of a benchmark round.

A round that searches (``campaign``, ``promote``) validates candidates
inside its pool or TCP worker processes, out of the benchmark's reach.
The round puts this directory on ``PYTHONPATH`` and names a record
directory in ``PERFBENCH_VERDICTS``; Python imports this module at
start-up in the round process and in every worker it spawns (forked
pool workers inherit the patch), and each ``Validator.validate`` call
appends one JSON line to ``<dir>/<pid>.jsonl``: its duration, verdict,
CNF size and, for a refutation, what a later replay needs. The round
reads the records after its timed region.
"""

import os

_DIR = os.environ.get("PERFBENCH_VERDICTS")


def _install(directory: str) -> None:
    import json
    import time

    from repro.engine.serialize import program_to_json, spec_to_json
    from repro.verifier.validator import Validator

    validate = Validator.validate

    def recorded(self, target, rewrite, spec):
        start = time.perf_counter()
        record = {}
        try:
            result = validate(self, target, rewrite, spec)
        except Exception as exc:
            record["verdict"] = "error:" + type(exc).__name__
            raise
        else:
            record["verdict"] = ("proven" if result.equivalent
                                 else "refuted")
            record["vars"] = result.num_vars
            record["clauses"] = result.num_clauses
            if not result.equivalent:
                cex = result.counterexample
                record["replay"] = {
                    "target": program_to_json(target),
                    "rewrite": program_to_json(rewrite),
                    "spec": spec_to_json(spec),
                    "registers": cex.registers,
                    "memory": sorted(cex.memory.items())}
            return result
        finally:
            record["ms"] = (time.perf_counter() - start) * 1e3
            path = os.path.join(directory, f"{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")

    Validator.validate = recorded


if _DIR:
    _install(_DIR)
