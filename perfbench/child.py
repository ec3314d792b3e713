"""Workload process: runs one workload's operations in a closed loop.

Started by ``run.py`` as ``python3 perfbench/child.py PLAN RESULT`` with
``PYTHONPATH=src``.  One client, one thread: each operation is one call of
``standpoint_owl.cli.main(argv)`` and starts only after the previous one
has returned.  ``gc.collect()`` runs between operations, outside the
timing, because every real CLI call starts in a fresh process with a clean
heap.  Whole passes over the operation list repeat until the plan's
seconds have elapsed.

On a shared virtual machine the speed a process gets drifts by up to 1.7x
within seconds, and CPU time drifts with it.  So every pass also times a
fixed reference loop (``calib.py``) before, during (on a timer signal) and
after each operation; the result reports each operation's wall time net of
that loop together with the loop's mean time around it, from which
``run.py`` scales the wall time to a fixed host speed.

With ``trace`` set, untraced passes alternate with traced passes that
re-run the same operations stage by stage through each layer's public
functions (see ``replay.py``); the spans stay in memory and go to the
result file at the end.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

from standpoint_owl import cli

import calib
import replay
from spans import Tracer


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Exit code (None for an escaped exception) and standard error text."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, err.getvalue()


def cli_pass(ops: list[dict], codes: dict, probe: calib.Probe) -> dict:
    """One pass; per operation the wall time net of reference blocks and
    the mean time of one reference block around it."""
    walls, blocks = [], []
    for op in ops:
        gc.collect()
        with probe.around() as timing:
            code, err = run_cli(op["argv"])
        walls.append(timing.net_s)
        blocks.append(timing.block_s)
        seen = codes.setdefault(op["id"], {"codes": [], "stderr": ""})
        if code not in seen["codes"]:
            seen["codes"].append(code)
            if code not in (0, 3):
                seen["stderr"] = err[-2000:]
    return {"walls": walls, "blocks": blocks}


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    ops, seconds = plan["ops"], plan["seconds"]
    codes: dict = {}
    result: dict = {"passes": [], "codes": codes}
    # One unmeasured call loads what the first call of a command loads
    # (lazy imports, compiled regular expressions).
    run_cli(ops[0]["argv"])
    deadline = time.perf_counter() + seconds
    with calib.Probe() as probe:
        if not plan["trace"]:
            while True:
                result["passes"].append(cli_pass(ops, codes, probe))
                if time.perf_counter() >= deadline:
                    break
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            traced = []
            with Tracer() as tracer:
                while True:
                    result["passes"].append(cli_pass(ops, codes, probe))
                    traced.append(replay.traced_pass(ops, tracer))
                    if time.perf_counter() >= deadline:
                        break
            result["traced"] = traced
            result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
