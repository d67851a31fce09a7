"""One measured process of the benchmark, started by ``run.py``.

    python3 child.py census PLAN.json   # one traced, serial census
    python3 child.py decide PLAN.json   # sequential in-process ``check`` calls

The plan names the files to read and write.  ``census`` is only used for
the traced run: untraced censuses run the real ``python -m matchext``.
``decide`` runs ``cli.main(["check", ...])`` once per call in this
interpreter, as a caller that reuses one process would, and records each
call's exit code, stdout and latency.  With ``"trace": true`` the layer
wrappers are installed first and the trace is written when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _cli_main(trace: bool):
    """``cli.main``, wrapped by the span tracer when ``trace`` is set."""
    from matchext import cli

    if not trace:
        return cli.main, None
    from tracing import Tracer, install

    tracer = Tracer()
    return install(tracer), tracer


def census(plan) -> None:
    main, tracer = _cli_main(True)
    code = main(["census", "--input", plan["input"], "--report", plan["report"]])
    tracer.dump(plan["trace_out"])
    sys.exit(code)


def decide(plan) -> None:
    main, tracer = _cli_main(plan["trace"])
    budget = plan["seconds"]
    results = []
    spent = 0.0
    for sweep in plan["sweeps"]:
        if results and spent >= budget:
            break
        for path, (n, k, d) in sweep:
            argv = ["check", "--graph", path, "--n", str(n), "--k", str(k),
                    "--d", str(d), "--method", "both", "--json"]
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            elapsed = time.perf_counter() - t0
            spent += elapsed
            results.append({"graph": path, "params": [n, k, d], "code": code,
                            "seconds": elapsed, "stdout": out.getvalue()})
    Path(plan["out"]).write_text(json.dumps(results))
    if tracer is not None:
        tracer.dump(plan["trace_out"])


if __name__ == "__main__":
    mode, plan_path = sys.argv[1], sys.argv[2]
    {"census": census, "decide": decide}[mode](json.loads(Path(plan_path).read_text()))
