#!/usr/bin/env python3
"""The matchext benchmark: fixed-seed workloads through the CLI entry points.

    python3 bench/run.py --workload census-small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it reads the program from ``src/`` and
writes only under ``.bench_out/``.  Workloads:

* ``census-small``   ``matchext census --report`` on batches of 800 graphs
  of orders 4-8, half of them disjoint unions of two random parts.
* ``census-order10`` the same command on batches of 40 graphs of orders
  9-10, three in ten disjoint unions.
* ``census-jobs2``   the ``census-small`` batches with ``--jobs 2``.
* ``decide-order14`` ``cli.main(["check", ..., "--method", "both",
  "--json"])`` in one process, every valid triple of order 14 once per
  sweep, spread over four random graphs of density 0.5-0.6.

``--trace 0`` times the untraced program for ``--seconds`` (whole batches
or sweeps, at least one) and prints the end-to-end metrics:

* ``setup_s``      median wall time of ``matchext census`` on an empty
  stream in a fresh interpreter, over several starts.
* ``graphs_per_s`` census: median over batches of graphs / wall time of
  the census process (a median, because the CPU speed of a shared machine
  drifts by 10-20% within seconds).  decide: sweeps / summed call latency,
  a sweep (one call per valid triple) being the work of deciding one graph
  fully.
* ``peak_rss_mb``  median over the measured processes of each one's peak
  RSS, from ``os.wait4``, so processes never share a maximum.

``--trace 1`` runs a fixed amount of work untraced and then again serially
under the span wrappers of ``tracing.py``, and prints the per-layer
metrics (``PER_LAYER``); a layer the workload never calls reads 0, and
``harness.pool.efficiency`` is 1 on serial workloads.  Every output is checked (``gates.py``); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import gates  # noqa: E402
from tracing import summarize  # noqa: E402

DEFAULT_SEED = 1
SETUP_STARTS = 11
#: census batches and ``check`` sweeps timed by one traced run
TRACED_BATCHES = 2
TRACED_SWEEPS = 1
#: most ``check`` sweeps one untraced run can reach
MAX_SWEEPS = 16

WORKLOADS = {
    "census-small": {"stream": "small", "jobs": 1},
    "census-order10": {"stream": "order10", "jobs": 1},
    "census-jobs2": {"stream": "small", "jobs": 2},
    "decide-order14": {},
}

RULES = ("A3", "A4", "A5", "A6i", "A6ii", "B1", "B2", "C1", "D1", "D2", "D3")

END_TO_END = {"setup_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"harness.rule.{tid}.self_s": "s" for tid in RULES},
    "harness.check_graph.self_s": "s",
    "harness.run_census.self_s": "s",
    "decision.nkd_holds.calls": "count",
    "decision.nkd_holds.hit_ratio": "ratio",
    "decision.nkd_holds.self_s": "s",
    "engine.nu_table.builds": "count",
    "engine.nu_table.hits": "count",
    "engine.nu_table.self_s": "s",
    "engine.odd_table.builds": "count",
    "engine.odd_table.hits": "count",
    "engine.odd_table.self_s": "s",
    "decision.char_summary.builds": "count",
    "decision.char_summary.self_s": "s",
    "engine.table_entries": "count",
    "decision.find_decomposition_witness.calls": "count",
    "decision.find_decomposition_witness.found_ratio": "ratio",
    "decision.find_decomposition_witness.self_s": "s",
    "decision.is_nkd_by_definition.calls": "count",
    "decision.is_nkd_by_definition.self_s": "s",
    "decision.is_nkd_by_characterization.calls": "count",
    "decision.is_nkd_by_characterization.self_s": "s",
    "graph.derive.calls": "count",
    "graph.derive.self_s": "s",
    "graphio.read_graph6.calls": "count",
    "graphio.read_graph6.self_s": "s",
    "cli.main.self_s": "s",
    "harness.applicable_ratio": "ratio",
    "harness.pool.efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Run:
    """One benchmark invocation: its working directory and its tally of
    operations attempted and failed."""

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if k != "MATCHEXT_MAX_ORDER"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict[str, object] = {}
        self.samples: dict[str, list] = {}

    def tally(self, what: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append(f"{what}: {'; '.join(reasons)}")

    def children(self, argvs: list[list[str]], width: int = 1) -> list[tuple[int, float, float]]:
        """Run children to completion, ``width`` at a time: (exit code, wall
        seconds, peak RSS MB) of each.  A census child reaps its own pool
        workers, so their peak is folded into its rusage."""
        out = []
        for i in range(0, len(argvs), width):
            started = [
                (time.perf_counter(),
                 subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL))
                for argv in argvs[i:i + width]
            ]
            for t0, proc in started:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.append((proc.returncode, wall, usage.ru_maxrss / 1024))
        return out

    def child(self, argv: list[str]) -> tuple[int, float, float]:
        return self.children([argv])[0]


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "seed": seed}


def measure_setup(run: Run) -> float:
    empty = run.work / "empty.g6"
    empty.write_bytes(b"")
    argv = [sys.executable, "-m", "matchext", "census", "--input", str(empty)]
    run.child(argv)  # fills the bytecode cache, as any earlier start would
    walls = []
    for i in range(SETUP_STARTS):
        code, wall, _ = run.child(argv)
        run.tally(f"setup start {i}", [] if code == 0 else [f"exit code {code}"])
        walls.append(wall)
    return statistics.median(walls)


# -- census workloads -----------------------------------------------------------


def pinned(stream: str, seed: int, index: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads((HERE / "pins.json").read_text())["census"][stream]
    return pins[index] if index < len(pins) else None


class Batch:
    def __init__(self, run: Run, stream: str, index: int):
        self.index = index
        self.path = run.work / f"{stream}-{index}.g6"
        data = gen.census_batch(stream, run.seed, index)
        self.path.write_bytes(data)
        self.graphs = data.count(b"\n")
        self.pin = pinned(stream, run.seed, index)

    def argv(self, run: Run, jobs: int, tag: str) -> list[str]:
        argv = [sys.executable, "-m", "matchext", "census", "--input", str(self.path),
                "--report", str(self.report(run, tag))]
        return argv + ["--jobs", str(jobs)] if jobs > 1 else argv

    def report(self, run: Run, tag: str) -> Path:
        return run.work / f"report-{self.index}-{tag}.json"

    def census(self, run: Run, jobs: int, tag: str) -> tuple[int, float, float, bytes | None]:
        return self.read(run, tag, run.child(self.argv(run, jobs, tag)))

    def read(self, run: Run, tag: str, result) -> tuple[int, float, float, bytes | None]:
        report = self.report(run, tag)
        return (*result, report.read_bytes() if report.exists() else None)


def serial_censuses(run: Run, batches: list[Batch], width: int) -> dict:
    results = run.children([b.argv(run, 1, "serial") for b in batches], width)
    return {b.index: b.read(run, "serial", r) for b, r in zip(batches, results)}


def census_checked(run: Run, batches: list[Batch], timed: dict, serial: dict) -> None:
    """Gate every timed census.  When ``serial`` is not ``timed`` (a pool
    run), the serial report of the same batch is the reference and is
    gated as well."""
    for b in batches:
        code, _, _, report = timed[b.index]
        reasons = []
        reference = None
        if serial is not timed:
            s_code, _, _, reference = serial[b.index]
            reasons += [f"serial: {r}" for r in
                        gates.census_failures(s_code, reference, b.graphs, b.pin)]
        reasons += gates.census_failures(code, report, b.graphs, b.pin, reference)
        run.tally(f"census batch {b.index}", reasons)


def census_untraced(run: Run, spec: dict, seconds: int) -> dict:
    batches, timed = [], {}
    spent = 0.0
    while not batches or spent < seconds:
        b = Batch(run, spec["stream"], len(batches))
        batches.append(b)
        timed[b.index] = b.census(run, spec["jobs"], "timed")
        spent += timed[b.index][1]
    # outside the timed region, so the serial references may share the cores
    serial = timed if spec["jobs"] == 1 else serial_censuses(run, batches, os.cpu_count() or 1)
    census_checked(run, batches, timed, serial)
    rates = [b.graphs / timed[b.index][1] for b in batches]
    run.samples["batch_graphs_per_s"] = rates
    run.notes["census_batches"] = len(batches)
    run.notes["graphs"] = sum(b.graphs for b in batches)
    return {
        "graphs_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(t[2] for t in timed.values()),
    }


def applicable_ratio(reports: list[bytes]) -> float:
    applicable = instances = 0
    for report in reports:
        for rep in json.loads(report)["theorems"].values():
            applicable += rep["applicable"]
            instances += rep["applicable"] + sum(rep["inapplicable"].values())
    return applicable / instances if instances else 0.0


def census_traced(run: Run, spec: dict) -> dict:
    jobs = spec["jobs"]
    batches = [Batch(run, spec["stream"], i) for i in range(TRACED_BATCHES)]
    timed = {b.index: b.census(run, jobs, "timed") for b in batches}
    serial = timed if jobs == 1 else serial_censuses(run, batches, 1)
    census_checked(run, batches, timed, serial)
    summary: dict[str, float] = {}
    traced_wall = 0.0
    reports = []
    for b in batches:
        report = run.work / f"report-{b.index}-traced.json"
        trace = run.work / f"trace-{b.index}.json"
        plan = run.work / f"plan-{b.index}.json"
        plan.write_text(json.dumps({"input": str(b.path), "report": str(report),
                                    "trace_out": str(trace)}))
        code, wall, _ = run.child([sys.executable, str(HERE / "child.py"), "census", str(plan)])
        traced_wall += wall
        got = report.read_bytes() if report.exists() else None
        run.tally(f"traced census batch {b.index}",
                  gates.census_failures(code, got, b.graphs, b.pin, serial[b.index][3]))
        if got is not None and trace.exists():
            reports.append(got)
            merge(summary, summarize(json.loads(trace.read_text())))
    serial_wall = sum(serial[b.index][1] for b in batches)
    jobs_wall = sum(timed[b.index][1] for b in batches)
    return layer_metrics(
        summary,
        applicable=applicable_ratio(reports),
        pool_efficiency=serial_wall / (jobs * jobs_wall),
        overhead=traced_wall / serial_wall,
    )


# -- decide workload ------------------------------------------------------------


def decide_plan(run: Run, sweeps: int, seconds: float, tag: str, trace: bool) -> Path:
    plan_sweeps = []
    for s in range(sweeps):
        lines, calls = gen.decide_sweep(run.seed, s)
        paths = []
        for j, line in enumerate(lines):
            path = run.work / f"decide-{s}-{j}.g6"
            path.write_text(line + "\n")
            paths.append(str(path))
        plan_sweeps.append([[paths[j], list(t)] for j, t in calls])
    plan = {"seconds": seconds, "sweeps": plan_sweeps, "out": str(run.work / f"calls-{tag}.json"),
            "trace": trace, "trace_out": str(run.work / f"trace-{tag}.json")}
    path = run.work / f"plan-{tag}.json"
    path.write_text(json.dumps(plan))
    return path


def decide_child(run: Run, plan_path: Path) -> tuple[list[dict], float]:
    """Run one decide child and gate every call it made; returns the calls
    and the child's peak RSS."""
    from matchext.decision import NkdParams
    from matchext.graphio import read_graph6

    plan = json.loads(plan_path.read_text())
    code, _, rss = run.child([sys.executable, str(HERE / "child.py"), "decide", str(plan_path)])
    out = Path(plan["out"])
    if code != 0 or not out.exists():
        run.tally("decide process", [f"exit code {code}, no call results"])
        return [], rss
    calls = json.loads(out.read_text())
    graphs = {}
    for i, call in enumerate(calls):
        path = call["graph"]
        if path not in graphs:
            graphs[path] = read_graph6(Path(path).read_text().strip())
        run.tally(f"check call {i} {call['params']}",
                  gates.check_failures(call["code"], call["stdout"], graphs[path],
                                       NkdParams(*call["params"])))
    return calls, rss


def decide_untraced(run: Run, seconds: int) -> dict:
    calls, rss = decide_child(run, decide_plan(run, MAX_SWEEPS, seconds, "timed", False))
    if not calls:
        return {"graphs_per_s": 0.0, "peak_rss_mb": rss}
    per_sweep = len(gen.valid_triples(gen.DECIDE["order"]))
    latencies = [c["seconds"] for c in calls]
    run.notes["check_calls"] = len(calls)
    run.notes["check_p50_ms"] = statistics.median(latencies) * 1e3
    if len(latencies) >= 100:
        run.notes["check_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return {
        "graphs_per_s": (len(calls) / per_sweep) / sum(latencies),
        "peak_rss_mb": rss,
    }


def decide_traced(run: Run) -> dict:
    plain, _ = decide_child(run, decide_plan(run, TRACED_SWEEPS, 0, "plain", False))
    traced, _ = decide_child(run, decide_plan(run, TRACED_SWEEPS, 0, "traced", True))
    trace = run.work / "trace-traced.json"
    summary = summarize(json.loads(trace.read_text())) if trace.exists() else {}
    plain_s = sum(c["seconds"] for c in plain)
    traced_s = sum(c["seconds"] for c in traced)
    return layer_metrics(summary, applicable=0.0, pool_efficiency=1.0,
                         overhead=traced_s / plain_s if plain_s else 0.0)


# -- metrics --------------------------------------------------------------------


def merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def layer_metrics(s: dict, applicable: float, pool_efficiency: float, overhead: float) -> dict:
    """The per-layer metrics from a trace summary (see PER_LAYER)."""

    def calls(base):
        return s.get(base + ".spans", 0) + s.get(base + ".hits", 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = s.get(name, 0.0)
        elif stat == "calls":
            out[name] = calls(base)
        elif stat == "builds":
            out[name] = s.get(base + ".spans", 0)
        elif stat == "hits":
            out[name] = s.get(name, 0)
    nkd = "decision.nkd_holds"
    out[nkd + ".hit_ratio"] = ratio(s.get(nkd + ".hits", 0), calls(nkd))
    search = "decision.find_decomposition_witness"
    out[search + ".found_ratio"] = ratio(s.get(search + ".found", 0), calls(search))
    out["engine.table_entries"] = s.get("engine.table_entries", 0)
    out["harness.applicable_ratio"] = applicable
    out["harness.pool.efficiency"] = pool_efficiency
    out["trace.overhead_ratio"] = overhead
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matchext" / "__init__.py").is_file():
        print(f"error: no matchext package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}", args.seed)
    spec = WORKLOADS[args.workload]
    census = "stream" in spec
    if args.trace:
        metrics = census_traced(run, spec) if census else decide_traced(run)
        units = PER_LAYER
    else:
        metrics = {"setup_s": measure_setup(run)}
        metrics.update(census_untraced(run, spec, args.seconds) if census
                       else decide_untraced(run, args.seconds))
        units = END_TO_END

    failed = len(run.failures)
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "notes": run.notes, "samples": run.samples, "failures": run.failures,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    (run.work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in run.notes.items():
        print(f"  {key:<48} {value:.6g}" if isinstance(value, float) else f"  {key:<48} {value}")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:.6g} {unit}")
    print(f"  {'failure_ratio':<48} {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} operations)")
    for reason in run.failures[:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
