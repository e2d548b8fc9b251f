"""dmajor benchmark: one command, fixed seeded operation lists, checked outputs.

    python3 dmbench/run.py --workload {certify,polytope,steer,cli_cold} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports dmajor only from ``src/`` of
that checkout, inside worker processes.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}.  The line before it
is the run record, also written to ``.bench_out/<run>/record.json``.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: untraced and traced rounds of the same list, plus probes of the
cold CLI.  See dmbench/README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5          # set-up is measured this many times per run; the median is reported
# cli_cold's speed sample, a fresh ``python -c pass``: about its median on
# the reference box, and the samples on each side of an invocation that
# rescale it (each sample is a single start-up, so more than in speed.py)
INTERP_REF_S = 0.06
INTERP_WINDOW = 4
CLI_PROBE_REPEATS = 3
CLI_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("pass_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit); names map to spans as <module>.<function>.<stat>, with the
# leading underscore of _simplex and _first_face_hit dropped
PER_LAYER = (
    ("linalg.expm.calls", "count"), ("linalg.expm.self_ms", "ms"),
    ("linalg.hermitian_eig.calls", "count"),
    ("simplex.phase1_feasible.calls", "count"), ("simplex.phase1_feasible.self_ms", "ms"),
    ("simplex.phase1_feasible.failed", "count"), ("simplex.phase1_feasible.cells", "count"),
    ("majorize.d_majorizes.self_ms", "ms"), ("majorize.d_stochastic_transfer.self_ms", "ms"),
    ("majorize.d_stochastic_transfer.failed", "count"), ("majorize.thermo_curve.calls", "count"),
    ("majorize.majorizes.calls", "count"),
    ("polytope.vertices.self_ms", "ms"), ("polytope.vertices.self_ms.n4", "ms"),
    ("polytope.vertices.self_ms.n5", "ms"), ("polytope.vertices.self_ms.n6", "ms"),
    ("polytope.vertices.kept_ratio", "ratio"), ("polytope.halfspace_bounds.self_ms", "ms"),
    ("polytope.contains.self_ms", "ms"), ("polytope.max_corner.calls", "count"),
    ("polytope.hausdorff.self_ms", "ms"),
    ("dissipation.flow.calls", "count"), ("dissipation.propagator.calls", "count"),
    ("dissipation.propagator.self_ms", "ms"),
    ("reach.synthesize.self_ms", "ms"), ("reach.synthesize_from_ground.self_ms", "ms"),
    ("reach.first_face_hit.calls", "count"), ("reach.first_face_hit.self_ms", "ms"),
    ("reach.synthesize.expm_per_call", "count"), ("reach.synthesize_local.self_ms", "ms"),
    ("reach.majorization_envelope.self_ms", "ms"), ("reach.reachable_sample.calls", "count"),
    ("reach.simulate.self_ms", "ms"),
    ("channels.channel_between.self_ms", "ms"), ("channels.kraus_set.self_ms", "ms"),
    ("channels.is_cp.self_ms", "ms"), ("channels.is_tp.self_ms", "ms"),
    ("channels.choi.calls", "count"),
    ("cnr.c_numerical_range_sample.self_ms", "ms"),
    ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.import.numpy_ms", "ms"),
    ("cli.import.scipy_linalg_ms", "ms"), ("cli.import.scipy_optimize_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("trace.overhead_pct", "%"), ("trace.spans", "count"),
)
IMPORT_PACKAGES = {"numpy": "cli.import.numpy_ms", "scipy.linalg": "cli.import.scipy_linalg_ms",
                   "scipy.optimize": "cli.import.scipy_optimize_ms"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Children:
    """Every process the run starts, so that all are stopped and reaped."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.live: list[subprocess.Popen] = []

    def start(self, argv: list[str], **kw) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, **kw)
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, limit: float) -> tuple[int, int]:
        """Wait for proc, killing it after ``limit`` seconds or at the run
        deadline.  Returns (exit code, peak RSS in KiB)."""
        limit = min(limit, self.deadline - time.monotonic())
        killer = threading.Timer(max(limit, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss

    def stop_all(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()

    def run(self, argv: list[str], limit: float = CLI_TIMEOUT_S):
        """Run to completion; returns (seconds, exit, stdout, stderr, peak KiB)."""
        out_f = open(self.workdir / "child.out", "w+b")
        err_f = open(self.workdir / "child.err", "w+b")
        with out_f, err_f:
            t0 = time.perf_counter()
            proc = self.start(argv, stdout=out_f, stderr=err_f, stdin=subprocess.DEVNULL)
            code, rss = self.reap(proc, limit)
            seconds = time.perf_counter() - t0
            out_f.seek(0)
            err_f.seek(0)
            return seconds, code, out_f.read().decode(), err_f.read().decode(), rss


# ---------------------------------------------------------------------------
# library workloads: worker processes
# ---------------------------------------------------------------------------

def worker_session(kids: Children, inputs: Path, outputs: Path, mode: str) -> tuple[float, int]:
    """Spawn a worker; returns (seconds from spawn to READY, peak RSS KiB)."""
    t0 = time.perf_counter()
    proc = kids.start([sys.executable, str(HERE / "worker.py"), str(inputs), str(outputs), mode],
                      stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    rest = proc.stdout.read()
    proc.stdout.close()
    code, rss = kids.reap(proc, RUN_DEADLINE_S)
    if line.strip() != b"READY" or code != 0:
        raise BenchError(f"worker ({mode}) exited with code {code}: {(line + rest)[-500:]!r}")
    return setup, rss


def run_library(kids: Children, workdir: Path, ops: list[dict], rounds: int, trace: bool):
    inputs, outputs = workdir / "inputs.pkl", workdir / "outputs.pkl"
    plan = {"ops": [{"id": op["id"], "kind": op["kind"], "args": op["args"]} for op in ops],
            "rounds": rounds, "warmup": W.warmup_ids(ops)}
    with open(inputs, "wb") as fh:
        pickle.dump(plan, fh, protocol=pickle.HIGHEST_PROTOCOL)
    setups = [rescaled_setup(kids, lambda: worker_session(kids, inputs, outputs, "setup")[0])
              for _ in range(0 if trace else SETUP_REPEATS)]
    _, rss = worker_session(kids, inputs, outputs, "trace" if trace else "run")
    with open(outputs, "rb") as fh:
        result = pickle.load(fh)
    result["setups"] = setups
    result["peak_rss_kb"] = rss
    return result


# ---------------------------------------------------------------------------
# cli_cold: the runner is the single caller of fresh CLI processes
# ---------------------------------------------------------------------------

def write_cli_inputs(ops: list[dict], directory: Path) -> list[list[str]]:
    """Write every op's JSON files; returns each op's argv with paths filled in."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for op in ops:
        paths = {}
        for name, data in op["args"]["files"].items():
            path = directory / f"op{op['id']}_{name}.json"
            path.write_text(json.dumps(data))
            paths[name] = str(path)
        argvs.append([a.format(**paths) for a in op["args"]["argv"]])
    return argvs


def cli_invoke(kids: Children, argv: list[str]):
    seconds, code, out, _, rss = kids.run([sys.executable, "-m", "dmajor.cli", *argv])
    return seconds, {"exit": code, "stdout": out}, rss


def run_cli(kids: Children, workdir: Path, ops: list[dict], rounds: int, trace: bool):
    """The runner is the single caller.  A fresh interpreter's start-up and
    imports do not follow the speed kernel of speed.py, so the speed sample
    here is a fresh ``python -c pass``, taken before every invocation and
    after the last."""
    argvs: list[list[str]] = []

    def setup(k: int) -> float:
        t0 = time.perf_counter()
        argvs[:] = write_cli_inputs(ops, workdir / f"inputs{k}")
        cli_invoke(kids, argvs[W.warmup_ids(ops)[0]])
        return time.perf_counter() - t0

    setups = [rescaled_setup(kids, lambda: setup(k)) for k in range(1 if trace else SETUP_REPEATS)]
    result: dict = {"latencies": [], "outputs": [], "walls": [], "setups": setups,
                    "traced": []}
    peak = 0
    step = 2 if trace else 1
    speed_at = []
    for r in range(rounds):
        lat, outs = [], []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            speed_at.append((step * r * len(ops) + i, interp_sample(kids)))
            seconds, out, rss = cli_invoke(kids, argvs[op["id"]])
            lat.append(seconds)
            outs.append(out)
            peak = max(peak, rss)
        result["walls"].append(time.perf_counter() - start)
        result["latencies"].append(lat)
        result["outputs"].append(outs)
        if trace:
            result["traced"].append(traced_cli_pass(kids, ops, argvs, speed_at,
                                                    (2 * r + 1) * len(ops)))
    speed_at.append((step * rounds * len(ops), interp_sample(kids)))
    result["speed"] = speed_at
    result["speed_ref"] = (INTERP_REF_S, INTERP_WINDOW)
    result["peak_rss_kb"] = peak
    return result


def interp_sample(kids: Children) -> float:
    return kids.run([sys.executable, "-c", "pass"])[0]


def rescaled_setup(kids: Children, timed) -> tuple[float, float]:
    """(seconds, rescale factor) of one set-up.  A set-up is mostly a fresh
    interpreter's start-up and imports, so its speed samples are fresh
    interpreters too: INTERP_WINDOW // 2 on each side of it."""
    before = [interp_sample(kids) for _ in range(INTERP_WINDOW // 2)]
    seconds = timed()
    after = [interp_sample(kids) for _ in range(INTERP_WINDOW // 2)]
    return seconds, INTERP_REF_S / statistics.median(before + after)


def traced_cli_pass(kids: Children, ops: list[dict], argvs: list[list[str]],
                    samples: list, offset: int) -> dict:
    """Each op once more, under the tracer in a fresh interpreter."""
    lat, outs, spans = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        samples.append((offset + i, interp_sample(kids)))
        seconds, code, out, err, _ = kids.run(
            [sys.executable, str(HERE / "cliprobe.py"), "trace", "--", *argvs[op["id"]]])
        lat.append(seconds)
        if code != 0:
            outs.append({"error": f"probe exited {code}: {err[-300:]}"})
            continue
        report = json.loads(out.strip().splitlines()[-1])
        outs.append({"exit": report["exit"], "stdout": report["stdout"]})
        base = len(spans)
        for s in report["spans"]:
            s["op"] = op["id"]
            s["parent"] = s["parent"] + base if s["parent"] >= 0 else -1
            spans.append(s)
    return {"latencies": lat, "outputs": outs, "wall": time.perf_counter() - start,
            "spans": spans}


def cli_probe(kids: Children, seed: int, workdir: Path) -> dict:
    """cli.* layer metrics: medians over fresh interpreters."""
    interp = [kids.run([sys.executable, "-c", "pass"])[0] * 1e3
              for _ in range(CLI_PROBE_REPEATS)]
    imports: dict[str, list[float]] = {"cli.import_ms": []}
    for _ in range(CLI_PROBE_REPEATS):
        _, code, out, err, _ = kids.run(
            [sys.executable, "-X", "importtime", str(HERE / "cliprobe.py"), "import"])
        if code != 0:
            raise BenchError(f"import probe failed: {err[-500:]}")
        imports["cli.import_ms"].append(json.loads(out.strip().splitlines()[-1])["import_ms"])
        for name, us in parse_importtime(err).items():
            imports.setdefault(IMPORT_PACKAGES[name], []).append(us / 1e3)
    cli_ops = W.build("cli_cold", seed)[0]
    main_ms = []
    for argv in write_cli_inputs(cli_ops, workdir / "probe"):
        _, code, out, err, _ = kids.run(
            [sys.executable, str(HERE / "cliprobe.py"), "main", "--", *argv])
        if code != 0:
            raise BenchError(f"main probe failed: {err[-500:]}")
        main_ms.append(json.loads(out.strip().splitlines()[-1])["main_ms"])
    metrics = {"cli.interp_ms": statistics.median(interp), "cli.main_ms": statistics.median(main_ms)}
    for name in IMPORT_PACKAGES.values():
        metrics[name] = statistics.median(imports[name]) if imports.get(name) else 0.0
    metrics["cli.import_ms"] = statistics.median(imports["cli.import_ms"])
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative microseconds of the first import of each probed package."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[2].strip()
        if name in IMPORT_PACKAGES and name not in found and parts[1].strip().isdigit():
            found[name] = float(parts[1])
    return found


# ---------------------------------------------------------------------------
# checking and metrics
# ---------------------------------------------------------------------------

def check_rounds(ops: list[dict], outputs: list[list]) -> list[list[str | None]]:
    """Failure reason (or None) of every op in every round.  An output that
    pickles to the same bytes as the op's output in the first round shares
    that verdict; any other output is checked on its own."""
    first = [pickle.dumps(out) for out in outputs[0]]
    reasons = [[checks.check(op, out) for op, out in zip(ops, outputs[0])]]
    for outs in outputs[1:]:
        reasons.append([reasons[0][i] if pickle.dumps(out) == first[i] else checks.check(op, out)
                        for i, (op, out) in enumerate(zip(ops, outs))])
    return reasons


def tail(values_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(values_ms)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(result, reasons, passes: int) -> tuple[dict, dict]:
    """Every op of the list runs once per round.  Each op time is rescaled to
    the reference speed by the speed samples next to it (speed.py), and an
    op's latency is the median of its rescaled times over the rounds.

    The list is ``passes`` stratified passes of equal length and mix.  Per
    pass, ops_per_s is the pass's passed ops over the sum of its op
    latencies, op_p50_ms the median op latency, and op_tail_ms the highest
    percentile with at least ten ops beyond it; each metric is the median of
    its per-pass values.  So a rare pathological op (an n = 8 LP at scale 1e6
    that pivots for seconds, in about one run of ten) moves one pass, not
    the metric; the record keeps the whole-list figures, which it does move.
    pass_ratio counts every op of every round.  setup_s is the median of the
    rescaled set-ups."""
    rounds, count = len(result["latencies"]), len(result["latencies"][0])
    size = count // passes
    factor = speed_factors(result, rounds * count)
    raw_ms = [[t * 1e3 for t in lat] for lat in result["latencies"]]
    scaled_ms = [[t * factor[r * count + i] for i, t in enumerate(lat)]
                 for r, lat in enumerate(raw_ms)]
    passed = [sum(rs[i] is None for rs in reasons) / rounds for i in range(count)]
    pass_ratio = sum(passed) / count

    def figures(lat_ms):
        per_op = [statistics.median(col) for col in zip(*lat_ms)]
        by_pass = {"ops_per_s": [], "op_p50_ms": [], "op_tail_ms": []}
        for k in range(passes):
            ops, ok = per_op[k * size:(k + 1) * size], passed[k * size:(k + 1) * size]
            by_pass["ops_per_s"].append(sum(ok) / (sum(ops) / 1e3))
            by_pass["op_p50_ms"].append(statistics.median(ops))
            by_pass["op_tail_ms"].append(tail(ops)[0])
        whole = {"ops_per_s": sum(passed) / (sum(per_op) / 1e3),
                 "op_p50_ms": statistics.median(per_op), "op_tail_ms": tail(per_op)[0]}
        return {k: statistics.median(v) for k, v in by_pass.items()}, by_pass, whole

    metrics, by_pass, whole = figures(scaled_ms)
    metrics.update({
        "pass_ratio": pass_ratio,
        "setup_s": statistics.median(raw * f for raw, f in result["setups"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    })
    unscaled, _, _ = figures(raw_ms)
    unscaled["setup_s"] = statistics.median(raw for raw, _ in result["setups"])
    timings = {
        "op_latency_ms": {"statistic": "per op the median of its rescaled times over the "
                                       "rounds; per pass ops_per_s, p50 and tail over its "
                                       "ops; the median over the passes",
                          "ops": count, "passes": passes, "ops_per_pass": size,
                          "rounds": rounds, "tail_percentile": tail(list(range(size)))[1],
                          "by_pass": by_pass, "whole_list": whole},
        "unscaled": unscaled,
        "round_wall_s": result["walls"],
        "setup_s": {"statistic": "median of rescaled", "count": len(result["setups"]),
                    "samples": [raw * f for raw, f in result["setups"]],
                    "unscaled": [raw for raw, _ in result["setups"]]},
    }
    if result.get("speed"):
        samples = [s for _, s in result["speed"]]
        timings["speed"] = {"samples": len(samples),
                            "reference_s": result.get("speed_ref", (speed.REF_SAMPLE_S,))[0],
                            "median_s": statistics.median(samples),
                            "quartiles_s": statistics.quantiles(samples, n=4)}
    return metrics, timings


def per_layer(spans: list[dict], n_ops: int, overhead_pct: float, probe: dict) -> dict:
    """Per-layer metrics from the spans of one traced pass of n_ops ops."""
    durations = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += durations[i]
    agg: dict[str, dict] = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s["name"], {"calls": 0, "self": 0.0, "failed": 0, "cells": 0,
                                       "kept": 0, "perms": 0, "by_n": {}})
        a["calls"] += 1
        a["self"] += durations[i] - child[i]
        a["failed"] += bool(s["failed"])
        extra = s["extra"] or {}
        a["cells"] += extra.get("cells", 0)
        if "kept" in extra:
            a["kept"] += extra["kept"]
            a["perms"] += math.factorial(extra["n"])
        if "n" in extra:
            a["by_n"].setdefault(extra["n"], []).append(durations[i] - child[i])

    def stat(name: str, what: str) -> float:
        a = agg.get(name)
        if a is None:
            return 0.0
        return {"calls": a["calls"], "self_ms": a["self"] * 1e3, "failed": a["failed"],
                "cells": a["cells"]}[what] / n_ops

    metrics: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        head, _, what = metric.rpartition(".")
        if head.startswith(("cli", "trace")) or what in ("n4", "n5", "n6", "kept_ratio",
                                                          "expm_per_call"):
            continue
        module, fn = head.split(".", 1)
        module = {"simplex": "_simplex"}.get(module, module)
        fn = {"first_face_hit": "_first_face_hit"}.get(fn, fn)
        metrics[metric] = stat(f"{module}.{fn}", what)
    vert = agg.get("polytope.vertices", {"by_n": {}, "kept": 0, "perms": 0})
    for n in (4, 5, 6):
        samples = vert["by_n"].get(n)
        metrics[f"polytope.vertices.self_ms.n{n}"] = \
            1e3 * sum(samples) / len(samples) if samples else 0.0
    metrics["polytope.vertices.kept_ratio"] = vert["kept"] / vert["perms"] if vert["perms"] else 0.0
    metrics["reach.synthesize.expm_per_call"] = expm_per_synthesize(spans)
    metrics.update(probe)
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["trace.spans"] = len(spans) / n_ops
    return {name: metrics[name] for name, _ in PER_LAYER}


def speed_factors(result: dict, count: int) -> list[float]:
    """Rescale factor of each op position."""
    positions, samples = zip(*result["speed"])
    return speed.factors(list(positions), list(samples), count,
                         *result.get("speed_ref", (speed.REF_SAMPLE_S, 2)))


def trace_overhead_pct(result: dict, reasons: list, traced_reasons: list) -> float:
    """How much lower passed ops per second are traced than untraced.  Round
    r untraced and round r traced sit at sample positions 2r and 2r + 1; each
    op time is rescaled as in end_to_end, and an op's latency is its median
    over the rounds."""
    count = len(result["latencies"][0])
    factor = speed_factors(result, 2 * len(reasons) * count)

    def rate(latencies: list[list[float]], outcomes: list[list], side: int) -> float:
        scaled = [[t * factor[(2 * r + side) * count + i] for i, t in enumerate(lat)]
                  for r, lat in enumerate(latencies)]
        seconds = sum(statistics.median(col) for col in zip(*scaled))
        return sum(o is None for rs in outcomes for o in rs) / len(outcomes) / seconds

    untraced = rate(result["latencies"], reasons, 0)
    traced = rate([tr["latencies"] for tr in result["traced"]], traced_reasons, 1)
    return 100.0 * (untraced - traced) / untraced


def expm_per_synthesize(spans: list[dict]) -> float:
    """linalg.expm spans under a reach.synthesize span, per synthesize call."""
    calls = sum(s["name"] == "reach.synthesize" for s in spans)
    if not calls:
        return 0.0
    under = 0
    for s in spans:
        if s["name"] != "linalg.expm":
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != "reach.synthesize":
            p = spans[p]["parent"]
        under += p >= 0
    return under / calls


def top_level_share(spans: list[dict], latencies: list[float]) -> float:
    """Share of the traced ops' wall time covered by their top-level spans."""
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    return covered / sum(latencies) if latencies else 0.0


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def blas_info() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(root: Path) -> dict:
    import scipy
    return {"git_sha": git_sha(root), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def bench(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (root / "src" / "dmajor" / "__init__.py").is_file():
        raise BenchError(f"no src/dmajor package under {root}; run from a dmajor checkout")
    ops = W.run_list(workload, seed)
    rounds = W.LIST[workload].trace_rounds if trace else W.rounds_for(workload, seconds)
    workdir = root / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "rounds": rounds, "ops": len(ops),
              "closed_loop": "one caller, one op at a time", **environment(root),
              "loadavg_start": loadavg()}
    kids = Children(root, workdir, time.monotonic() + RUN_DEADLINE_S)
    try:
        if workload == "cli_cold":
            result = run_cli(kids, workdir, ops, rounds, trace)
        else:
            result = run_library(kids, workdir, ops, rounds, trace)
        probe = cli_probe(kids, seed, workdir) if trace else None
    finally:
        kids.stop_all()
    record["loadavg_end"] = loadavg()

    reasons = check_rounds(ops, result["outputs"])
    with open(workdir / "latencies.json", "w") as fh:
        json.dump(result["latencies"], fh)
    if trace:
        # every traced round runs the same list: counts are equal in every
        # round and timings come from the best round
        traced = result["traced"]
        traced_reasons = check_rounds(ops, [tr["outputs"] for tr in traced])
        best = min(traced, key=lambda tr: tr["wall"])
        overhead = trace_overhead_pct(result, reasons, traced_reasons)
        metrics = per_layer(best["spans"], len(ops), overhead, probe)
        record["timings"] = {"round_wall_s": result["walls"],
                             "traced_round_wall_s": [tr["wall"] for tr in traced]}
        record["top_level_span_share"] = top_level_share(best["spans"], best["latencies"])
        with open(workdir / "spans.json", "w") as fh:
            json.dump(best["spans"], fh)
        reasons += traced_reasons
    else:
        metrics, record["timings"] = end_to_end(result, reasons, W.LIST[workload].passes)
    outcomes = [r for rs in reasons for r in rs]

    failures: dict[str, dict[str, int]] = {}
    undocumented = 0
    for op, reason in zip(ops * len(reasons), outcomes):
        if reason is None:
            continue
        key = reason if len(reason) <= 80 else reason[:77] + "..."
        bucket = failures.setdefault(W.stratum(op), {})
        bucket[key] = bucket.get(key, 0) + 1
        undocumented += not checks.documented(op, reason)
    record["failures"] = failures
    record["undocumented_failures"] = undocumented
    units = dict(PER_LAYER if trace else END_TO_END)
    result_line = {
        "correct": undocumented == 0,
        "attempted": len(outcomes),
        "failed": sum(r is not None for r in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result_line
    with open(workdir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for name in ("inputs.pkl", "outputs.pkl"):
        (workdir / name).unlink(missing_ok=True)
    return record, result_line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = bench(Path.cwd(), args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
