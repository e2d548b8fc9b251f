"""Benchmark worker: one fresh process, one caller, closed loop.

    python3 dmbench/worker.py INPUTS OUTPUTS {setup,run,trace}

It imports dmajor from ``src/`` of the checkout, loads the pickled list the
runner wrote, runs one smallest item of each operation kind as warm-up and
prints READY: everything up to that line is set-up.  ``setup`` exits there.
``run`` executes the whole list ``rounds`` times, in order, and takes a speed
sample (speed.py) before the first op, after the last, and between ops
whenever SPEED_EVERY_S has passed since the last sample.  ``trace`` follows
each round with the same round under the tracer; sample positions then count
the ops of both.
Outputs, latencies, speed samples and spans go to OUTPUTS as a pickle for the
runner to check.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dmajor  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

# an operation that runs longer than this fails; no item takes more than ~1 s
OP_TIMEOUT_S = 20.0
D_METHODS = ("norm", "positive_part", "curve")
# a speed sample costs ~3 ms, so this keeps sampling near 6 % of a run
SPEED_EVERY_S = 0.05


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:g} s")


def op_certify(a):
    x, y, d = a["x"], a["y"], a["d"]
    verdicts = {m: dmajor.d_majorizes(x, y, d, method=m) for m in D_METHODS}
    verdicts["contains"] = dmajor.contains(x, dmajor.halfspace_bounds(y, d))
    cert = dmajor.d_stochastic_transfer(x, y, d).matrix if verdicts["norm"] else None
    return {"verdicts": verdicts, "certificate": cert}


def op_channel(a):
    t = dmajor.channel_between(a["a"], a["b"])
    return {"action": t.action, "cp": dmajor.is_cp(t), "tp": dmajor.is_tp(t),
            "kraus": dmajor.kraus_set(t)}


def op_cnr(a):
    return dmajor.c_numerical_range_sample(a["c"], a["t"], a["count"], seed=a["seed"])


def op_polytope(a):
    vs = dmajor.vertices(a["y"], a["d"])
    return {"points": vs.points, "perms": vs.perms,
            "max_corner": dmajor.max_corner(a["y"], a["d"]),
            "hausdorff": dmajor.hausdorff(vs.points, a["ref"])}


def _segments(schedule):
    return [(seg.perm, seg.duration) for seg in schedule.segments]


def op_synthesize(a):
    gen = dmajor.b0_from_rates(dmajor.zero_temperature_rates(a["n"]))
    return _segments(dmajor.synthesize(gen, a["x0"], a["x"], a["eps"]))


def op_synthesize_local(a):
    return _segments(dmajor.synthesize_local(a["n"], a["m"], a["x0"], a["x"], a["eps"]))


def op_envelope(a):
    z, report = dmajor.majorization_envelope(a["x0"], a["d"], sample_count=a["samples"],
                                             sample_depth=a["depth"], seed=a["seed"])
    return {"z": z, "violations": report.sampled_violations,
            "samples_checked": report.samples_checked,
            "initial_majorized": report.initial_majorized}


def op_simulate(a):
    gen = dmajor.b0_from_rates(dmajor.thermal_rates(a["d"]))
    schedule = dmajor.Schedule([dmajor.Segment(p, t) for p, t in a["schedule"]])
    traj = dmajor.simulate(gen, a["x0"], schedule, a["dt"])
    return {"times": traj.times, "states": traj.states}


OPS = {
    "certify": op_certify,
    "channel": op_channel,
    "cnr": op_cnr,
    "polytope": op_polytope,
    "synthesize": op_synthesize,
    "synthesize_local": op_synthesize_local,
    "envelope": op_envelope,
    "simulate": op_simulate,
}


def run_pass(ops: list[dict], tracer: Tracer | None = None, samples: list | None = None,
             offset: int = 0):
    """Run every op once, in order.  Returns (latencies, outputs, wall).  With
    ``samples``, appends (offset + index of the next op, sample seconds)
    between ops, at most every SPEED_EVERY_S."""
    clock = time.perf_counter
    latencies, outputs = [], []
    start = clock()
    last = -SPEED_EVERY_S
    for i, op in enumerate(ops):
        if samples is not None and clock() - last >= SPEED_EVERY_S:
            samples.append((offset + i, speed.sample()))
            last = clock()
        fn, args = OPS[op["kind"]], op["args"]
        if tracer is not None:
            tracer.op = op["id"]
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = clock()
        try:
            out = fn(args)
        except Exception as exc:  # every failure is recorded and the loop goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            t1 = clock()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        latencies.append(t1 - t0)
        outputs.append(out)
    return latencies, outputs, clock() - start


def main(argv: list[str]) -> int:
    inputs, outputs, mode = argv
    if not os.path.abspath(dmajor.__file__).startswith(os.path.join(ROOT, "src", "")):
        print(f"dmajor imported from {dmajor.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    with open(inputs, "rb") as fh:
        plan = pickle.load(fh)
    ops = plan["ops"]
    signal.signal(signal.SIGALRM, _alarm)
    run_pass([op for op in ops if op["id"] in plan["warmup"]])
    print("READY", flush=True)
    if mode == "setup":
        return 0
    speed.warm()

    result: dict = {"latencies": [], "outputs": [], "walls": [], "traced": []}
    samples: list = []
    step = 2 if mode == "trace" else 1
    for r in range(plan["rounds"]):
        lat, out, wall = run_pass(ops, samples=samples, offset=step * r * len(ops))
        result["latencies"].append(lat)
        result["outputs"].append(out)
        result["walls"].append(wall)
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
            try:
                lat, out, wall = run_pass(ops, tracer, samples, (2 * r + 1) * len(ops))
            finally:
                tracer.uninstall()
            result["traced"].append({"latencies": lat, "outputs": out, "wall": wall,
                                     "spans": tracer.rows()})
    samples.append((step * plan["rounds"] * len(ops), speed.sample()))
    result["speed"] = samples
    with open(outputs, "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
