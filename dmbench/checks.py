"""Independent output checks, written against numpy/scipy only.

``check(op, output)`` returns None when the output passes, else a short
failure reason.  An ``output`` of the form {"error": "..."} is an operation
that raised or timed out in the worker; it always fails.

Known defects are never filtered out of the failure count.  ``documented``
only tells the runner whether a failure belongs to a known defect class,
which is what decides the ``correct`` flag.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

import numpy as np
import scipy.linalg

import workloads as W

# certificate residual gate: entries, column sums, A d = d and A y = x,
# each relative to the size of the problem
CERT_TOL = 1e-8


def _majorizes(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """Classical majorization x < y: equal totals, dominated sorted partial
    sums.  x may be a stack of rows, each tested against y."""
    xs = np.cumsum(-np.sort(-np.atleast_2d(x), axis=-1), axis=-1)
    ys = np.cumsum(np.sort(y)[::-1])
    return bool(np.all(np.abs(xs[:, -1] - ys[-1]) <= tol) and np.all(xs[:, :-1] <= ys[:-1] + tol))


def _certificate_residual(a: np.ndarray, x, y, d) -> str | None:
    if a is None:
        return "positive verdict without certificate"
    scale = max(1.0, float(np.abs(y).sum()))
    if float(a.min()) < -CERT_TOL:
        return "certificate has a negative entry"
    if float(np.abs(a.sum(axis=0) - 1.0).max()) > CERT_TOL:
        return "certificate column sums deviate from 1"
    if float(np.abs(a @ d - d).sum()) > CERT_TOL * d.sum():
        return "certificate does not fix d"
    if float(np.abs(a @ y - x).sum()) > CERT_TOL * scale:
        return "certificate does not map y to x"
    return None


def check_certify(op: dict, out: dict) -> str | None:
    a = op["args"]
    verdicts = out["verdicts"]
    if len(set(verdicts.values())) != 1:
        return "verdict routes disagree"
    verdict = verdicts["norm"]
    expected = op["expect"]["verdict"]
    if expected is not None and verdict != expected:
        return f"verdict {verdict}, constructed as {expected}"
    if verdict:
        return _certificate_residual(out["certificate"], a["x"], a["y"], a["d"])
    if out["certificate"] is not None:
        return "certificate on a negative verdict"
    return None


def _unit_image(action: np.ndarray, n: int, j: int, l: int) -> np.ndarray:
    """T(E_jl) from a column-stacking superoperator matrix."""
    return action[:, j + l * n].reshape((n, n), order="F")


def check_channel(op: dict, out: dict) -> str | None:
    a, b = op["args"]["a"], op["args"]["b"]
    n = a.shape[0]
    action = out["action"]
    tol = 1e-8 * max(1.0, float(np.abs(b).max()))
    choi = np.block([[_unit_image(action, n, j, l) for l in range(n)] for j in range(n)])
    if float(np.abs(choi - choi.conj().T).max()) > 1e-9:
        return "Choi matrix is not Hermitian"
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    if w.min() < -1e-9 * max(1.0, float(np.abs(w).max())):
        return "channel is not CP"
    traces = np.array([[np.trace(_unit_image(action, n, j, l)) for l in range(n)]
                       for j in range(n)])
    if float(np.abs(traces - np.eye(n)).max()) > 1e-9:
        return "channel is not TP"
    image = (action @ b.flatten(order="F")).reshape((n, n), order="F")
    if float(np.abs(image - a).max()) > tol:
        return "T(b) differs from a"
    if not (out["cp"] and out["tp"]):
        return "is_cp / is_tp reported False"
    kraus = out["kraus"]
    if float(np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(n)).max()) > 1e-8:
        return "Kraus operators are not trace preserving"
    if float(np.abs(sum(k @ b @ k.conj().T for k in kraus) - a).max()) > tol:
        return "Kraus operators do not map b to a"
    return None


def check_cnr(op: dict, out: np.ndarray) -> str | None:
    c, t = op["args"]["c"], op["args"]["t"]
    if out.shape != (op["args"]["count"],):
        return "wrong sample count"
    wc = np.sort(np.linalg.eigvalsh(c))[::-1]
    wt = np.sort(np.linalg.eigvalsh(t))[::-1]
    tol = 1e-9 * (1.0 + float(np.abs(wc).sum() * np.abs(wt).sum()))
    if float(np.abs(out.imag).max()) > tol:
        return "sample of a Hermitian pair has an imaginary part"
    if out.real.min() < wc @ wt[::-1] - tol or out.real.max() > wc @ wt + tol:
        return "sample outside the sorted-eigenvalue bounds"
    return None


def _subset_bounds(y: np.ndarray, d: np.ndarray):
    """Every nonempty subset mask with its bound: the curve at its d-weight."""
    n = y.size
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=n)))[1:]
    c, f = W.thermo_curve(y, d)
    return masks, np.interp(masks @ d, c, f)


def _vertex_set_error(y: np.ndarray, d: np.ndarray, points: np.ndarray, perms) -> str | None:
    n = y.size
    tol = 1e-9 * max(1.0, float(np.abs(y).sum()))
    masks, bounds = _subset_bounds(y, d)
    if float((points @ masks.T - bounds).max()) > tol:
        return "corner violates a subset-sum constraint"
    if float(np.abs(points.sum(axis=1) - y.sum()).max()) > tol:
        return "corner has the wrong trace"
    flat = sorted(tuple(p) for group in perms for p in group)
    if flat != list(itertools.permutations(range(n))):
        return "generating permutations do not cover each of the n! permutations once"
    owner = np.repeat(np.arange(len(perms)), [len(g) for g in perms])
    closed = W.corners(y, d, np.array([p for g in perms for p in g]))
    if float(np.abs(closed - points[owner]).sum(axis=1).max()) > 2 * tol:
        return "corner differs from the closed form of its permutations"
    if len(W.distinct_rows(points, tol)) != len(points):
        return "corners are not distinct"
    return None


def check_polytope(op: dict, out: dict) -> str | None:
    y, d, ref = op["args"]["y"], op["args"]["d"], op["args"]["ref"]
    points = out["points"]
    reason = _vertex_set_error(y, d, points, out["perms"])
    if reason:
        return reason
    tol = 1e-9 * max(1.0, float(np.abs(y).sum()))
    if not _majorizes(points, out["max_corner"], tol):
        return "max_corner does not majorize every vertex"
    dist = np.abs(points[:, None, :] - ref[None, :, :]).sum(axis=2)
    h = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    if abs(out["hausdorff"] - h) > 1e-12 * max(1.0, h):
        return "hausdorff distance differs"
    return None


def _propagate(b0: np.ndarray, x0: np.ndarray, segments) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    for perm, duration in segments:
        x = x[list(perm)]
        if duration > 0:
            x = scipy.linalg.expm(-duration * b0) @ x
    return x


def check_synthesize(op: dict, out: list) -> str | None:
    a = op["args"]
    if op["kind"] == "synthesize_local":
        b0 = np.kron(np.eye(a["n"] ** (a["m"] - 1)), W.zero_temp_b0(a["n"]))
    else:
        b0 = W.zero_temp_b0(a["n"])
    err = float(np.abs(_propagate(b0, a["x0"], out) - a["x"]).sum())
    return None if err <= a["eps"] else f"endpoint error {err:.3e} exceeds eps"


def check_envelope(op: dict, out: dict) -> str | None:
    x0 = op["args"]["x0"]
    if out["violations"] != 0:
        return f"{out['violations']} sampled endpoints escape the envelope"
    if out["samples_checked"] != op["args"]["samples"]:
        return "wrong number of samples checked"
    if not out["initial_majorized"]:
        return "envelope reports x0 outside"
    if not _majorizes(x0 / x0.sum(), out["z"], 1e-9):
        return "envelope vertex does not majorize x0"
    return None


def _simulate_ok(a: dict, times: np.ndarray, states: np.ndarray) -> str | None:
    if np.any(np.diff(times) < 0):
        return "trajectory times decrease"
    if float(np.abs(states.sum(axis=1) - 1.0).max()) > 1e-9 or float(states.min()) < -1e-9:
        return "trajectory leaves the simplex"
    rows = 1 + sum(2 + int(t // a["dt"]) if t > 0 else 1 for _, t in a["schedule"])
    if len(times) != rows:
        return f"{len(times)} trajectory rows, expected {rows}"
    end = _propagate(W.thermal_b0(a["d"]), a["x0"], a["schedule"])
    if float(np.abs(states[-1] - end).sum()) > 1e-9:
        return "trajectory endpoint differs from the exact propagation"
    return None


def check_simulate(op: dict, out: dict) -> str | None:
    return _simulate_ok(op["args"], out["times"], out["states"])


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def _cmatrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_cli(op: dict, out: dict) -> str | None:
    """Exit code and parsed report of one CLI invocation."""
    if out["exit"] not in (0, 1):
        return f"exit code {out['exit']}"
    reason = _cli_report_error(op, out["stdout"])
    if reason is None and out["exit"] != 0:
        return "exit code 1 on a constructed positive"
    return reason


def _cli_report_error(op: dict, text: str) -> str | None:
    kind = op["kind"]
    files = op["args"]["files"]
    if kind in ("cli_simulate", "cli_cnr"):
        header, rows = _csv_rows(text)
        if kind == "cli_cnr":
            if header != ["re", "im"]:
                return "unexpected CSV header"
            fake = {"args": {"c": _cmatrix(files["c"]), "t": _cmatrix(files["t"]),
                             "count": W.CNR_COUNT}}
            return check_cnr(fake, rows[:, 0] + 1j * rows[:, 1])
        a = {"d": np.array(files["d"]), "x0": np.array(files["x0"]), "dt": W.SIMULATE_DT,
             "schedule": [(s["perm"], s["duration"]) for s in files["schedule"]["segments"]]}
        return _simulate_ok(a, rows[:, 0], rows[:, 1:])
    report = json.loads(text)
    data = report["data"]
    if kind == "cli_check":
        x, y, d = (np.array(files[k]) for k in ("x", "y", "d"))
        if report["verdict"] is not True:
            return "negative verdict on a constructed positive"
        return _certificate_residual(np.array(data["certificate"]), x, y, d)
    if kind == "cli_polytope":
        y, d = np.array(files["y"]), np.array(files["d"])
        if float(np.abs(np.array(data["b"])[:-1] - _row_bounds(y, d)).max()) > 1e-12:
            return "half-space bounds differ from the curve"
        return _vertex_set_error(y, d, np.array(data["vertices"]), data["generating_perms"])
    if kind == "cli_curve":
        c, f = W.thermo_curve(np.array(files["y"]), np.array(files["d"]))
        if not (np.allclose(data["elbows_c"], c, rtol=0, atol=1e-14)
                and np.allclose(data["elbows_f"], f, rtol=0, atol=1e-14)):
            return "curve elbows differ"
        return None
    if kind == "cli_bath":
        if float(np.abs(np.array(data["b0"]) - W.thermal_b0(np.array(files["d"]))).max()) > 1e-12:
            return "rate matrix differs"
        return None
    if kind == "cli_synthesize":
        segments = [(s["perm"], s["duration"]) for s in data["segments"]]
        fake = {"kind": "synthesize", "args": {"n": op["n"], "x0": np.array(files["x0"]),
                                               "x": np.array(files["x"]), "eps": W.STEER_EPS}}
        return check_synthesize(fake, segments)
    if kind == "cli_bound":
        if report["verdict"] is not True or data["sampled_violations"] != 0:
            return "envelope check failed"
        x0 = np.array(files["x0"])
        return None if _majorizes(x0 / x0.sum(), np.array(data["z"]), 1e-9) \
            else "envelope vertex does not majorize x0"
    if kind == "cli_channel":
        fake = {"args": {"a": _cmatrix(files["a"]), "b": _cmatrix(files["b"])}}
        out_ch = {"action": _cmatrix(data["superoperator"]), "cp": data["cp"], "tp": data["tp"],
                  "kraus": [_cmatrix(k) for k in data["kraus"]]}
        return check_channel(fake, out_ch) or (
            None if report["verdict"] is True else "channel verdict is not True")
    return f"no check for {kind}"


def _row_bounds(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Bounds of the subset rows in the CLI's order: singletons, pairs, ...,
    then the full set."""
    n = y.size
    c, f = W.thermo_curve(y, d)
    subsets = [s for j in range(1, n) for s in itertools.combinations(range(n), j)]
    subsets.append(tuple(range(n)))
    return np.interp([d[list(s)].sum() for s in subsets], c, f)


CHECKS = {
    "certify": check_certify,
    "channel": check_channel,
    "cnr": check_cnr,
    "polytope": check_polytope,
    "synthesize": check_synthesize,
    "synthesize_local": check_synthesize,
    "envelope": check_envelope,
    "simulate": check_simulate,
}


def check(op: dict, output) -> str | None:
    if isinstance(output, dict) and "error" in output:
        return output["error"]
    try:
        if op["kind"].startswith("cli_"):
            return check_cli(op, output)
        return CHECKS[op["kind"]](op, output)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def documented(op: dict, reason: str) -> bool:
    """A failure of a known defect class.

    ROADMAP item 3 (absolute tolerances): a certify item whose certificate
    synthesis raises (seen at scales 1e+-6 and, rarely, on perturbed corners
    at scale 1), or an item at scale 1e+-6 where `contains` disagrees with the
    three scaled criteria.

    channel_between on a definite b (all eigenvalues of one sign): then
    ||a||_1 = |tr a| = ||b||_1, and when rounding puts ||a||_1 one ulp above,
    the slack absorption shrinks the spectrum of a to its mean, so T(b) != a
    although is_cp and is_tp hold.
    """
    if op["kind"] == "certify":
        if reason == "verdict routes disagree":
            return op["scale"] != 1.0
        return reason.startswith(("TransferSynthesisError", "ValueError: column sums deviate",
                                  "ValueError: weight vector is not a fixed point"))
    if op["kind"] in ("channel", "cli_channel") and reason == "T(b) differs from a":
        b = op["args"]["b"] if op["kind"] == "channel" else _cmatrix(op["args"]["files"]["b"])
        w = np.linalg.eigvalsh(b)
        return bool(w.min() > 0.0 or w.max() < 0.0)
    return False

