"""Command-line front end.

Subcommands wrap the library operations and emit machine-readable reports:
JSON to stdout (or --out), CSV for tabular data.  Exit codes: 0 = true/ok,
1 = negative verdict, 2 = input error (an --out that cannot be written
included), 3 = numerical failure or internal error, 141 = stdout closed by
its reader.

Flags: COMMANDS gives each subcommand the global flags it reads (before or
after its name) and its flags of one mode; any other flag exits 2, naming
itself and the subcommand.  DMAJOR_TOL is read only where --tol is.

File formats: vectors are JSON arrays; real matrices are arrays of row
arrays; complex matrices use [re, im] entry pairs; schedules are
{"segments": [{"perm": [...], "duration": t}]} with integer perm entries.

Start-up: the module loads the standard library and dmajor.majorize only,
and each handler imports what it runs.  `check` (classical or with --d,
with or without --certificate) and `curve` read their vectors as lists of
floats and run majorize's list kernels, so they finish without loading
numpy; every other subcommand loads it.

Exit: `python -m dmajor.cli` and the `dmajor` script end through `run()`,
which freezes the heap once `main()` returns.  The interpreter's shutdown
collections do not scan frozen objects, so the process skips a full pass
over what numpy created; module teardown, atexit handlers and the flushing
of stdout and stderr still run.  In-process callers use `main()`, which
leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

# each handler imports the modules it runs, numpy included, so a cold start
# loads only those
from . import majorize
from .majorize import SimplexViolationError, TransferSynthesisError

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141     # 128 + SIGPIPE, as a shell reports a tool whose reader went away

TOL_ENV_VAR = "DMAJOR_TOL"


class _InputError(Exception):
    pass


def _load_json(path: str, read=None):
    """The JSON document in path, or what read makes of it, its ValueError
    then naming path.  Where a handler reads numbers from it, the library's
    gate (majorize._numbers) refuses JSON true and false."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    try:
        return doc if read is None else read(doc)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}")


def _load_entries(path: str) -> list:
    """A JSON array of finite numbers as a list of floats, without numpy."""
    return _load_json(path, majorize._finite_entries)


def _load_vector(path: str):
    """A JSON array of finite numbers as a float array."""
    import numpy as np

    return np.array(_load_entries(path))


def _load_complex_matrix(path: str):
    arr = _load_json(path, majorize.as_real_array)
    if arr.ndim == 2:  # plain real matrix
        return arr.astype(complex)
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise _InputError(f"{path}: expected a matrix of numbers or of [re, im] pairs")


def _complex_matrix_json(m) -> list:
    import numpy as np

    return np.stack((m.real, m.imag), -1).tolist()


def _real_json(a) -> list:
    import numpy as np

    return np.asarray(a, float).tolist()


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _InputError(f"cannot write {args.out}: {exc}")
    else:
        print(text)


def _emit(args, verdict=None, data=None, diagnostics=None) -> None:
    """The JSON report of args.command: its verdict, where it has one, data
    and diagnostics."""
    report = {"command": args.command}
    if verdict is not None:
        report["verdict"] = bool(verdict)
    report.update(data=data or {}, diagnostics=diagnostics or [])
    _write(args, json.dumps(report))    # no indent: json then runs its C encoder


def _generator_from_args(args):
    from . import dissipation

    if args.zero_temp is not None:
        return dissipation.b0_from_rates(
            dissipation.zero_temperature_rates(args.zero_temp))
    if args.thermal is not None:
        d = _load_vector(args.thermal)
        return dissipation.b0_from_rates(dissipation.thermal_rates(d))
    return dissipation.Generator(_load_json(args.b0, majorize.as_real_array))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _certificate_residuals(a: list, x: list, y: list, d: list | None = None) -> list[str]:
    """Residual lines of a transfer certificate, the rows a, with A y = x (and
    A d = d)."""
    lines = [f"certificate transfer 1-norm error {majorize._residual(a, y, x):.3e}",
             f"certificate column-sum error {max(abs(sum(c) - 1.0) for c in zip(*a)):.3e}",
             f"certificate min entry {min(map(min, a)):.3e}"]
    if d is not None:
        lines.append(f"certificate fixed-point 1-norm error {majorize._residual(a, d, d):.3e}")
    return lines


def _cmd_check(args) -> int:
    # one validation and one run of the route, classical check being the
    # curve route at d = e as in majorizes; the certificate then comes from
    # the chain's list core, as the transfer functions'
    x, y = _load_entries(args.x), _load_entries(args.y)
    d = None if args.d is None else _load_entries(args.d)
    x, y, e = majorize._validated(x, y, d)
    verdict = majorize._d_majorizes(x, y, e, "curve" if d is None else args.method, args.tol)
    data: dict = {}
    diagnostics = []
    if verdict and args.certificate:
        rows = majorize._chain_rows(x, y, e, args.tol)[0]
        data["certificate"] = rows
        data["certificate_kind"] = "doubly" if d is None else "d-stochastic"
        diagnostics = _certificate_residuals(rows, x, y, d)
    _emit(args, verdict=verdict, data=data, diagnostics=diagnostics)
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_polytope(args) -> int:
    from . import polytope

    y, d = _load_vector(args.y), _load_vector(args.d)
    poly = polytope.halfspace_bounds(y, d)
    verts = polytope.vertices(y, d)
    if args.format == "csv":
        rows = sorted(",".join(repr(float(v)) for v in p) for p in verts.points)
        _write(args, "\n".join([",".join(f"x{i}" for i in range(poly.n)), *rows]))
    else:
        data = {
            "n": poly.n,
            "b": _real_json(poly.b),
            "vertices": _real_json(verts.points),
            "generating_perms": [[list(p) for p in ps] for ps in verts.perms],
        }
        _emit(args, data=data)
    return EXIT_TRUE


def _cmd_curve(args) -> int:
    y, d = _load_entries(args.y), _load_entries(args.d)
    cs, fs = majorize._elbows(*majorize._validated(y, d))     # thermo_curve's elbows
    if args.format == "csv":
        _write(args, "\n".join(["c,f", *(f"{c!r},{f!r}" for c, f in zip(cs, fs))]))
    else:
        _emit(args, data={"elbows_c": cs, "elbows_f": fs})
    return EXIT_TRUE


def _cmd_bath(args) -> int:
    from . import dissipation

    data: dict = {}
    if args.zero_temp is not None:
        rates = dissipation.zero_temperature_rates(args.zero_temp)
    else:
        if args.gibbs is not None:
            d = dissipation.gibbs_vector(_load_vector(args.gibbs), args.temperature)
        elif args.equidistant is not None:
            alpha, n = args.equidistant
            d = dissipation.equidistant_d(float(alpha), int(n))
        else:
            d = _load_vector(args.thermal)
        rates = dissipation.thermal_rates(d)
        data["d"] = _real_json(d)
    gen = dissipation.b0_from_rates(rates)
    data["a"] = _real_json(rates.a)
    data["b"] = _real_json(rates.b)
    data["b0"] = _real_json(gen.b0)
    _emit(args, data=data)
    return EXIT_TRUE


def _cmd_simulate(args) -> int:
    from . import reach

    gen = _generator_from_args(args)
    x0 = _load_vector(args.x0)
    sched = reach.Schedule.from_dict(_load_json(args.schedule))
    traj = reach.simulate(gen, x0, sched, dt=args.dt)
    header = "t," + ",".join(f"x{i}" for i in range(traj.states.shape[1]))
    rows = [
        repr(float(t)) + "," + ",".join(repr(float(v)) for v in state)
        for t, state in zip(traj.times, traj.states)
    ]
    _write(args, "\n".join([header, *rows]))
    return EXIT_TRUE


def _cmd_synthesize(args) -> int:
    import numpy as np

    from . import reach

    gen = _generator_from_args(args)
    target = _load_vector(args.target)
    if args.x0 is None:     # the e_1 route is held to the bound it states
        x0 = np.eye(gen.n)[:, 0]
        sched = reach.synthesize_from_ground(gen, target)
        what, bound = "the ground bound", reach._ground_error_bound(target)
    else:
        x0 = _load_vector(args.x0)
        sched = reach.synthesize(gen, x0, target, eps=args.eps)
        what, bound = "eps", args.eps
    err = float(np.abs(reach.endpoint(gen, x0, sched) - target).sum())
    diagnostics = [f"endpoint 1-norm error {err:.3e}"]
    missed = err > bound
    if missed:
        diagnostics.append(f"error exceeds {what} {bound:.3e}")
    _emit(args, data=sched.to_dict(), diagnostics=diagnostics)
    return EXIT_NUMERIC if missed else EXIT_TRUE


def _cmd_bound(args) -> int:
    from . import dissipation, reach

    x0 = _load_vector(args.x0)
    if args.alpha is not None:
        d = dissipation.equidistant_d(args.alpha, x0.size)
    else:
        d = _load_vector(args.d)
    z, report = reach.majorization_envelope(
        x0, d, sample_count=args.samples, sample_depth=args.depth, seed=args.seed)
    data = {
        "z": _real_json(z),
        "initial_majorized": report.initial_majorized,
        "tangential_ok": report.tangential_ok,
        "tangential_margin": report.tangential_margin,
        "tangential_witness": list(report.tangential_witness),
        "sampled_violations": report.sampled_violations,
        "samples_checked": report.samples_checked,
    }
    ok = report.initial_majorized and report.tangential_ok and report.sampled_violations == 0
    _emit(args, verdict=ok, data=data)
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_channel(args) -> int:
    from .channels import channel_between, is_cp, is_tp, kraus_set, trace_norm

    a, b = _load_complex_matrix(args.a), _load_complex_matrix(args.b)
    t = channel_between(a, b, tol=args.tol)
    residual = trace_norm(t.apply(b) - a)
    data = {
        "superoperator": _complex_matrix_json(t.action),
        "cp": is_cp(t),
        "tp": is_tp(t),
        "residual_trace_norm": residual,
    }
    gate = max(args.tol, 1e-8) * trace_norm(b)
    # the first condition that fails, with its value and its gate (the
    # tolerance of is_cp and is_tp, or the bound on the residual)
    failed = ("cp", False, 1e-9) if not data["cp"] else ("tp", False, 1e-9) if not data["tp"] \
        else None if residual <= gate else ("residual_trace_norm", residual, gate)
    if failed:
        data["failed"] = dict(zip(("condition", "value", "gate"), failed))
    if args.kraus:
        data["kraus"] = [_complex_matrix_json(k) for k in kraus_set(t)]
    _emit(args, verdict=failed is None, data=data)
    return EXIT_FALSE if failed else EXIT_TRUE


def _cmd_cnr(args) -> int:
    from .cnr import c_numerical_range_sample

    c, a = _load_complex_matrix(args.c), _load_complex_matrix(args.t)
    if args.seed < 0:       # numpy's generators take no negative seed; bound reads it mod 2^64
        raise _InputError(f"--seed must be a nonnegative integer for cnr, got {args.seed}")
    samples = c_numerical_range_sample(c, a, count=args.count, seed=args.seed)
    rows = [f"{repr(float(z.real))},{repr(float(z.imag))}" for z in samples]
    _write(args, "\n".join(["re,im", *rows]))
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# argparse keywords of the global flags
GLOBAL_FLAGS = {
    "--tol": {"type": float, "help": f"comparison tolerance (default 1e-9 or ${TOL_ENV_VAR})"},
    "--seed": {"type": int},
    "--out": {"help": "write output to a file"},
    "--format": {"choices": ["json", "csv"]},
}

# each subcommand: its handler, the global and mode flags it reads with their
# values where the command line omits them (--tol's None: $DMAJOR_TOL or
# 1e-9), and each mode flag with the flag of its mode
COMMANDS = {
    "check": (_cmd_check, {"--out": None, "--tol": None, "--method": "norm"}, {"--method": "--d"}),
    "polytope": (_cmd_polytope, {"--out": None, "--format": "json"}, {}),
    "curve": (_cmd_curve, {"--out": None, "--format": "json"}, {}),
    "bath": (_cmd_bath, {"--out": None, "--temperature": 1.0}, {"--temperature": "--gibbs"}),
    "simulate": (_cmd_simulate, {"--out": None}, {}),
    "synthesize": (_cmd_synthesize, {"--out": None, "--eps": 1e-6}, {"--eps": "--x0"}),
    "bound": (_cmd_bound, {"--out": None, "--seed": 0}, {}),
    "channel": (_cmd_channel, {"--out": None, "--tol": None}, {}),
    "cnr": (_cmd_cnr, {"--out": None, "--seed": 0}, {}),
}


def build_parser() -> argparse.ArgumentParser:
    # flags in COMMANDS have suppressed defaults, so main sees which were given
    parser = argparse.ArgumentParser(
        prog="dmajor",
        description="d-majorization checks, polytopes, bath dissipation, "
                    "simplex reachability, channels, and numerical ranges",
    )
    for flag, kwargs in GLOBAL_FLAGS.items():
        parser.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, *parents, **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        for flag in [f for f in GLOBAL_FLAGS if f in COMMANDS[name][1]]:
            p.add_argument(flag, default=argparse.SUPPRESS, **GLOBAL_FLAGS[flag])
        return p

    generator = argparse.ArgumentParser(add_help=False)
    g = generator.add_mutually_exclusive_group(required=True)
    g.add_argument("--zero-temp", type=int, default=None, metavar="N")
    g.add_argument("--thermal", default=None, metavar="D_FILE")
    g.add_argument("--b0", default=None, metavar="B0_FILE")

    p = add_command("check", help="decide (d-)majorization between two vectors")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--d", default=None, help="weight vector file; omit for classical")
    p.add_argument("--method", choices=majorize.D_MAJORIZE_METHODS, default=argparse.SUPPRESS)
    p.add_argument("--certificate", action="store_true",
                   help="include a transfer-matrix certificate on positive verdicts")

    p = add_command("polytope", help="half-space bounds and vertices of the "
                                        "d-majorization polytope")
    p.add_argument("y")
    p.add_argument("--d", required=True)

    p = add_command("curve", help="thermomajorization curve elbows")
    p.add_argument("y")
    p.add_argument("--d", required=True)

    p = add_command("bath", help="bath-coupling rates and rate matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--zero-temp", type=int, default=None, metavar="N")
    g.add_argument("--thermal", default=None, metavar="D_FILE")
    g.add_argument("--gibbs", default=None, metavar="E_FILE")
    g.add_argument("--equidistant", nargs=2, default=None, metavar=("ALPHA", "N"))
    p.add_argument("--temperature", type=float, default=argparse.SUPPRESS)

    p = add_command("simulate", generator, help="simulate a schedule, emit trajectory CSV")
    p.add_argument("--x0", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--dt", type=float, default=0.1)

    p = add_command("synthesize", generator, help="steering schedule for the "
                                                  "zero-temperature model")
    p.add_argument("--target", required=True)
    p.add_argument("--x0", default=None, help="initial state; omit to steer from e_1")
    p.add_argument("--eps", type=float, default=argparse.SUPPRESS)

    p = add_command("bound", help="majorization envelope for the thermal model")
    p.add_argument("--x0", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", type=float, default=None)
    g.add_argument("--d", default=None)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--depth", type=int, default=4)

    p = add_command("channel", help="construct a channel mapping B to A")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kraus", action="store_true")

    p = add_command("cnr", help="sample the C-numerical range, emit CSV")
    p.add_argument("--c", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--count", type=int, default=1000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)    # unknown: what no parser here takes
    handler, reads, modes = COMMANDS[args.command]
    given = vars(args)
    unread = [" ".join(unknown)] if unknown else []
    unread += [flag for flag in GLOBAL_FLAGS if flag[2:] in given and flag not in reads]
    unread += [f"{flag} without {mode}" for flag, mode in modes.items()
               if flag[2:] in given and given[mode[2:]] is None]
    if unread:
        parser.error(f"{args.command} does not read {', '.join(unread)}")
    for flag, default in reads.items():
        given.setdefault(flag[2:], default)
    try:
        if "--tol" in reads:
            raw = os.environ.get(TOL_ENV_VAR, "1e-9") if args.tol is None else args.tol
            try:
                args.tol = float(raw)
            except ValueError:
                raise _InputError(f"cannot parse {TOL_ENV_VAR}={raw!r} as a float")
            if not (math.isfinite(args.tol) and args.tol >= 0):
                raise _InputError(f"tolerance must be finite and nonnegative, got {args.tol}")
        return handler(args)
    except (_InputError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TransferSynthesisError, SimplexViolationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:
        raise       # the reader of stdout went away; nothing internal failed
    except Exception as exc:
        # exit 1 is reserved for a negative verdict, so a defect exits 3
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    """The process entry: main's exit code, with the heap frozen before the
    interpreter shuts down, and exit 141 without a traceback when stdout's
    reader has gone away."""
    try:
        try:
            code = main()
        except SystemExit as exc:       # argparse's exit after --help or a usage error
            code = exc.code
        sys.stdout.flush()      # here, so a closed pipe raises where it is caught
    except BrokenPipeError:
        # the shutdown flush must not raise again (Python's signal docs,
        # "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
