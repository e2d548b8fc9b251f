import gc
import importlib
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import test_majorize

import dmajor
import dmajor.cnr
import dmajor.dissipation
import dmajor.polytope
import dmajor.reach
from dmajor.cli import main
from dmajor.majorize import _residual

# the checkout's src/ directory, so a fresh interpreter imports this dmajor
SRC_DIR = str(Path(dmajor.__file__).resolve().parents[1])


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this dmajor."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return env


def run_fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)


def parse_error(capsys, argv) -> str:
    """The stderr of a command line that argparse refuses with exit 2 and
    no output."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    return out.err


@pytest.fixture
def capture(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err
    return run


# vector files that are not JSON arrays of finite reals, or hold entries
# the decision procedures must survive; each is 3 long where it parses
MALFORMED_VECTORS = ["[NaN, 0.5, 0.5]", "[Infinity, 1, 1]", "[-Infinity, 1, 1]",
                     "[1e300, 1e300, 1]", "[1e300, 1, 1]", "[5e-324, 0.5, 0.5]",
                     "[-0.1, 0.6, 0.5]", "[0, 0, 0]", "[]", "[[0.2, 0.3, 0.5]]",
                     "[[0.2], [0.3], [0.5]]", '["0.2", "0.3", "0.5"]', '"0.5"',
                     "[true, false, false]", "[1, true, 0]", "[0.5, 0.5, false]", "true",
                     "null", "[null, 0.5, 0.5]", '{"x": 1}', '[{"a": 1}, 0, 0]', "0.5",
                     "not json", "[0.2, 0.3", "[0.5, 0.5]", "[0.25, 0.25, 0.25, 0.25]",
                     "[" * 900 + "1" + "]" * 900]
# strings and booleans, alone or among numbers, are refused with exit 2
NON_REAL_VECTORS = ['["0.2", "0.3", "0.5"]', "[true, false, false]", "[1, true, 0]",
                    "[0.5, 0.5, false]"]
BAD_TOLERANCES = ["nan", "-1", "inf", "-inf", "abc", "1e300", "0", "5e-324"]
# weights whose ratios y / d overflow: refused with exit 2 wherever they are d
SUBNORMAL_WEIGHTS = [[5e-324, 0.5, 0.5], [1e-320, 0.5, 0.5]]


def subnormal_weight_files(tmp_path) -> list[str]:
    return [write(tmp_path, f"d_subnormal_{i}.json", d) for i, d in enumerate(SUBNORMAL_WEIGHTS)]


def malformed_files(tmp_path) -> dict[str, str]:
    """The path of a file holding each text of MALFORMED_VECTORS."""
    files = {}
    for i, text in enumerate(MALFORMED_VECTORS):
        files[text] = str(tmp_path / f"bad_{i}.json")
        Path(files[text]).write_text(text)
    return files


def run_campaign(capsys, cases, refused=frozenset()) -> list[int]:
    """Run each command line through main: each exits 0-3 within 2 s, 1 only
    with a negative verdict, and 2 where it names a path in ``refused``.
    Returns the exit codes."""
    codes = []
    for argv in cases:
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3) and elapsed < 2.0, (argv, code, elapsed)
        if code == 1:
            assert json.loads(out)["verdict"] is False, argv
        if refused & set(argv):
            assert code == 2, argv
        codes.append(code)
    return codes


def y_d_campaign(tmp_path, capsys, command) -> list[int]:
    """`command Y --d D` with each malformed file as Y and as D, and with
    each bad tolerance."""
    files = malformed_files(tmp_path)
    y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
    d = write(tmp_path, "d.json", [0.2, 0.3, 0.5])
    cases = []
    for bad in files.values():
        cases += [[command, bad, "--d", d], [command, y, "--d", bad, "--format", "csv"]]
    cases += [["--tol", tol, command, y, "--d", d] for tol in BAD_TOLERANCES]
    weights = subnormal_weight_files(tmp_path)
    cases += [[command, y, "--d", w] for w in weights]
    return run_campaign(capsys, cases, {files[text] for text in NON_REAL_VECTORS} | set(weights))


class TestCheck:
    def test_two_cycle_both_directions(self, tmp_path, capture):
        x = write(tmp_path, "x.json", [1, 0, 0])
        y = write(tmp_path, "y.json", [0, 2 / 3, 1 / 3])
        d = write(tmp_path, "d.json", [3, 2, 1])
        code, out, _ = capture(["check", x, y, "--d", d])
        assert code == 0
        assert json.loads(out)["verdict"] is True
        code, out, _ = capture(["check", y, x, "--d", d])
        assert code == 0

    def test_incomparable_midpoint(self, tmp_path, capture):
        mid = write(tmp_path, "mid.json", [0.325, 0.225, 0.45])
        for gen in ([0.4, 0.2, 0.4], [0.25, 0.5, 0.25]):
            g = write(tmp_path, "g.json", gen)
            code, out, _ = capture(["check", mid, g])
            assert code == 1
            assert json.loads(out)["verdict"] is False

    def test_malformed_input(self, tmp_path, capture):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        ok = write(tmp_path, "ok.json", [0.5, 0.5])
        code, _, err = capture(["check", str(bad), ok])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("weights", [[0.0, 1.0, 1.0], [-1.0, 2.0, 1.0]])
    @pytest.mark.parametrize("method", ["norm", "curve"])
    def test_non_positive_weights_exit_input(self, tmp_path, capture, weights, method):
        x = write(tmp_path, "x.json", [0.4, 0.3, 0.3])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        d = write(tmp_path, "d.json", weights)
        code, out, err = capture(["check", x, y, "--d", d, "--method", method])
        assert code == 2
        assert out == ""
        assert "strictly positive" in err

    def test_method_flag(self, tmp_path, capture):
        x = write(tmp_path, "x.json", [1, 0, 0])
        y = write(tmp_path, "y.json", [0, 2 / 3, 1 / 3])
        d = write(tmp_path, "d.json", [3, 2, 1])
        for method in ("norm", "positive_part", "curve"):
            code, _, _ = capture(["check", x, y, "--d", d, "--method", method])
            assert code == 0

    def test_certificate_satisfies_invariants(self, tmp_path, capture):
        x = write(tmp_path, "x.json", [1, 0, 0])
        y = write(tmp_path, "y.json", [0, 2 / 3, 1 / 3])
        d = write(tmp_path, "d.json", [3, 2, 1])
        code, out, _ = capture(["check", x, y, "--d", d, "--certificate"])
        assert code == 0
        cert = np.array(json.loads(out)["data"]["certificate"])
        assert cert.min() >= -1e-12
        assert np.allclose(cert.sum(axis=0), 1.0, atol=1e-8)
        assert np.allclose(cert @ np.array([3, 2, 1]), [3, 2, 1], atol=1e-8)
        assert np.allclose(cert @ np.array([0, 2 / 3, 1 / 3]), [1, 0, 0], atol=1e-8)

    def test_certificate_at_the_tolerance_boundary(self, tmp_path, capture):
        # partial-sum excess 9e-10, inside the 1e-9 verdict tolerance
        x = write(tmp_path, "x.json", [0.5 + 9e-10, 0.3 - 9e-10, 0.2])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        code, out, _ = capture(["check", x, y, "--certificate"])
        assert code == 0
        report = json.loads(out)
        assert report["data"]["certificate_kind"] == "doubly"
        assert "certificate transfer 1-norm error 1.800e-09" in report["diagnostics"]

    def test_certificate_gate_follows_tol(self, tmp_path, capture):
        # a verdict inside --tol 1e-6 gets a certificate within 1e-6 ||y||_1;
        # a gate fixed at 1e-8 refused its residual 8e-7 (exit 3)
        x, y = [0.5 + 4e-7, 0.3 - 4e-7, 0.2], [0.5, 0.3, 0.2]
        code, out, _ = capture(["--tol", "1e-6", "check", write(tmp_path, "x.json", x),
                                write(tmp_path, "y.json", y), "--certificate"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        transfer = report["diagnostics"][0]
        assert transfer.startswith("certificate transfer 1-norm error ")
        assert float(transfer.rsplit(" ", 1)[1]) <= 1e-6 * sum(map(abs, y))

    def test_certificate_for_a_weight_below_rounding(self, tmp_path, capture):
        # 1e-20 vanishes in e^T d; its entry still gets a piece of the
        # layout, so its column of the certificate sums to 1
        d, x, y = np.array([1.0, 1e-20, 1.0]), [0.55, 0.0, 0.45], [0.6, 0.0, 0.4]
        code, out, _ = capture(["check", write(tmp_path, "x.json", x),
                                write(tmp_path, "y.json", y),
                                "--d", write(tmp_path, "d.json", list(d)), "--certificate"])
        assert code == 0
        a = np.array(json.loads(out)["data"]["certificate"])
        assert a.min() >= -1e-8 and np.abs(a.sum(axis=0) - 1.0).max() <= 1e-8
        assert np.abs(a @ d - d).sum() <= 1e-8 * d.sum()
        assert np.abs(a @ y - x).sum() <= 1e-8 * sum(y)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_certificate_at_a_small_scale(self, tmp_path, capture, weighted):
        # at 2^-40 the certificate is the one at scale 1, not the identity
        s = 2.0 ** -40
        x, y = s * np.array([0.55, 0.27, 0.18]), s * np.array([0.7, 0.2, 0.1])
        argv = ["check", write(tmp_path, "x.json", list(x)),
                write(tmp_path, "y.json", list(y)), "--certificate"]
        if weighted:
            argv += ["--d", write(tmp_path, "d.json", [0.5, 0.3, 0.2])]
        code, out, _ = capture(argv)
        assert code == 0
        a = np.array(json.loads(out)["data"]["certificate"])
        assert np.abs(a @ y - x).sum() <= 1e-14 * y.sum()

    def test_certificate_with_large_weights(self, tmp_path, capture):
        # d = 1e8 e defines the same order as d = e; A d = d is checked
        # relative to e^T d
        x = write(tmp_path, "x.json", [0.45, 0.33, 0.22])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        d = write(tmp_path, "d.json", [1e8, 1e8, 1e8])
        code, out, _ = capture(["check", x, y, "--d", d, "--certificate"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        a = np.array(report["data"]["certificate"])
        assert np.abs(a @ np.full(3, 1e8) - 1e8).sum() <= 1e-8 * 3e8
        assert np.abs(a @ [0.5, 0.3, 0.2] - [0.45, 0.33, 0.22]).sum() <= 1e-8

    @pytest.mark.parametrize("weighted", [False, True])
    def test_certificate_reports_its_residuals(self, tmp_path, capture, weighted):
        rng = np.random.default_rng(11)
        y = rng.dirichlet(np.ones(5))
        d = rng.dirichlet(np.ones(5)) if weighted else np.ones(5)
        x = 0.7 * y + 0.3 * d / d.sum()  # a mix with the minimal element
        argv = ["check", write(tmp_path, "x.json", list(x)),
                write(tmp_path, "y.json", list(y)), "--certificate"]
        if weighted:
            argv += ["--d", write(tmp_path, "d.json", list(d))]
        code, out, _ = capture(argv)
        assert code == 0
        report = json.loads(out)
        # the residuals of the emitted rows, summed on Python floats as the
        # chain's own gate sums them
        a = report["data"]["certificate"]
        x, y, d = x.tolist(), y.tolist(), d.tolist()
        expected = [f"certificate transfer 1-norm error {_residual(a, y, x):.3e}",
                    f"certificate column-sum error "
                    f"{max(abs(sum(col) - 1.0) for col in zip(*a)):.3e}",
                    f"certificate min entry {np.min(a):.3e}"]
        if weighted:
            expected.append(f"certificate fixed-point 1-norm error {_residual(a, d, d):.3e}")
        assert report["diagnostics"] == expected

    def test_classical_certificate_output_is_pinned(self, tmp_path, capture, capsys):
        # classical check --certificate on a fixed pair, byte for byte: the
        # "doubly" kind and three residual lines, two of them nonzero
        argv = ["check", write(tmp_path, "x.json", [0.21, 0.27, 0.19, 0.33]),
                write(tmp_path, "y.json", [0.07, 0.41, 0.13, 0.39]), "--certificate"]
        expected = (
            '{"command": "check", "verdict": true, "data": {"certificate": '
            '[[0.0, 0.0, 0.6923076923076923, 0.30769230769230765], '
            '[0.1666666666666666, 0.0, 0.2564102564102564, 0.576923076923077], '
            '[0.6111111111111112, 0.26666666666666655, 0.03760683760683759, 0.08461538461538459], '
            '[0.22222222222222213, 0.7333333333333334, 0.013675213675213661, '
            '0.030769230769230743]], "certificate_kind": "doubly"}, "diagnostics": '
            '["certificate transfer 1-norm error 5.551e-17", '
            '"certificate column-sum error 1.110e-16", "certificate min entry 0.000e+00"]}\n')
        assert capture(argv) == (0, expected, "")
        # --method is the d-routes' choice; classical check refuses it
        for method in ("norm", "positive_part"):
            err = parse_error(capsys, argv + ["--method", method])
            assert "check does not read --method without --d" in err

    def test_exit_code_campaign(self, tmp_path, capsys):
        files = malformed_files(tmp_path)
        x = write(tmp_path, "x.json", [0.2, 0.3, 0.5])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        cases = []
        for bad in files.values():
            cases += [["check", bad, y], ["check", x, bad, "--certificate"],
                      ["check", bad, y, "--d", y, "--certificate"]]
            cases += [["check", x, y, "--d", bad, "--method", method]
                      for method in ("norm", "positive_part", "curve")]
        cases += [["--tol", tol, "check", a, b, "--d", y, "--certificate"]
                  for tol in BAD_TOLERANCES for a, b in ((x, y), (y, x))]
        weights = subnormal_weight_files(tmp_path)
        cases += [["check", x, y, "--d", w, "--method", method]
                  for w in weights for method in ("norm", "positive_part", "curve")]
        # x < x, but its sums overflow: refused with or without --d, never False
        big = write(tmp_path, "big.json", [1e308, 1e308])
        cases += [["check", big, big], ["check", big, big, "--certificate"],
                  ["check", big, big, "--d", write(tmp_path, "unit.json", [1, 1])]]
        codes = run_campaign(capsys, cases,
                             {files[text] for text in NON_REAL_VECTORS} | set(weights) | {big})
        assert {0, 1, 2} <= set(codes)

    def test_overflowing_weight_ratios_exit_input(self, tmp_path, capture):
        # x is a permutation of y, so the verdict is True; at d = 1e-10 e the
        # ratios y / d overflow, and the curve route once answered False
        x = write(tmp_path, "x.json", [2e300, 1e300])
        y = write(tmp_path, "y.json", [1e300, 2e300])
        unit = write(tmp_path, "unit.json", [1, 1])
        tiny = write(tmp_path, "tiny.json", [1e-10, 1e-10])
        for method in ("norm", "positive_part", "curve"):
            assert capture(["check", x, y, "--d", unit, "--method", method])[0] == 0
            code, out, err = capture(["check", x, y, "--d", tiny, "--method", method])
            assert (code, out) == (2, "") and "finite" in err
        assert capture(["curve", y, "--d", tiny])[0] == 2


# the diagnostics of a d-stochastic certificate, in order
CERTIFICATE_LINES = [r"certificate transfer 1-norm error \d\.\d{3}e[+-]\d\d",
                     r"certificate column-sum error \d\.\d{3}e[+-]\d\d",
                     r"certificate min entry -?\d\.\d{3}e[+-]\d\d",
                     r"certificate fixed-point 1-norm error \d\.\d{3}e[+-]\d\d"]


class TestListKernels:
    """`check --d` and `curve` run majorize's list kernels: one validation,
    one run of the chosen route, and the certificate and elbows of the
    public numpy API bit for bit."""

    @pytest.mark.parametrize("method", dmajor.majorize.D_MAJORIZE_METHODS)
    def test_one_validation_and_one_route(self, tmp_path, capture, monkeypatch, method):
        calls = {"_validated": 0, "_d_majorizes": 0, "_chain_rows": 0}
        for name in calls:
            def counting(*args, real=getattr(dmajor.majorize, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(dmajor.majorize, name, counting)
        x = write(tmp_path, "x.json", [0.3, 0.3, 0.4])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        d = write(tmp_path, "d.json", [1.0, 2.0, 3.0])
        code, out, _ = capture(["check", x, y, "--d", d, "--method", method, "--certificate"])
        assert code == 0 and "certificate" in json.loads(out)["data"]
        assert calls == {"_validated": 1, "_d_majorizes": 1, "_chain_rows": 1}

    def _assert_parity(self, tmp_path, capture, x, y, d):
        fx, fy, fd = (write(tmp_path, f"{k}.json", v.tolist()) for k, v in zip("xyd", (x, y, d)))
        code, out, err = capture(["check", fx, fy, "--d", fd, "--certificate"])
        verdict = dmajor.d_majorizes(x, y, d)
        try:
            cert = dmajor.d_stochastic_transfer(x, y, d) if verdict else None
        except dmajor.majorize.TransferSynthesisError:
            assert (code, out) == (3, "") and "certificate residual" in err
            return
        assert code == (0 if verdict else 1)
        report = json.loads(out)
        assert report["verdict"] is verdict
        if verdict:
            assert report["data"]["certificate"] == cert.matrix.tolist()
            assert report["data"]["certificate_kind"] == "d-stochastic"
            assert len(report["diagnostics"]) == len(CERTIFICATE_LINES)
            for line, pattern in zip(report["diagnostics"], CERTIFICATE_LINES):
                assert re.fullmatch(pattern, line), line
        else:
            assert report["data"] == {} and report["diagnostics"] == []
        code, out, _ = capture(["curve", fy, "--d", fd])
        curve, data = dmajor.thermo_curve(y, d), json.loads(out)["data"]
        assert code == 0
        assert (data["elbows_c"], data["elbows_f"]) == (curve.c.tolist(), curve.f.tolist())

    def test_seeded_certify_pairs(self, tmp_path, capture):
        record = json.loads((Path(__file__).parent / "data" / "seeded_certify.json").read_text())
        for item in record:
            self._assert_parity(tmp_path, capture, *(np.array(item[k]) for k in "xyd"))

    def test_scale_campaign(self, tmp_path, capture):
        # every scale of the campaign, each case at a twentieth of them
        scales = test_majorize.TestScaleCampaign.SCALES
        for i, (x, y, d) in enumerate(test_majorize._scale_cases(61)):
            for s in scales[i % 20::20]:
                self._assert_parity(tmp_path, capture, s * x, s * y, d)


class TestPolytope:
    def test_exit_code_campaign(self, tmp_path, capsys):
        codes = y_d_campaign(tmp_path, capsys, "polytope")
        assert 1 not in codes and {0, 2} <= set(codes)

    def test_vertex_csv_sorted(self, tmp_path, capture):
        y = write(tmp_path, "y.json", [4, -2, 2])
        d = write(tmp_path, "d.json", [4, 2, 1])
        code, out, _ = capture(["--format", "csv", "polytope", y, "--d", d])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x0,x1,x2"
        assert lines[1:] == sorted(lines[1:])
        points = {tuple(float(v) for v in line.split(",")) for line in lines[1:]}
        assert (5.0, 0.0, -1.0) in points
        assert len(points) == 6

    def test_global_flags_after_subcommand(self, tmp_path, capture):
        y = write(tmp_path, "y.json", [4, -2, 2])
        d = write(tmp_path, "d.json", [4, 2, 1])
        code, out, _ = capture(["polytope", y, "--d", d, "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "x0,x1,x2"

    def test_json_contains_b(self, tmp_path, capture):
        y = write(tmp_path, "y.json", [4, -2, 2])
        d = write(tmp_path, "d.json", [4, 2, 1])
        code, out, _ = capture(["polytope", y, "--d", d])
        data = json.loads(out)["data"]
        assert data["b"] == [5, 3, 2, 5, 6, 4, 4, -4]

    def test_near_tie_n8_exits_zero(self, tmp_path, capture):
        # crowded corners: the dedup once held every nearby pair (~460 MB)
        rng = np.random.default_rng(8)
        d = rng.uniform(0.2, 2.0, size=8)
        y = d * (1 + 3e-9 * rng.standard_normal(8))
        code, out, _ = capture(["polytope", write(tmp_path, "y.json", y.tolist()),
                                "--d", write(tmp_path, "d.json", d.tolist())])
        assert code == 0
        data = json.loads(out)["data"]
        assert data["vertices"] == dmajor.polytope.vertices(y, d).points.tolist()

    def test_dimension_above_the_cap_exits_input(self, tmp_path, capture):
        y = write(tmp_path, "y.json", list(range(9)))
        d = write(tmp_path, "d.json", [1] * 9)
        code, out, _ = capture(["polytope", y, "--d", d])
        assert code == 2
        assert out == ""


class TestCurve:
    def test_exit_code_campaign(self, tmp_path, capsys):
        codes = y_d_campaign(tmp_path, capsys, "curve")
        assert 1 not in codes and {0, 2} <= set(codes)

    def test_elbows(self, tmp_path, capture):
        y = write(tmp_path, "y.json", [1, 2])
        d = write(tmp_path, "d.json", [2, 1])
        code, out, _ = capture(["curve", y, "--d", d])
        data = json.loads(out)["data"]
        assert data["elbows_c"] == [0, 1, 3]
        assert data["elbows_f"] == [0, 2, 3]

    def test_csv_format(self, tmp_path, capture):
        y = write(tmp_path, "y.json", [1, 2])
        d = write(tmp_path, "d.json", [2, 1])
        code, out, _ = capture(["--format", "csv", "curve", y, "--d", d])
        assert out.splitlines() == ["c,f", "0.0,0.0", "1.0,2.0", "3.0,3.0"]


class TestBath:
    def test_gibbs(self, tmp_path, capture):
        e = write(tmp_path, "e.json", [0.0, 0.25, 4.25])
        code, out, _ = capture(["bath", "--gibbs", e, "--temperature", "1.0"])
        assert code == 0
        data = json.loads(out)["data"]
        assert np.allclose(data["d"], [0.5577, 0.4343, 0.0080], atol=5e-5)
        b0 = np.array(data["b0"])
        assert np.allclose(b0 @ np.array(data["d"]), 0.0, atol=1e-12)

    def test_thermal_from_file(self, tmp_path, capture):
        d = write(tmp_path, "d.json", [0.9, 0.1])
        code, out, _ = capture(["bath", "--thermal", d])
        data = json.loads(out)["data"]
        assert np.isclose(data["a"][0], np.sqrt(0.9))
        assert np.isclose(data["b"][0], np.sqrt(0.1))

    def test_zero_temperature(self, capture):
        code, out, _ = capture(["bath", "--zero-temp", "3"])
        b0 = np.array(json.loads(out)["data"]["b0"])
        assert np.allclose(b0, [[0, -2, 0], [0, 2, -2], [0, 0, 2]], atol=1e-12)

    def test_equidistant(self, capture):
        code, out, _ = capture(["bath", "--equidistant", "0.5", "3"])
        data = json.loads(out)["data"]
        assert np.allclose(data["d"], [4 / 7, 2 / 7, 1 / 7])

    def test_missing_mode(self, capsys):
        err = parse_error(capsys, ["bath"])
        assert "one of the arguments --zero-temp --thermal --gibbs --equidistant is required" in err

    def test_two_modes_exit_input(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", [0.5577, 0.4343, 0.0080])
        err = parse_error(capsys, ["bath", "--zero-temp", "3", "--equidistant", "0.5", "3"])
        assert "argument --equidistant: not allowed with argument --zero-temp" in err
        err = parse_error(capsys, ["bath", "--thermal", d, "--gibbs", d])
        assert "argument --gibbs: not allowed with argument --thermal" in err

    @pytest.mark.parametrize("mode", [["--zero-temp"], ["--equidistant", "0.5"]])
    def test_level_cap(self, capture, mode):
        cap = dmajor.dissipation.MAX_BATH_DIM
        code, out, _ = capture(["bath", *mode, str(cap)])
        assert code == 0
        assert np.array(json.loads(out)["data"]["b0"]).shape == (cap, cap)
        # far above the cap nothing is allocated before the check
        for n in (cap + 1, 10 ** 12):
            code, out, err = capture(["bath", *mode, str(n)])
            assert code == 2 and out == ""
            assert f"n = {n} exceeds the cap MAX_BATH_DIM = {cap}" in err


class TestSimulateSynthesize:
    @pytest.mark.parametrize("command", ["simulate", "synthesize"])
    def test_two_generators_exit_input(self, tmp_path, capsys, command):
        x = write(tmp_path, "x.json", [0.2, 0.3, 0.5])
        d = write(tmp_path, "d.json", [0.5577, 0.4343, 0.0080])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [2, 0, 1], "duration": 0.7}]})
        rest = (["--x0", x, "--schedule", sched] if command == "simulate"
                else ["--target", x])
        err = parse_error(capsys, [command, "--zero-temp", "3", "--thermal", d, *rest])
        assert "argument --thermal: not allowed with argument --zero-temp" in err
        err = parse_error(capsys, [command, "--b0", d, "--thermal", d, *rest])
        assert "argument --thermal: not allowed with argument --b0" in err

    @pytest.mark.parametrize("command", ["simulate", "synthesize"])
    def test_missing_generator_named(self, tmp_path, capsys, command):
        x = write(tmp_path, "x.json", [0.2, 0.3, 0.5])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [2, 0, 1], "duration": 0.7}]})
        rest = (["--x0", x, "--schedule", sched] if command == "simulate"
                else ["--target", x])
        err = parse_error(capsys, [command, *rest])
        assert "one of the arguments --zero-temp --thermal --b0 is required" in err

    def test_exit_code_campaign(self, tmp_path, capsys):
        files = malformed_files(tmp_path)
        x = write(tmp_path, "x.json", [0.2, 0.3, 0.5])
        t = write(tmp_path, "t.json", [0.1, 0.6, 0.3])
        good = write(tmp_path, "s.json", {"segments": [{"perm": [2, 0, 1], "duration": 0.7}]})
        three = ["--zero-temp", "3"]
        cases = []
        for bad in files.values():
            cases += [["simulate", *three, "--x0", bad, "--schedule", good],
                      ["synthesize", *three, "--target", bad],
                      ["synthesize", *three, "--target", bad, "--x0", x],
                      ["synthesize", *three, "--target", t, "--x0", bad]]
        # schedule documents; strings and booleans are refused with exit 2
        non_numbers = [{"perm": [2, 0, 1], "duration": v} for v in ("0.5", "1e3", True, "nan")]
        non_numbers += [{"perm": [0, True, 2], "duration": 0.5},
                        {"perm": ["2", "0", "1"], "duration": 0.5}]
        segments = [{"perm": p, "duration": 0.5} for p in (
            [2.0, 0.0, 1.0], [0.5, 1.2, 2.7], [0, 1, 3], [-1, 0, 1], [0, 0, 1], [0, 1, 2 ** 64],
            [0, 1, 2 ** 63], [[2, 0, 1]], [], [1, 0], [0, 1, 2, 3], None)]
        segments += [{"perm": [2, 0, 1], "duration": v}
                     for v in (None, -1.0, 1e308, float("nan"), float("inf"), [0.5], 0)]
        segments += [{"perm": [2, 0, 1]}, {"duration": 0.5}, {}, [[2, 0, 1], 0.5], 5, "a"]
        docs = [{"segments": [seg]} for seg in segments + non_numbers]
        docs += [{}, {"segments": []}, {"segments": None}, {"segments": "ab"}, [], "s", None]
        schedules = [write(tmp_path, f"sched_{i}.json", doc) for i, doc in enumerate(docs)]
        cases += [["simulate", *three, "--x0", x, "--schedule", s] for s in schedules]
        cases += [["simulate", *three, "--x0", x, "--schedule", good, "--dt", dt]
                  for dt in ("0", "-1", "nan", "inf", "1e-300")]
        cases += [["synthesize", *three, "--target", t, "--x0", x, "--eps", eps]
                  for eps in ("0", "nan", "inf", "1e-300")]
        # generators: the level cap, one above it, and a B0 that is not zero-temperature
        cap = dmajor.dissipation.MAX_BATH_DIM
        rng = np.random.default_rng(28)
        for n in (cap, cap + 1):
            state = write(tmp_path, f"t{n}.json", rng.dirichlet(np.ones(n)).tolist())
            flip = write(tmp_path, f"s{n}.json",
                         {"segments": [{"perm": list(range(n))[::-1], "duration": 0.5}]})
            cases += [["synthesize", "--zero-temp", str(n), "--target", state],
                      ["simulate", "--zero-temp", str(n), "--x0", state, "--schedule", flip]]
        thermal = write(tmp_path, "b0.json", [[0.5, -0.5], [-0.5, 0.5]])
        half = write(tmp_path, "half.json", [0.5, 0.5])
        cases += [["synthesize", "--b0", thermal, "--target", half],
                  ["synthesize", "--b0", thermal, "--target", half, "--x0", half],
                  ["simulate", "--b0", thermal, "--x0", half,
                   "--schedule", write(tmp_path, "s2.json", {"segments": [{"perm": [1, 0],
                                                                           "duration": 1}]})]]
        # every malformed vector but the subnormal state is not a state of the
        # 3 levels: outside the simplex (or not finite, not numbers, the wrong
        # shape or length), refused with exit 2 as x0 and as target
        refused = {path for text, path in files.items() if text != "[5e-324, 0.5, 0.5]"}
        refused |= set(schedules[len(segments):len(segments) + len(non_numbers)])
        codes = run_campaign(capsys, cases, refused)
        assert 1 not in codes and {0, 2, 3} <= set(codes)

    def test_synthesize_two_level(self, tmp_path, capture):
        target = write(tmp_path, "t.json", [0.75, 0.25])
        code, out, _ = capture(["synthesize", "--zero-temp", "2", "--target", target])
        assert code == 0
        sched = json.loads(out)["data"]
        assert len(sched["segments"]) == 1
        assert sched["segments"][0]["perm"] == [1, 0]
        assert abs(sched["segments"][0]["duration"] - np.log(4)) <= 1e-9

    def test_simulate_trajectory_header(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.5, 0.5])
        sched = write(tmp_path, "s.json",
                      {"segments": [{"perm": [1, 0], "duration": 0.5}]})
        code, out, _ = capture(["simulate", "--zero-temp", "2", "--x0", x0,
                                "--schedule", sched, "--dt", "0.25"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x0,x1"
        last = [float(v) for v in lines[-1].split(",")]
        assert np.isclose(last[0], 0.5)
        assert np.isclose(last[1] + last[2], 1.0)

    def test_simulate_chain_of_copies(self, tmp_path, capture):
        # two copies of the two levels: one column per entry of the state
        x0 = write(tmp_path, "x0.json", [0.1, 0.4, 0.2, 0.3])
        sched = write(tmp_path, "s.json",
                      {"segments": [{"perm": [1, 0, 2, 3], "duration": 40.0}]})
        code, out, _ = capture(["simulate", "--zero-temp", "2", "--x0", x0,
                                "--schedule", sched, "--dt", "inf"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x0,x1,x2,x3"
        assert np.allclose([float(v) for v in lines[-1].split(",")], [40.0, 0.5, 0.0, 0.5, 0.0])

    def test_simulate_long_zero_temperature_flow_ends_on_the_ground(self, tmp_path, capture):
        # the propagator at t = 2^61 was NaN, refused as "negative mass nan"
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [2, 0, 1],
                                                          "duration": 2.0 ** 61}]})
        code, out, err = capture(["simulate", "--zero-temp", "3", "--x0", x0,
                                  "--schedule", sched, "--dt", str(2.0 ** 61)])
        assert code == 0, err
        last = [float(v) for v in out.strip().splitlines()[-1].split(",")]
        assert last == [2.0 ** 61, 1.0, 0.0, 0.0]

    def test_synthesize_exits_numeric_when_eps_is_missed(self, tmp_path, capture):
        target = write(tmp_path, "t.json", [0.1, 0.6, 0.3])
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        code, out, _ = capture(["synthesize", "--zero-temp", "3", "--target", target,
                                "--x0", x0, "--eps", "1e-300"])
        assert code == 3
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics[0].startswith("endpoint 1-norm error")
        assert "exceeds eps" in diagnostics[1]

    def test_synthesize_eps_below_rounding_floor_exits_numeric(self, tmp_path, capture):
        # the total of x0 rounds below 1, so cooling stalls 1.1e-16 from e_1
        target = write(tmp_path, "t.json", [0.1, 0.6, 0.3])
        x0 = write(tmp_path, "x0.json", [0.7, 0.2, 0.1])
        code, _, err = capture(["synthesize", "--zero-temp", "3", "--target", target,
                                "--x0", x0, "--eps", "1e-17"])
        assert code == 3
        assert "numerical failure" in err

    def test_synthesize_face_never_hit_exits_numeric(self, tmp_path, capture):
        # b11 < b00 inside the column-sum tolerance: from [0.6, 0.4] the
        # backward flow of the leading 2 x 2 block never reaches a face
        b0 = write(tmp_path, "b0.json", [[2e-13, -1e-13, 0], [0, 1e-13, -1], [0, 0, 1]])
        target = write(tmp_path, "t.json", [0.6, 0.4, 0.0])
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        code, out, err = capture(["synthesize", "--b0", b0, "--target", target,
                                  "--x0", x0, "--eps", "1e-6"])
        assert (code, out) == (3, "")
        assert "never hits a face" in err

    def test_synthesize_eps_below_ground_error_exits_numeric(self, tmp_path, capture):
        # an exact total cools onto e_1, so a schedule is built; its ground
        # schedule's error then exceeds eps, and the endpoint check says so
        target = write(tmp_path, "t.json", [0.1, 0.6, 0.3])
        x0 = write(tmp_path, "x0.json", [0.1, 0.2, 0.7])
        code, out, err = capture(["synthesize", "--zero-temp", "3", "--target", target,
                                  "--x0", x0, "--eps", "1e-17"])
        assert code == 3 and err == ""
        report = json.loads(out)
        assert report["data"]["segments"][0]["duration"] == 32.0
        assert "exceeds eps" in report["diagnostics"][1]

    def test_synthesize_meets_eps_at_128_levels(self, tmp_path, capture):
        # the ground schedule's own error stays near 4e-12 here, far below eps
        x0, target = np.random.default_rng(128).dirichlet(np.ones(128), size=2)
        code, out, _ = capture(["synthesize", "--zero-temp", "128",
                                "--x0", write(tmp_path, "x0.json", x0.tolist()),
                                "--target", write(tmp_path, "t.json", target.tolist()),
                                "--eps", "1e-9"])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert len(diagnostics) == 1 and diagnostics[0].startswith("endpoint 1-norm error")

    def test_synthesize_above_the_level_cap_exits_input(self, tmp_path, capture):
        n = dmajor.dissipation.MAX_BATH_DIM + 1
        target = write(tmp_path, "t.json", np.eye(n)[0].tolist())
        code, _, err = capture(["synthesize", "--zero-temp", str(n), "--target", target])
        assert code == 2
        assert f"exceeds the cap MAX_BATH_DIM = {n - 1}" in err

    def test_synthesize_from_ground_in_a_fast_time_unit(self, tmp_path, capture):
        # B0 * 1e6 once reported 3.9e-9 and exited 0, unchecked
        b0 = np.array(dmajor.dissipation.b0_from_rates(
            dmajor.dissipation.zero_temperature_rates(4)).b0) * 1e6
        code, out, _ = capture(["synthesize", "--b0", write(tmp_path, "b0.json", b0.tolist()),
                                "--target", write(tmp_path, "t.json", [0.1, 0.2, 0.3, 0.4])])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert len(diagnostics) == 1
        assert float(diagnostics[0].rsplit(" ", 1)[1]) <= 1e-14

    @pytest.mark.parametrize("s", [2.0 ** -60, 1e-20], ids=["2^-60", "1e-20"])
    def test_steering_in_a_slow_time_unit_exits_zero(self, tmp_path, capture, s):
        # the doubling searches start and give up in units of 1 / ||B0||_1:
        # absolute rules refused both routes here (exit 3); the synthesized
        # schedule then runs through simulate to the target
        b0 = np.array(dmajor.dissipation.b0_from_rates(
            dmajor.dissipation.zero_temperature_rates(4)).b0) * s
        b0 = write(tmp_path, "b0.json", b0.tolist())
        target = [0.1, 0.2, 0.3, 0.4]
        files = ["--b0", b0, "--target", write(tmp_path, "t.json", target)]
        x0 = write(tmp_path, "x0.json", [0.25] * 4)
        for extra, start in (([], [1.0, 0.0, 0.0, 0.0]),
                             (["--x0", x0, "--eps", "1e-9"], [0.25] * 4)):
            code, out, err = capture(["synthesize", *files, *extra])
            assert (code, err) == (0, ""), extra
            segments = json.loads(out)["data"]["segments"]
            total = sum(seg["duration"] for seg in segments)
            code, out, err = capture(["simulate", "--b0", b0,
                                      "--x0", write(tmp_path, "s0.json", start),
                                      "--schedule", write(tmp_path, "s.json",
                                                          {"segments": segments}),
                                      "--dt", repr(total / 8)])
            assert (code, err) == (0, ""), extra
            last = [float(v) for v in out.strip().splitlines()[-1].split(",")]
            assert np.abs(np.array(last[1:]) - target).sum() <= 1e-9

    def test_synthesize_from_ground_exits_numeric_past_its_bound(self, tmp_path, capture,
                                                                 monkeypatch):
        # a ground schedule that misses on purpose: its first duration off by
        # 1e-9 relative, far past the 2.1e-12 n the route states
        real = dmajor.reach.synthesize_from_ground

        def missing(gen, x):
            sched = real(gen, x)
            first = sched.segments[0]
            sched.segments[0] = dmajor.reach.Segment(first.perm, first.duration * (1 + 1e-9))
            return sched

        monkeypatch.setattr(dmajor.reach, "synthesize_from_ground", missing)
        target = write(tmp_path, "t.json", [0.1, 0.2, 0.3, 0.4])
        code, out, _ = capture(["synthesize", "--zero-temp", "4", "--target", target])
        assert code == 3
        report = json.loads(out)
        assert report["data"]["segments"]
        assert report["diagnostics"][1] == "error exceeds the ground bound 8.400e-12"
        monkeypatch.setattr(dmajor.reach, "synthesize_from_ground", real)
        code, out, _ = capture(["synthesize", "--zero-temp", "4", "--target", target])
        assert code == 0 and len(json.loads(out)["diagnostics"]) == 1

    def test_synthesize_within_eps_exits_zero(self, tmp_path, capture):
        target = write(tmp_path, "t.json", [0.1, 0.6, 0.3])
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        code, out, _ = capture(["synthesize", "--zero-temp", "3", "--target", target,
                                "--x0", x0, "--eps", "1e-6"])
        assert code == 0
        assert len(json.loads(out)["diagnostics"]) == 1

    def test_simulate_overflowing_duration_is_input_error(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        d = write(tmp_path, "d.json", [0.5, 0.3, 0.2])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [0, 1, 2],
                                                          "duration": 1e308}]})
        code, out, err = capture(["simulate", "--thermal", d, "--x0", x0,
                                  "--schedule", sched, "--dt", "1e308"])
        assert code == 2
        assert "nan" not in out
        assert "finite" in err

    def test_simulate_over_the_row_cap_is_input_error(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [0, 1, 2],
                                                          "duration": 1000.0}]})
        start = time.perf_counter()
        code, out, err = capture(["simulate", "--zero-temp", "3", "--x0", x0,
                                  "--schedule", sched, "--dt", "1e-6"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_simulate_with_explicit_rate_matrix(self, tmp_path, capture):
        b0 = write(tmp_path, "b0.json", [[0.0, -2.0, 0.0], [0.0, 2.0, -2.0],
                                         [0.0, 0.0, 2.0]])
        x0 = write(tmp_path, "x0.json", [0.0, 0.0, 1.0])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [0, 1, 2],
                                                          "duration": 40.0}]})
        code, out, _ = capture(["simulate", "--b0", b0, "--x0", x0,
                                "--schedule", sched, "--dt", "20.0"])
        assert code == 0
        last = [float(v) for v in out.strip().splitlines()[-1].split(",")]
        assert np.allclose(last[1:], [1.0, 0.0, 0.0], atol=1e-8)

    def test_simulate_rejects_non_finite_rate_matrix(self, tmp_path, capture):
        b0 = write(tmp_path, "b0.json", [[0.0, float("nan")], [0.0, 0.0]])
        x0 = write(tmp_path, "x0.json", [0.5, 0.5])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [0, 1], "duration": 1.0}]})
        code, out, err = capture(["simulate", "--b0", b0, "--x0", x0,
                                  "--schedule", sched, "--dt", "0.5"])
        assert code == 2
        assert out == ""
        assert "entries of B0 must be finite" in err

    @pytest.mark.parametrize("b0", [[0.0, 0.0], [[0.0, 0.0]], [[[0.0]]], 0.0])
    def test_rate_matrix_that_is_not_square_exits_input(self, tmp_path, capture, b0):
        b0 = write(tmp_path, "b0.json", b0)
        x = write(tmp_path, "x.json", [0.5, 0.5])
        code, out, err = capture(["synthesize", "--b0", b0, "--target", x])
        assert code == 2 and out == ""
        assert "B0 must be square" in err

    @pytest.mark.parametrize("perm, duration", [([1, 0], 0.0), ([1, 0], 0.5),
                                                ([0, 2, 1, 3], 0.0), ([0, 2, 1, 3], 0.5)])
    def test_simulate_rejects_permutation_of_wrong_length(self, tmp_path, capture, perm,
                                                          duration):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": perm, "duration": duration}]})
        code, out, err = capture(["simulate", "--zero-temp", "3", "--x0", x0,
                                  "--schedule", sched, "--dt", "0.25"])
        assert code == 2
        assert out == ""
        assert "lengths" in err

    def test_simulate_rejects_permutation_that_is_not_integer(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [0.5, 1.2, 2.7],
                                                          "duration": 0.5}]})
        code, out, err = capture(["simulate", "--zero-temp", "3", "--x0", x0,
                                  "--schedule", sched, "--dt", "0.25"])
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_roundtrip_csv_floats(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [1 / 3, 1 / 3, 1 / 3])
        sched = write(tmp_path, "s.json",
                      {"segments": [{"perm": [2, 0, 1], "duration": 0.7}]})
        code, out, _ = capture(["simulate", "--zero-temp", "3", "--x0", x0,
                                "--schedule", sched, "--dt", "0.2"])
        lines = out.strip().splitlines()[1:]
        for line in lines:
            for tok in line.split(","):
                assert repr(float(tok)) == tok  # shortest round-trip formatting


class TestBound:
    def test_equidistant_envelope(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        code, out, _ = capture(["bound", "--x0", x0, "--alpha", "0.5",
                                "--samples", "20", "--depth", "3"])
        assert code == 0
        data = json.loads(out)["data"]
        assert data["tangential_ok"] is True
        assert 0.0 <= data["tangential_margin"] <= 1.0
        assert sorted(data["tangential_witness"]) == [0, 1, 2]
        assert "tangential_mu" not in data
        assert data["sampled_violations"] == 0

    def test_non_invariant_corner_exits_false(self, tmp_path, capture, monkeypatch):
        # the sorted x0 is no maximal corner: the flow lifts its top entries
        monkeypatch.setattr(dmajor.polytope, "max_corner", lambda x0, d: np.sort(x0))
        x0 = write(tmp_path, "x0.json", [0.1, 0.2, 0.3, 0.4])
        code, out, _ = capture(["bound", "--x0", x0, "--alpha", "0.5", "--samples", "20"])
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] is False
        data = report["data"]
        assert data["tangential_ok"] is False
        assert data["tangential_margin"] > 1e9
        # [3, 2, 0, 1] reaches the same largest flux, 0.2, bit for bit; the
        # facet pass meets [3, 2, 1, 0] first
        assert data["tangential_witness"] == [3, 2, 1, 0]
        assert data["initial_majorized"] is True
        assert 0 < data["sampled_violations"] <= data["samples_checked"] == 20

    def test_sample_count_cap_exits_input(self, tmp_path, capture):
        cap = dmajor.reach.MAX_SAMPLE_COUNT
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        code, out, err = capture(["bound", "--x0", x0, "--alpha", "0.5",
                                  "--samples", str(cap + 1)])
        assert code == 2
        assert out == ""
        assert f"MAX_SAMPLE_COUNT = {cap}, got {cap + 1}" in err

    def test_negative_sample_count_exits_input(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        code, out, err = capture(["bound", "--x0", x0, "--alpha", "0.5", "--samples", "-5"])
        assert code == 2
        assert out == ""
        assert "sample_count must be nonnegative" in err

    def test_negative_depth_exits_input(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        code, out, err = capture(["bound", "--x0", x0, "--alpha", "0.5",
                                  "--depth", "-3", "--samples", "3"])
        assert code == 2
        assert out == ""
        assert "sample_depth must lie in [0, 12], got -3" in err

    def test_dimension_above_the_cap_exits_input(self, tmp_path, capture):
        # the Gibbs state is its own maximal corner, so no polytope code sees n
        x0 = write(tmp_path, "x0.json", dmajor.equidistant_d(0.5, 9).tolist())
        code, out, err = capture(["bound", "--x0", x0, "--alpha", "0.5"])
        assert code == 2
        assert out == ""
        assert "exceeds the cap 8" in err

    @pytest.mark.parametrize("x0, total", [([1e308, 1e308, 1.0], "inf"), ([0.0, 0.0, 0.0], "0.0")],
                             ids=["overflowing", "zero"])
    def test_total_not_finite_and_positive_exits_input(self, tmp_path, capture, x0, total):
        path = write(tmp_path, "x0.json", x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = capture(["bound", "--x0", path, "--alpha", "0.5"])
        assert code == 2
        assert out == ""
        assert f"x0 must have a finite positive total, got {total}" in err

    @pytest.mark.parametrize("scale", [1.0, 16.0, 2.0 ** 30])
    def test_negative_dust_accepted_at_every_scale(self, tmp_path, capture, scale):
        x0 = write(tmp_path, "x0.json", [0.6 * scale, (0.4 + 5e-13) * scale, -5e-13 * scale])
        code, out, err = capture(["bound", "--x0", x0, "--alpha", "0.5", "--samples", "3"])
        assert code == 0, err

    def test_missing_weights_named(self, tmp_path, capsys):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        err = parse_error(capsys, ["bound", "--x0", x0])
        assert "--alpha" in err and "--d" in err
        assert "NoneType" not in err

    def test_non_equidistant_rejected(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        d = write(tmp_path, "d.json", [0.5577, 0.4343, 0.0080])
        code, _, err = capture(["bound", "--x0", x0, "--d", d])
        assert code == 2

    def test_alpha_and_d_together_exit_input(self, tmp_path, capsys):
        x0 = write(tmp_path, "x0.json", [0.2, 0.3, 0.5])
        d = write(tmp_path, "d.json", [0.5577, 0.4343, 0.0080])
        err = parse_error(capsys, ["bound", "--x0", x0, "--alpha", "0.5", "--d", d])
        assert "argument --d: not allowed with argument --alpha" in err

    def test_single_level(self, tmp_path, capture):
        x0 = write(tmp_path, "x0.json", [3.0])
        code, out, _ = capture(["bound", "--x0", x0, "--alpha", "0.5", "--samples", "5"])
        assert code == 0
        data = json.loads(out)["data"]
        assert data["z"] == [1.0]
        assert (data["tangential_margin"], data["tangential_witness"]) == (0.0, [0])
        assert (data["sampled_violations"], data["samples_checked"]) == (0, 5)

    def test_exit_code_campaign(self, tmp_path, capsys):
        # malformed inputs each exit 0-3 within 2 s, and 1 only with a
        # negative verdict
        rng = np.random.default_rng(26)
        x0_texts = ["[NaN, 0.5, 0.5]", "[Infinity, 1, 1]", "[-Infinity, 1, 1]",
                    "[1e300, 1e300, 1]", "[1e300, 1, 1]", "[5e-324, 5e-324, 5e-324]",
                    "[5e-324, 0.5, 0.5]", "[2.2e-308, 1e-310, 1]", "[-0.1, 0.6, 0.5]",
                    "[0, 0, 0]", "[]", "[[0.2, 0.8]]", "[[0.2], [0.8]]", '["a", "b"]',
                    '"0.5"', "[true, false]", "true", '{"x": 1}', '[{"a": 1}]', "null",
                    "0.5", "not json", "[0.2, 0.3", "[0.2, 0.3, 0.5]", "[1.0, 0, 0]",
                    json.dumps(rng.dirichlet(np.ones(8)).tolist()),
                    json.dumps([0.0] * 7 + [1.0]),
                    json.dumps(rng.dirichlet(np.ones(9)).tolist())]
        paths = []
        for i, text in enumerate(x0_texts):
            paths.append(tmp_path / f"x0_{i}.json")
            paths[-1].write_text(text)
        d_files = [write(tmp_path, f"d_{i}.json", d) for i, d in enumerate(
            [[0.5577, 0.4343, 0.0080], [0.0, 0.0, 0.0], [-1.0, 0.5, 0.25],
             [4 / 7, 2 / 7, 1 / 7], [0.5, 0.5]])]
        (tmp_path / "d_nan.json").write_text("[NaN, 0.5, 0.25]")
        d_files.append(str(tmp_path / "d_nan.json"))
        weights = subnormal_weight_files(tmp_path)
        d_files += weights
        cases = [["--x0", str(p), "--alpha", a] for p in paths for a in ("0.5", "0.9")]
        good = str(paths[x0_texts.index("[0.2, 0.3, 0.5]")])
        eight = str(paths[-3])
        for x0 in (good, eight):
            cases += [["--x0", x0, "--alpha", a]
                      for a in ("0", "1", "nan", "-0.5", "1e-300", "inf", "0.999999")]
            cases += [["--x0", x0, "--d", d] for d in d_files]
        cap_samples, cap_depth = dmajor.reach.MAX_SAMPLE_COUNT, dmajor.reach.MAX_SAMPLE_DEPTH
        cases += [["--x0", good, "--alpha", "0.5", "--samples", str(k), "--depth", str(n)]
                  for k, n in [(cap_samples, 0), (cap_samples + 1, 0), (-1, 0), (10 ** 18, 0),
                               (20, cap_depth), (20, cap_depth + 1), (20, -1), (20, 10 ** 18),
                               (0, cap_depth + 1)]]
        refused = {str(paths[x0_texts.index(text)]) for text in ('["a", "b"]', "[true, false]")}
        codes = run_campaign(capsys, [["bound", *argv] for argv in cases], refused | set(weights))
        assert len(cases) == 95 and {0, 2} <= set(codes)


class TestChannel:
    @pytest.mark.parametrize("entry", ["true", '"0.4"', "null"])
    def test_non_number_matrix_entry_exits_input(self, tmp_path, capture, entry):
        a = tmp_path / "a.json"
        a.write_text(f"[[0.6, 0.0], [0.0, {entry}]]")
        b = write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 0.0]])
        code, out, err = capture(["channel", "--a", str(a), "--b", b])
        assert code == 2 and out == ""
        assert f"{a}: expected" in err

    def test_diagonal_pair(self, tmp_path, capture):
        a = write(tmp_path, "a.json", [[0.6, 0.0], [0.0, 0.4]])
        b = write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 0.0]])
        code, out, _ = capture(["channel", "--a", a, "--b", b, "--kraus"])
        assert code == 0
        data = json.loads(out)["data"]
        assert data["cp"] and data["tp"]
        assert data["residual_trace_norm"] <= 1e-8
        assert len(data["kraus"]) <= 4

    @pytest.mark.parametrize("fail", ["cp", "tp", "residual_trace_norm"])
    def test_negative_verdict_names_the_failed_condition(self, tmp_path, capture, monkeypatch,
                                                         fail):
        # the first of CP, TP and the residual that fails, with its value
        # and its gate; the residual's gate is max(tol, 1e-8) * ||B||_1
        monkeypatch.setattr(dmajor.channels, "is_cp", lambda t: fail != "cp")
        monkeypatch.setattr(dmajor.channels, "is_tp", lambda t: fail != "tp")
        if fail == "residual_trace_norm":
            monkeypatch.setattr(dmajor.channels, "trace_norm", lambda m: 2.0)
        a = write(tmp_path, "a.json", [[0.6, 0.0], [0.0, 0.4]])
        b = write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 0.0]])
        code, out, _ = capture(["--tol", "1e-9", "channel", "--a", a, "--b", b])
        report = json.loads(out)
        assert code == 1 and report["verdict"] is False
        gate = {"cp": 1e-9, "tp": 1e-9, "residual_trace_norm": 2e-8}[fail]
        value = 2.0 if fail == "residual_trace_norm" else False
        assert report["data"]["failed"] == {"condition": fail, "value": value, "gate": gate}
        # with every condition failing, CP is named
        monkeypatch.setattr(dmajor.channels, "is_cp", lambda t: False)
        monkeypatch.setattr(dmajor.channels, "is_tp", lambda t: False)
        monkeypatch.setattr(dmajor.channels, "trace_norm", lambda m: 2.0)
        _, out, _ = capture(["channel", "--a", a, "--b", b])
        assert json.loads(out)["data"]["failed"]["condition"] == "cp"

    def test_positive_verdict_names_no_condition(self, tmp_path, capture):
        a = write(tmp_path, "a.json", [[0.6, 0.0], [0.0, 0.4]])
        b = write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 0.0]])
        code, out, _ = capture(["channel", "--a", a, "--b", b])
        assert code == 0 and "failed" not in json.loads(out)["data"]

    def test_complex_entries(self, tmp_path, capture):
        a = write(tmp_path, "a.json",
                  [[[0.5, 0.0], [0.0, -0.1]], [[0.0, 0.1], [0.5, 0.0]]])
        b = write(tmp_path, "b.json",
                  [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
        code, out, _ = capture(["channel", "--a", a, "--b", b])
        assert code == 0

    @staticmethod
    def _seeded_pair(seed=4, n=4):
        """A Hermitian pair with tr A = tr B and ||A||_1 <= ||B||_1 = 1."""
        rng = np.random.default_rng(seed)
        b, a = ((m + m.conj().T) / 2 for m in rng.standard_normal((2, n, n, 2)) @ [1, 1j])
        a += (np.trace(b).real - np.trace(a).real) / n * np.eye(n)
        trace_norm = dmajor.channels.trace_norm
        while trace_norm(a) > trace_norm(b):
            a = 0.7 * a + 0.3 * np.trace(b).real / n * np.eye(n)
        return a / trace_norm(b), b / trace_norm(b)

    @pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
    def test_verdict_and_residual_are_relative(self, tmp_path, capture, s):
        # at 1e-9 every eigenvalue of s·B once counted as null, and an absolute
        # gate passed a channel missing s·A by percents; at 1e9 an exact
        # channel failed that gate
        a, b = self._seeded_pair()
        fa = write(tmp_path, "a.json", np.stack(((s * a).real, (s * a).imag), -1).tolist())
        fb = write(tmp_path, "b.json", np.stack(((s * b).real, (s * b).imag), -1).tolist())
        code, out, _ = capture(["channel", "--a", fa, "--b", fb])
        report = json.loads(out)
        assert code == 0 and report["verdict"] is True
        norm_b = dmajor.channels.trace_norm(s * b)
        assert report["data"]["residual_trace_norm"] <= 1e-8 * norm_b

    def test_tol_reaches_the_preconditions(self, tmp_path, capture):
        # a trace gap of 1e-7 ||B||_1 is refused at the default tol and
        # absorbed under --tol 1e-6, whose gate then widens to 1e-6 ||B||_1
        a, b = self._seeded_pair()
        a = a + 1e-7 * dmajor.channels.trace_norm(b) / 4 * np.eye(4)
        fa = write(tmp_path, "a.json", np.stack((a.real, a.imag), -1).tolist())
        fb = write(tmp_path, "b.json", np.stack((b.real, b.imag), -1).tolist())
        code, _, err = capture(["channel", "--a", fa, "--b", fb])
        assert code == 2 and "tr(A) = tr(B)" in err
        code, out, _ = capture(["--tol", "1e-6", "channel", "--a", fa, "--b", fb])
        report = json.loads(out)
        assert code == 0 and report["verdict"] is True
        assert 1e-8 < report["data"]["residual_trace_norm"] <= 1e-6 * dmajor.channels.trace_norm(b)

    def test_dimension_cap_is_an_input_error(self, tmp_path, capture):
        n = dmajor.channels.MAX_CHANNEL_DIM + 1
        a = write(tmp_path, "a.json", (np.eye(n) / n).tolist())
        code, out, err = capture(["channel", "--a", a, "--b", a])
        assert code == 2 and out == ""
        assert f"MAX_CHANNEL_DIM = {n - 1}" in err


class TestCnr:
    def test_csv_output_deterministic(self, tmp_path, capture):
        c = write(tmp_path, "c.json", [[1.0, 0.0], [0.0, -1.0]])
        t = write(tmp_path, "t.json", [[0.5, 0.0], [0.0, 0.25]])
        code, out1, _ = capture(["--seed", "7", "cnr", "--c", c, "--t", t,
                                 "--count", "50"])
        assert code == 0
        assert out1.splitlines()[0] == "re,im"
        _, out2, _ = capture(["--seed", "7", "cnr", "--c", c, "--t", t,
                              "--count", "50"])
        assert out1 == out2

    def test_sample_cap_exits_input(self, tmp_path, capture, monkeypatch):
        # at the cap the draw is reached (a stub returns one unitary), one
        # step above it the CLI exits 2 before drawing
        draws = []

        def draw(n, count, rng):
            draws.append(count)
            return np.eye(n, dtype=complex)[None]

        monkeypatch.setattr(dmajor.cnr, "haar_unitaries", draw)
        cap = dmajor.cnr.MAX_SAMPLE_ENTRIES // 4
        c = write(tmp_path, "c.json", [[1.0, 0.0], [0.0, -1.0]])
        code, out, _ = capture(["cnr", "--c", c, "--t", c, "--count", str(cap)])
        assert code == 0 and draws == [cap]
        assert out.splitlines()[1:] == ["2.0,0.0"]
        code, out, err = capture(["cnr", "--c", c, "--t", c, "--count", str(cap + 1)])
        assert code == 2 and out == "" and draws == [cap]
        assert f"MAX_SAMPLE_ENTRIES = {dmajor.cnr.MAX_SAMPLE_ENTRIES}" in err


class TestReportRoundtrip:
    def test_json_report_reparses(self, tmp_path, capture):
        x = write(tmp_path, "x.json", [0.5, 0.5])
        y = write(tmp_path, "y.json", [0.9, 0.1])
        code, out, _ = capture(["check", x, y])
        report = json.loads(out)
        assert report["command"] == "check"
        assert report["diagnostics"] == []  # residuals only with --certificate
        assert json.loads(json.dumps(report)) == report

    def test_out_flag_writes_file(self, tmp_path, capture):
        x = write(tmp_path, "x.json", [0.5, 0.5])
        y = write(tmp_path, "y.json", [0.9, 0.1])
        out_file = tmp_path / "report.json"
        code, out, _ = capture(["--out", str(out_file), "check", x, y])
        assert code == 0
        assert out == ""
        assert json.loads(out_file.read_text())["verdict"] is True

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_input(self, tmp_path, capture, where):
        x = write(tmp_path, "x.json", [0.5, 0.5])
        target = {"missing directory": str(tmp_path / "no" / "dir" / "o.json"),
                  "directory": str(tmp_path)}[where]
        code, out, err = capture(["check", x, x, "--out", target])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_env_tolerance_override(self, tmp_path, capture, monkeypatch):
        monkeypatch.setenv("DMAJOR_TOL", "0.5")
        x = write(tmp_path, "x.json", [0.62, 0.38])
        y = write(tmp_path, "y.json", [0.6, 0.4])
        code, _, _ = capture(["check", x, y])
        assert code == 0  # partial-sum excess forgiven at the loose tolerance


class TestJsonWriters:
    def test_text_matches_elementwise_floats(self):
        # ndarray.tolist() gives the floats of the per-entry loop it
        # replaced, so the emitted text is unchanged, signed zero included
        from dmajor.cli import _complex_matrix_json, _real_json

        vals = np.array([[-0.0, 5e-324, 1e308], [-5e-324, -1e308, 0.25]])
        z = np.empty(vals.shape, complex)
        z.real, z.imag = vals, vals[::-1]
        before = {"real": [[float(v) for v in row] for row in vals],
                  "vector": [float(v) for v in vals[0]],
                  "complex": [[[float(c.real), float(c.imag)] for c in row] for row in z]}
        after = {"real": _real_json(vals), "vector": _real_json(vals[0]),
                 "complex": _complex_matrix_json(z)}
        text = json.dumps(after, indent=2)
        assert text == json.dumps(before, indent=2)
        assert "-0.0" in text and "5e-324" in text and "1e+308" in text


class TestExitContract:
    def test_internal_error_exits_numeric(self, tmp_path, capture, monkeypatch):
        def broken(y, d):
            raise RuntimeError("enumerated corner violates the half-space system")

        monkeypatch.setattr(dmajor.polytope, "vertices", broken)
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        d = write(tmp_path, "d.json", [1.0, 1.0, 1.0])
        code, out, err = capture(["polytope", y, "--d", d])
        assert code == 3
        assert out == ""
        assert "internal error: RuntimeError: enumerated corner" in err

    def test_jobs_flag_is_rejected(self, capture):
        with pytest.raises(SystemExit) as exc:
            capture(["--jobs", "2", "bath", "--zero-temp", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, env", [("-1", None), ("nan", None), (None, "-1"),
                                           (None, "abc")])
    def test_bad_tolerance_exits_input(self, tmp_path, capture, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("DMAJOR_TOL", env)
        x = write(tmp_path, "x.json", [0.5, 0.3, 0.2])
        argv = ["check", x, x] + (["--tol", flag] if flag is not None else [])
        code, out, err = capture(argv)
        assert code == 2
        assert out == ""
        if env == "abc":
            assert "cannot parse DMAJOR_TOL='abc' as a float" in err
        else:
            assert "tolerance must be finite and nonnegative" in err

    def test_zero_tolerance_allowed(self, tmp_path, capture):
        x = write(tmp_path, "x.json", [0.5, 0.3, 0.2])
        code, out, _ = capture(["check", x, x, "--tol", "0"])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_bath_channel_cnr_campaign(self, tmp_path, capsys):
        # the malformed vectors as bath weights and energies, and malformed
        # matrices as channel and cnr inputs, each in every position, plus
        # extreme temperatures, levels, counts and tolerances
        vectors = malformed_files(tmp_path)
        huge = write(tmp_path, "huge.json", [1.7e308, 1.7e308, 1.0])
        matrix_texts = {
            "[[NaN, 0], [0, 0.5]]": True, "[[Infinity, 0], [0, 1]]": True,
            "[[1, 0], [0, -Infinity]]": True, "[[[1, 0], [0, NaN]], [[0, 0], [1, 0]]]": True,
            '[["1", 0], [0, 0]]': True, '[[[1, "0"], [0, 0]], [[0, 0], [1, 0]]]': True,
            "[[true, false], [false, true]]": True, "[[1, 0], [0, true]]": True,
            "[[[1, 0], [0, false]], [[0, 0], [1, 0]]]": True,
            "[[1e300, 0], [0, 1e300]]": False, "[[1e308, 1e308], [1e308, 1e308]]": False,
            "[[5e-324, 0], [0, 1]]": False, "[[1, 2], [3, 4]]": False, "[[1, 0]]": False,
            "[[1, 0], [0]]": False, "[[[1, 0, 0]]]": False, "[[null, 0], [0, 1]]": False,
            "[]": False, "[[]]": False, "1": False, '{"a": [[1]]}': False, "not json": False,
            "[" * 5000 + "1" + "]" * 5000: False,
            json.dumps(np.eye(dmajor.channels.MAX_CHANNEL_DIM + 1).tolist()): False,
        }
        matrices = {}
        for i, text in enumerate(matrix_texts):
            matrices[text] = str(tmp_path / f"m_{i}.json")
            Path(matrices[text]).write_text(text)
        good = write(tmp_path, "good.json", [[0.6, 0.0], [0.0, 0.4]])
        pure = write(tmp_path, "pure.json", [[1.0, 0.0], [0.0, 0.0]])
        cap = dmajor.dissipation.MAX_BATH_DIM
        cases = [["bath", "--thermal", v] for v in [huge, *vectors.values()]]
        cases += [["bath", "--gibbs", v] for v in vectors.values()]
        cases += [["bath", "--gibbs", vectors["[1e300, 1e300, 1]"], "--temperature", t]
                  for t in ("0", "-1", "nan", "inf", "1e-300", "1e300", "abc")]
        cases += [["bath", "--equidistant", a, n]
                  for a, n in [("0", "3"), ("1", "3"), ("nan", "3"), ("-0.5", "3"), ("inf", "3"),
                               ("1e-300", "3"), ("0.999999", "3"), ("abc", "3"), ("0.5", "0"),
                               ("0.5", "-1"), ("0.5", "2.5"), ("0.5", str(cap + 1)),
                               ("0.5", str(10 ** 18))]]
        cases += [["bath", "--zero-temp", n] for n in ("1", "0", "-1", str(cap + 1), "1e3")]
        for m in matrices.values():
            cases += [["channel", "--a", m, "--b", pure], ["channel", "--a", good, "--b", m],
                      ["cnr", "--c", m, "--t", good, "--count", "5"],
                      ["cnr", "--c", good, "--t", m, "--count", "5"]]
        cases += [["--tol", tol, "channel", "--a", good, "--b", pure] for tol in BAD_TOLERANCES]
        entries = dmajor.cnr.MAX_SAMPLE_ENTRIES
        cases += [["cnr", "--c", good, "--t", pure, "--count", k]
                  for k in ("0", "-1", str(entries // 4 + 1), str(10 ** 18), "2.5")]
        refused = {vectors[text] for text in NON_REAL_VECTORS + ["[NaN, 0.5, 0.5]",
                   "[Infinity, 1, 1]", "[-Infinity, 1, 1]"]}
        refused |= {matrices[text] for text, bad in matrix_texts.items() if bad}
        codes = run_campaign(capsys, cases, refused)
        assert len(cases) == 189
        # no negative verdict, and no numerical failure: every case succeeds or is refused
        assert codes[0] == 0 and set(codes) == {0, 2}


# the global flags each subcommand reads: 15 of the 36 pairs
GLOBAL_READS = {"check": {"--out", "--tol"}, "polytope": {"--out", "--format"},
                "curve": {"--out", "--format"}, "bath": {"--out"}, "simulate": {"--out"},
                "synthesize": {"--out"}, "bound": {"--out", "--seed"},
                "channel": {"--out", "--tol"}, "cnr": {"--out", "--seed"}}


class TestFlagSurface:
    """Each subcommand accepts only the flags it reads; any other exits 2."""

    @staticmethod
    def _runner(capsys, out):
        def run(argv):
            """Exit code, stdout, stderr and what --out wrote (None for nothing)."""
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            std = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, std.out, std.err, written
        return run

    def test_every_global_flag_is_read_or_refused(self, tmp_path, capsys, monkeypatch):
        # each flag before and after each name.  Where the subcommand reads
        # it, the output changes, but bound's seed only picks the schedules it
        # samples, so a probe of majorization_envelope shows it read; elsewhere
        # the exit is 2, with a message naming the flag and the subcommand
        x = write(tmp_path, "x.json", [0.62, 0.38])
        y = write(tmp_path, "y.json", [0.6, 0.4])
        a = write(tmp_path, "a.json", [[0.6, 0.0], [0.0, 0.4]])
        b = write(tmp_path, "b.json", [[0.7, 0.0], [0.0, 0.3]])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [1, 0], "duration": 0.7}]})
        commands = {
            "check": ["check", x, y],   # False at the default tol, True at 0.5
            "polytope": ["polytope", y, "--d", x],
            "curve": ["curve", y, "--d", x],
            "bath": ["bath", "--zero-temp", "2"],
            "simulate": ["simulate", "--zero-temp", "2", "--x0", y, "--schedule", sched],
            "synthesize": ["synthesize", "--zero-temp", "2", "--target", y],
            "bound": ["bound", "--x0", y, "--alpha", "0.5", "--samples", "5"],
            "channel": ["channel", "--a", a, "--b", b],     # 0.3 is a null eigenvalue at 0.5
            "cnr": ["cnr", "--c", a, "--t", b, "--count", "3"],
        }
        out = tmp_path / "out.txt"
        values = {"--tol": "0.5", "--seed": "3", "--out": str(out), "--format": "csv"}
        seeds = []
        envelope = dmajor.reach.majorization_envelope
        monkeypatch.setattr(dmajor.reach, "majorization_envelope",
                            lambda *args, **kw: seeds.append(kw["seed"]) or envelope(*args, **kw))
        run = self._runner(capsys, out)
        accepted = set()
        for command, argv in commands.items():
            plain = run(argv)
            assert plain[0] in (0, 1) and plain[3] is None, argv
            for flag, value in values.items():
                for line in ([flag, value, *argv], [*argv, flag, value]):
                    seeds.clear()
                    code, stdout, err, written = run(line)
                    if flag not in GLOBAL_READS[command]:
                        assert (code, stdout, written) == (2, "", None), line
                        assert f"dmajor: error: {command} does not read {flag}" in err, line
                    elif (command, flag) == ("bound", "--seed"):
                        assert (code, stdout) == plain[:2] and seeds == [3], line
                        accepted.add((command, flag))
                    else:
                        assert code in (0, 1) and (code, stdout, written) != plain[:2] + (None,)
                        accepted.add((command, flag))
        assert accepted == {(c, f) for c, flags in GLOBAL_READS.items() for f in flags}
        assert len(accepted) == 15

    @pytest.mark.parametrize("mode, flag, value", [("--gibbs", "--temperature", "5"),
                                                   ("--x0", "--eps", "1e-3"),
                                                   ("--d", "--method", "positive_part")])
    def test_mode_flags_are_read_only_in_their_mode(self, tmp_path, capsys, monkeypatch, mode,
                                                    flag, value):
        # the routes agree, so --method shows in a probe of the route run
        methods = []
        route = dmajor.majorize._d_majorizes
        monkeypatch.setattr(dmajor.majorize, "_d_majorizes",
                            lambda *args: methods.append(args[3]) or route(*args))
        x = write(tmp_path, "x.json", [0.3, 0.3, 0.4])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        # the subcommand, then its command line outside the mode and in it
        command, outside, inside = {
            "--gibbs": ("bath", ["--zero-temp", "3"], ["--gibbs", x]),
            "--x0": ("synthesize", ["--zero-temp", "3", "--target", x],
                     ["--zero-temp", "3", "--target", x, "--x0", y]),
            "--d": ("check", [x, y], [x, y, "--d", x]),
        }[mode]
        run = self._runner(capsys, tmp_path / "out.txt")
        assert run([command, *outside])[0] == 0
        code, stdout, err, _ = run([command, *outside, flag, value])
        assert (code, stdout) == (2, "")
        assert f"dmajor: error: {command} does not read {flag} without {mode}" in err
        plain = run([command, *inside])
        methods.clear()
        given = run([command, *inside, flag, value])
        assert plain[0] == given[0] == 0
        assert given[1] != plain[1] or methods == [value]

    def test_unread_tolerance_variable_fails_no_other_subcommand(self, tmp_path, capture,
                                                                 monkeypatch):
        # DMAJOR_TOL is read, and refused when malformed, only where --tol is
        monkeypatch.setenv("DMAJOR_TOL", "abc")
        x = write(tmp_path, "x.json", [0.3, 0.3, 0.4])
        assert capture(["bath", "--zero-temp", "3"])[0] == 0
        assert capture(["curve", x, "--d", x])[0] == 0
        code, out, err = capture(["check", x, x])
        assert (code, out) == (2, "") and "cannot parse DMAJOR_TOL='abc'" in err
        monkeypatch.setenv("DMAJOR_TOL", "-1")
        assert capture(["bath", "--zero-temp", "3"])[0] == 0

    def test_seed_domains(self, tmp_path, capture):
        # bound takes any integer seed mod 2^64; cnr's Haar draws take none below 0
        c = write(tmp_path, "c.json", [[0.6, 0.0], [0.0, 0.4]])
        x0 = write(tmp_path, "x0.json", [0.25] * 4)
        assert capture(["bound", "--x0", x0, "--alpha", "0.5", "--seed", "-1",
                        "--samples", "5"])[0] == 0
        for argv in (["cnr", "--c", c, "--t", c, "--seed", "-1"],
                     ["--seed", "-1", "cnr", "--c", c, "--t", c]):
            code, out, err = capture(argv)
            assert (code, out) == (2, "")
            assert err == "error: --seed must be a nonnegative integer for cnr, got -1\n"


class TestProcessEntry:
    """`python -m dmajor.cli` and the `dmajor` script end through run()."""

    def test_fresh_process_matches_main(self, tmp_path, capsys, monkeypatch):
        # exit 0, 1, 2 (bad input and a usage error), 3 and --help, with the
        # same stdout and stderr in a fresh process as in-process
        monkeypatch.setenv("COLUMNS", "80")     # argparse's help width, both sides
        x = write(tmp_path, "x.json", [0.3, 0.3, 0.4])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        t = write(tmp_path, "t.json", [0.1, 0.6, 0.3])
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        cases = [(0, ["check", x, y, "--certificate"]), (1, ["check", y, x]),
                 (2, ["check", str(bad), y]), (2, ["check", x]),
                 (3, ["synthesize", "--zero-temp", "3", "--target", t, "--x0", y,
                      "--eps", "1e-300"]),
                 (0, ["--help"])]
        for code, argv in cases:
            try:
                in_process = main(argv)
            except SystemExit as exc:
                in_process = exc.code
            out = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "dmajor.cli", *argv], env=fresh_env(),
                                  capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout, proc.stderr) == (in_process, out.out, out.err)
            assert in_process == code, argv

    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, capture):
        before = (gc.isenabled(), gc.get_freeze_count())
        x = write(tmp_path, "x.json", [0.3, 0.3, 0.4])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        assert capture(["check", x, y])[0] == 0
        with pytest.raises(SystemExit):
            capture(["check", x])
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_run_freezes_on_a_usage_error(self, tmp_path):
        x = write(tmp_path, "x.json", [0.3, 0.3, 0.4])
        proc = run_fresh("import gc, sys\n"
                         "from dmajor.cli import run\n"
                         f"sys.argv = ['dmajor', 'check', {x!r}]\n"
                         "try:\n"
                         "    run()\n"
                         "except SystemExit as exc:\n"
                         "    print(exc.code, gc.get_freeze_count() > 0)")
        assert proc.stdout.split() == ["2", "True"], proc.stderr

    def test_console_script_names_run(self):
        # read as text: Python 3.10 has no tomllib
        text = (Path(SRC_DIR).parent / "pyproject.toml").read_text()
        scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip() == 'dmajor = "dmajor.cli:run"'
        module, name = scripts.split('"')[1].split(":")
        assert callable(getattr(importlib.import_module(module), name))

    @pytest.mark.parametrize("read", [100, 0])
    def test_closed_stdout_exits_141_quietly(self, tmp_path, read):
        # 20000 rows of CSV fill the pipe long before a reader of 100 bytes
        # leaves; with none read, the reader leaves before the first write,
        # and the short report waits in stdout's buffer for run()'s flush
        c = write(tmp_path, "c.json", [[0.6, 0.0], [0.0, 0.4]])
        t = write(tmp_path, "t.json", [[1.0, 0.0], [0.0, 0.0]])
        count = "20000" if read else "5"
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)      # stdout block-buffered, as in a shell pipe
        proc = subprocess.Popen([sys.executable, "-m", "dmajor.cli", "cnr", "--c", c, "--t", t,
                                 "--count", count], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(read)
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
        assert head[:6] == b"re,im\n"[:read]
        assert (code, err) == (141, b"")


# the names `from dmajor import ...` has served, by defining module
PACKAGE_EXPORTS = {
    "channels": ["SuperOperator", "channel_between", "choi", "d_matrix_majorizes_2x2",
                 "identity_distance_witness", "is_cp", "is_strictly_positive", "is_tp",
                 "is_unital", "kernel_block_form", "kraus_set", "matrix_majorizes",
                 "pure_state_reachable", "trace_norm"],
    "cnr": ["c_numerical_range_sample", "c_spectrum", "unitary_orbit_extrema"],
    "dissipation": ["BathRates", "Generator", "apply_gamma", "b0_from_rates", "equidistant_d",
                    "flow", "gibbs_vector", "steady_state", "thermal_rates",
                    "zero_temperature_rates"],
    "linalg": ["expm", "hermitian_eig"],
    "majorize": ["MaximalElement", "StochasticMatrix", "ThermoCurve",
                 "column_stochastic_transfer", "d_majorizes", "d_stochastic_transfer",
                 "doubly_stochastic_transfer", "majorizes", "maximal_element",
                 "minimal_element", "thermo_curve"],
    "polytope": ["HPolytope", "VertexSet", "constraint_matrix", "contains", "halfspace_bounds",
                 "hausdorff", "lipschitz_constant", "max_corner", "vertex_for_permutation",
                 "vertices"],
    "reach": ["Schedule", "Segment", "Trajectory", "majorization_envelope", "reachable_sample",
              "simulate", "synthesize", "synthesize_from_ground", "synthesize_local"],
}

# the dmajor modules a cold start of each subcommand loads, besides dmajor.cli
SUBCOMMAND_MODULES = {
    "check": ["majorize"],
    "curve": ["majorize"],
    "polytope": ["linalg", "majorize", "polytope"],
    "cnr": ["cnr", "linalg", "majorize"],
    "bath": ["dissipation", "linalg", "majorize"],
    "channel": ["channels", "linalg", "majorize"],
    "simulate": ["dissipation", "linalg", "majorize", "reach"],
    "synthesize": ["dissipation", "linalg", "majorize", "reach"],
    "bound": ["dissipation", "linalg", "majorize", "polytope", "reach"],
}


class TestImportHygiene:
    """scipy is loaded only where expm, cdist and linprog run; birth-death
    and zero-temperature flows do not call expm.  ``import dmajor`` loads no
    submodule, and each subcommand loads only the modules it runs."""

    def test_bare_import_loads_no_submodule(self):
        proc = run_fresh("import sys, dmajor\n"
                         "print(sorted(m for m in sys.modules if m.startswith('dmajor')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['dmajor']"

    def test_package_names_resolve_to_their_modules(self):
        # in a fresh process, so the first lookup of each name is the lazy one
        proc = run_fresh("import json, sys, dmajor\n"
                         f"exports = {PACKAGE_EXPORTS!r}\n"
                         "names = {n: getattr(dmajor, n) for ns in exports.values() for n in ns}\n"
                         "mods = {m: getattr(dmajor, m) for m in exports}\n"
                         "print(json.dumps([[m, n] for m, ns in exports.items() for n in ns\n"
                         "                  if names[n] is not getattr(mods[m], n)\n"
                         "                  or mods[m] is not sys.modules['dmajor.' + m]]))\n"
                         "print(dmajor.reach.SimplexViolationError is\n"
                         "      dmajor.majorize.SimplexViolationError)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "True"]

    def test_submodule_attribute_after_bare_import(self):
        proc = run_fresh("import dmajor\n"
                         "print(dmajor.reach.MAX_LOCAL_DIM,\n"
                         "      dmajor.Schedule is dmajor.reach.Schedule)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(dmajor.reach.MAX_LOCAL_DIM), "True"]

    def test_dir_and_star_import_keep_every_name(self):
        names = {n for names in PACKAGE_EXPORTS.values() for n in names} | set(PACKAGE_EXPORTS)
        assert names | {"__version__"} <= set(dir(dmajor))
        namespace: dict = {}
        exec("from dmajor import *", namespace)
        assert names <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            dmajor.no_such_name  # noqa: B018

    @pytest.mark.parametrize("command", list(SUBCOMMAND_MODULES))
    def test_subcommand_loads_only_its_modules(self, tmp_path, command):
        x = write(tmp_path, "x.json", [0.2, 0.3, 0.5])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        a = write(tmp_path, "a.json", [[0.6, 0.0], [0.0, 0.4]])
        b = write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 0.0]])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [2, 0, 1], "duration": 0.7}]})
        argv = {
            "check": ["check", x, y],
            "curve": ["curve", y, "--d", y],
            "polytope": ["polytope", y, "--d", y],
            "cnr": ["cnr", "--c", a, "--t", b, "--count", "5"],
            "bath": ["bath", "--zero-temp", "3"],
            "channel": ["channel", "--a", a, "--b", b],
            "simulate": ["simulate", "--zero-temp", "3", "--x0", x, "--schedule", sched],
            "synthesize": ["synthesize", "--zero-temp", "3", "--target", y, "--x0", x],
            "bound": ["bound", "--x0", x, "--alpha", "0.5", "--samples", "5"],
        }[command] + ["--out", str(tmp_path / "out.txt")]
        proc = run_fresh("import sys\n"
                         "from dmajor.cli import main\n"
                         f"code = main({argv!r})\n"
                         "print(code, sorted(m[7:] for m in sys.modules\n"
                         "                   if m.startswith('dmajor.') and m != 'dmajor.cli'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"0 {SUBCOMMAND_MODULES[command]}"

    @pytest.mark.parametrize("argv", [["check", "x", "y", "--d", "d"],
                                      ["check", "x", "y", "--d", "d", "--certificate"],
                                      ["check", "x", "y", "--d", "d", "--method", "curve",
                                       "--certificate"],
                                      ["curve", "y", "--d", "d"],
                                      ["--format", "csv", "curve", "y", "--d", "d"],
                                      ["check", "x", "y"],
                                      ["check", "x", "y", "--certificate"]])
    def test_list_kernel_subcommands_leave_numpy_unloaded(self, tmp_path, argv):
        # a positive verdict, so --certificate builds its certificate
        files = {"x": write(tmp_path, "x.json", [0.3, 0.3, 0.4]),
                 "y": write(tmp_path, "y.json", [0.5, 0.3, 0.2]),
                 "d": write(tmp_path, "d.json", [1, 2, 3])}
        argv = [files.get(a, a) for a in argv] + ["--out", str(tmp_path / "out.txt")]
        proc = run_fresh("import sys\n"
                         "from dmajor.cli import main\n"
                         f"code = main({argv!r})\n"
                         "print(code, 'numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        if "--certificate" in argv:
            assert "certificate" in json.loads((tmp_path / "out.txt").read_text())["data"]

    def test_import_leaves_scipy_unloaded(self):
        proc = run_fresh("import sys, dmajor, dmajor.cli\n"
                         "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_scipy_free_subcommands_run_without_scipy(self, tmp_path):
        x = write(tmp_path, "x.json", [0.2, 0.3, 0.5])
        y = write(tmp_path, "y.json", [0.5, 0.3, 0.2])
        d = write(tmp_path, "d.json", [0.5, 0.3, 0.2])
        a = write(tmp_path, "a.json", [[0.6, 0.0], [0.0, 0.4]])
        b = write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 0.0]])
        sched = write(tmp_path, "s.json", {"segments": [{"perm": [2, 0, 1], "duration": 0.7}]})
        out = str(tmp_path / "out.txt")
        commands = [
            ["check", d, x, "--d", d, "--certificate"],
            ["check", x, y, "--certificate"],
            ["polytope", y, "--d", d],
            ["curve", y, "--d", d],
            ["bath", "--zero-temp", "3"],
            ["channel", "--a", a, "--b", b, "--kraus"],
            ["cnr", "--c", a, "--t", b, "--count", "10"],
            # birth-death generators run on the spectral propagator
            ["simulate", "--thermal", d, "--x0", x, "--schedule", sched, "--dt", "0.2"],
            # zero-temperature ones on their cached series
            ["simulate", "--zero-temp", "3", "--x0", x, "--schedule", sched, "--dt", "0.2"],
            ["synthesize", "--zero-temp", "3", "--target", y, "--x0", x],
            ["bound", "--x0", x, "--alpha", "0.5", "--samples", "20"],
        ]
        commands = [argv + ["--out", out] for argv in commands]
        proc = run_fresh("import sys\n"
                         "sys.modules['scipy'] = None  # any scipy import raises\n"
                         "from dmajor.cli import main\n"
                         f"print([main(argv) for argv in {commands!r}])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([0] * len(commands)), proc.stderr
