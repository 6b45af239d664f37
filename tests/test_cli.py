import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matrixbs.cli import main
from matrixbs.dataio import read_batch, write_batch
from matrixbs.errors import DataFormatError
from matrixbs.kernels import gaussian_kernel, kotz_kernel
from matrixbs.sampling import SampleBatch, sample_batch
from matrixbs.transform import GbsParams


def run(*argv):
    return main(list(argv))


@pytest.fixture
def pop_csv(tmp_path):
    path = tmp_path / "pop.csv"
    code = run("sample", "--n", "6", "--m", "2", "--count", "20", "--seed", "7",
               "--beta", "100", "--xi", "1,0.3,0.8", "--out", str(path))
    assert code == 0
    return path


class TestDataIo:
    def test_csv_round_trip_exact(self, tmp_path):
        params = GbsParams(n=6, xi=np.array([[1.0, 0.3], [0.3, 0.8]]),
                           beta=100.0 * np.eye(2))
        batch = sample_batch(params, gaussian_kernel(6, 2), 12, 9)
        path = tmp_path / "batch.csv"
        write_batch(path, batch)
        loaded = read_batch(path)
        assert np.array_equal(loaded.matrices, batch.matrices)  # 17 digits round-trip
        assert loaded.m == 2 and loaded.count == 12

    def test_json_round_trip_with_provenance(self, tmp_path):
        params = GbsParams(n=6, xi=np.array([[1.0, 0.3], [0.3, 0.8]]),
                           beta=100.0 * np.eye(2))
        batch = sample_batch(params, gaussian_kernel(6, 2), 5, 3)
        path = tmp_path / "batch.json"
        write_batch(path, batch)
        loaded = read_batch(path)
        assert np.array_equal(loaded.matrices, batch.matrices)
        assert loaded.seed == 3
        assert loaded.params.n == 6
        assert loaded.kernel.family == "gaussian"

    def test_bare_json_array_accepted(self, tmp_path):
        path = tmp_path / "mats.json"
        path.write_text(json.dumps([[[2.0, 0.1], [0.1, 3.0]]]), encoding="utf-8")
        loaded = read_batch(path)
        assert loaded.count == 1 and loaded.m == 2

    def test_non_spd_row_returned_unchanged(self, tmp_path):
        # reading checks the format only; the command that factors the
        # stack rejects the row (TestDataCheckedOnUse)
        path = tmp_path / "bad.csv"
        path.write_text("t11,t12,t22\n4.0,0.1,3.0\n1.0,5.0,1.0\n", encoding="utf-8")
        loaded = read_batch(path)
        assert np.array_equal(loaded.matrices, [[[4.0, 0.1], [0.1, 3.0]],
                                                [[1.0, 5.0], [5.0, 1.0]]])

    def test_malformed_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t11,t12,t22\n4.0,xyz,3.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="row 1"):
            read_batch(path)

    def test_csv_reader_matches_row_oracle(self, tmp_path):
        # cells as the writer spells them and as people do: exponents,
        # padding, signed zeros, integers; compared bit for bit
        rng = np.random.default_rng(11)
        m = 3
        upper = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 9, size=(40, 6))
        cells = [[repr(float(v)) for v in row] for row in upper]
        cells[0][1], cells[1][3], cells[2][4], cells[3][0] = " 2.5e-3 ", "-0.0", "7", "1E+2"
        path = tmp_path / "batch.csv"
        path.write_text("t11,t12,t13,t22,t23,t33\n"
                        + "\n".join(",".join(row) for row in cells) + "\n", encoding="utf-8")
        from matrixbs.dataio import _batch_from_csv  # the parser alone: cells need not be SPD

        got = _batch_from_csv(path.read_text(encoding="utf-8")).matrices
        want = np.empty((len(cells), m, m))
        pairs = [(i, j) for i in range(m) for j in range(i, m)]
        for k, row in enumerate(cells):  # one item set per cell and side
            for (i, j), cell in zip(pairs, row):
                want[k, i, j] = want[k, j, i] = float(cell)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("body,row", [
        ("4.0,0.1,3.0\n4.0,0.1\n", 2),
        ("4.0,0.1,3.0\n4.0,0.1,3.0,1.0\n", 2),
        ("4.0,0.1,3.0\n4.0,0.1,3.0\n4.0,nope,3.0\n4.0,0.1\n", 3),
        ("4.0,0.1,3.0\n4.0,0.1\n4.0,nope,3.0\n", 2),
    ])
    def test_bad_row_named(self, tmp_path, body, row):
        path = tmp_path / "bad.csv"
        path.write_text("t11,t12,t22\n" + body, encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"^row {row}:"):
            read_batch(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_batch(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t11,t12\n1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_batch(path)

    @pytest.mark.parametrize("finite", [True, False])
    @pytest.mark.parametrize("m", [1, 3])
    def test_writers_byte_identical_to_reference_formatting(self, m, finite, tmp_path):
        params = GbsParams(n=5, xi=np.eye(m), beta=2.0)
        batch = sample_batch(params, kotz_kernel(2.0, 0.5, 1.5, 5, m), 7, 4)
        if not finite:
            mats = batch.matrices.copy()
            mats[0, 0, 0], mats[1, -1, -1], mats[2, 0, -1] = np.nan, np.inf, -0.0
            batch = SampleBatch(m=m, count=7, matrices=mats)
        obj = {"m": m, "count": 7, "matrices": batch.matrices.tolist()}
        if finite:
            obj["provenance"] = {"n": 5, "xi": np.eye(m).tolist(),
                                 "beta": (2.0 * np.eye(m)).tolist(),
                                 "kernel": {"family": "kotz", "q": 2.0, "r": 0.5, "s": 1.5},
                                 "seed": 4}
        pairs = [(i, j) for i in range(m) for j in range(i, m)]
        csv = ",".join(f"t{i + 1}{j + 1}" for i, j in pairs) + "\n" + "".join(
            ",".join(f"{T[i, j]:.17g}" for i, j in pairs) + "\n" for T in batch.matrices)
        write_batch(tmp_path / "b.csv", batch)
        write_batch(tmp_path / "b.json", batch)
        assert (tmp_path / "b.csv").read_text() == csv
        assert (tmp_path / "b.json").read_text() == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("text", [
        "3",
        '{"matrices": [[[1.0, 0.0], [0.0]]]}',
        '{"matrices": [[["x", 0.0], [0.0, 1.0]]]}',
        '{"matrices": [[[1.0, 0.0], [0.0, 1.0]]], "provenance": [1]}',
        '{"matrices": [[[1.0, 0.0], [0.0, 1.0]]], "provenance": {"n": "six",'
        ' "kernel": {"family": "gaussian"}}}',
    ], ids=["top-level-number", "ragged", "non-numeric", "provenance-list",
            "provenance-field"])
    def test_malformed_json_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert run("density", "--data", str(path), "--n", "4") == 2
        assert "data error" in capsys.readouterr().err


POPB = Path(__file__).resolve().parent / "data" / "paper_k20_round1_popB.csv"
# the flags each data command needs beyond --data and --n
DATA_COMMANDS = {"fit": (), "compare": ("--s-grid", "1"),
                 "density": ("--beta", "1", "--xi", "1")}
GOOD = [[4.0, 0.1], [0.1, 3.0]]


class TestDataCheckedOnUse:
    """read_batch parses; the one factorisation of the --data stack in each
    command checks its matrices, and the CLI names the failing row."""

    @pytest.mark.parametrize("command", sorted(DATA_COMMANDS))
    @pytest.mark.parametrize("name,text,row,fault", [
        ("bad.csv", "t11,t12,t22\n4.0,0.1,3.0\n1.0,5.0,1.0\n4.0,0.2,3.0\n", 2,
         "positive definite"),
        ("bad.json", json.dumps([GOOD, GOOD, [[4.0, np.nan], [np.nan, 3.0]]]), 3, "finite"),
        ("bad.json", json.dumps({"matrices": [[[4.0, 0.1], [0.2, 3.0]], GOOD]}), 1,
         "symmetric"),
    ], ids=["not-spd-csv", "not-finite-json", "not-symmetric-json"])
    def test_bad_row_named(self, command, name, text, row, fault, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert run(command, "--data", str(path), "--n", "6", *DATA_COMMANDS[command]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error in {path}: row {row}: matrix is not {fault}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fit", "density"])
    @pytest.mark.parametrize("fault", [
        {"n": 1}, {"xi": [[1.0, 2.0], [2.0, 1.0]]},
        {"kernel": {"family": "kotz", "q": 2.0, "r": -0.5, "s": 1.5}}],
        ids=["n-below-m", "xi-not-spd", "kotz-r-negative"])
    def test_malformed_provenance_named(self, command, fault, tmp_path, capsys):
        # provenance the command does not use is still checked when read, and
        # a fault in it is a data error in the file, not a model error
        prov = {"n": 6, "xi": [[1.0, 0.3], [0.3, 0.8]], "beta": [[100.0, 0.0], [0.0, 100.0]],
                "kernel": {"family": "gaussian"}, "seed": 1, **fault}
        path = tmp_path / "prov.json"
        path.write_text(json.dumps({"matrices": read_batch(POPB).matrices.tolist(),
                                    "provenance": prov}), encoding="utf-8")
        assert run(command, "--data", str(path), "--n", "6", *DATA_COMMANDS[command]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error in {path}: malformed provenance: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("command", sorted(DATA_COMMANDS))
    def test_data_stack_factored_once(self, command, monkeypatch, capsys):
        stack = read_batch(POPB).matrices
        stack = 0.5 * (stack + np.swapaxes(stack, 1, 2))
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            def counted(a, *args, _name=name, _factor=getattr(np.linalg, name), **kwargs):
                if np.shape(a) == stack.shape and np.array_equal(a, stack):
                    calls.append(_name)
                return _factor(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        assert run(command, "--data", str(POPB), "--n", "6", *DATA_COMMANDS[command]) == 0
        assert len(calls) == 1, calls

    def test_near_singular_row_fitted(self, tmp_path, capsys):
        # a row with eigenvalues 1.4e-17 and 2 is below the floor
        # lambda_min > m (m + 1) eps lambda_max: every command refuses it
        data = tmp_path / "near.csv"
        data.write_text(POPB.read_text(encoding="utf-8") + "1.8815403921096419,"
                        "0.47210860729198595,0.118459607890358\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "matrixbs.cli", "fit", "--data",
                               str(data), "--n", "6"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
        assert done.stderr == f"data error in {data}: row 21: matrix is not positive definite\n"
        assert done.stdout == ""

        assert run("density", "--data", str(data), "--n", "6", *DATA_COMMANDS["density"]) == 2
        assert "row 21: matrix is not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(DATA_COMMANDS))
    @pytest.mark.parametrize("times_floor,code", [(0.25, 2), (4.0, 0)])
    def test_floor_decides_every_command(self, command, times_floor, code, tmp_path, capsys):
        # popB plus one rotated row whose eigenvalue ratio sits a factor 4
        # below or above the floor 6 eps of m = 2: fit, compare and density
        # all refuse it or all take it
        from matrixbs.linalg import EPS

        floor = 6 * EPS
        c, s = math.cos(0.3), math.sin(0.3)
        Q = np.array([[c, -s], [s, c]])
        row = Q @ np.diag([2.0, 2.0 / (times_floor * floor)]) @ Q.T
        cells = [row[0, 0], row[0, 1], row[1, 1]]
        stored = np.array([[cells[0], cells[1]], [cells[1], cells[2]]])
        w = np.linalg.eigvalsh(stored)
        assert 0.5 * times_floor < w[0] / w[1] / floor < 2.0 * times_floor
        data = tmp_path / "edge.csv"
        data.write_text(POPB.read_text(encoding="utf-8")
                        + ",".join(repr(float(x)) for x in cells) + "\n", encoding="utf-8")
        assert run(command, "--data", str(data), "--n", "6", *DATA_COMMANDS[command]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (f"data error in {data}: row 21:"
                                    " matrix is not positive definite\n")
        else:
            assert captured.err == "" and captured.out


class TestSampleCommand:
    def test_round_trip_through_fit(self, pop_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = run("fit", "--data", str(pop_csv), "--n", "6",
                   "--family", "gaussian", "--seed", "0", "--out", str(out))
        assert code == 0
        result = json.loads(out.read_text())
        assert abs(result["estimates"]["beta"] - 100.0) < 20.0
        assert result["n_params"] == 4
        assert result["converged"] is True
        assert "n_p" in result["notes"]

    def test_byte_identical_given_seed(self, tmp_path):
        # a Gaussian CSV, and the stacked Kotz stream written as JSON
        kotz = ("--family", "kotz", "--q", "2", "--r", "0.5", "--s", "1.5")
        for model, suffix in (((), ".csv"), (kotz, ".json")):
            a, b = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
            for path in (a, b):
                assert run("sample", "--n", "4", "--m", "2", "--count", "6", *model,
                           "--seed", "11", "--out", str(path)) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = run("sample", "--n", "4", "--m", "2", "--count", "6",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("power", ["0.006", "0.004"])
    def test_tiny_kotz_power_exits_two(self, power, tmp_path, capsys):
        # at s = 0.006 the branch inverse overflows; at s = 0.004 the radius does
        out = tmp_path / "x.json"
        code = run("sample", "--n", "4", "--m", "2", "--count", "50", "--seed", "1",
                   "--family", "kotz", "--q", "1", "--r", "1", "--s", power,
                   "--out", str(out))
        assert code == 2
        assert f"s={power}" in capsys.readouterr().err
        assert not out.exists()


class TestDensityCommand:
    def test_values_match_library(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "dens.json"
        code = run("density", "--data", str(pop_csv), "--n", "6",
                   "--beta", "100", "--xi", "1,0.3,0.8",
                   "--convention", "branch", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["logpdf"]) == 20
        assert payload["convention"] == "branch"

        from matrixbs.density import Convention, logpdf_T
        batch = read_batch(pop_csv)
        params = GbsParams(n=6, xi=np.array([[1.0, 0.3], [0.3, 0.8]]),
                           beta=100.0 * np.eye(2))
        kern = gaussian_kernel(6, 2)
        expected = [logpdf_T(T, params, kern, Convention.BRANCH_NORMALIZED)
                    for T in batch.matrices]
        assert np.allclose(payload["logpdf"], expected, rtol=1e-12)


    def test_json_byte_identical_to_json_dumps(self, tmp_path):
        # a -Infinity row: at T = beta (1 + 1e-13), n > m, the as-published
        # product factor vanishes
        from matrixbs.density import Convention, logpdf_T

        beta = np.array([[2.0, 0.3], [0.3, 1.5]])
        params = GbsParams(n=5, xi=np.array([[1.0, 0.2], [0.2, 0.7]]), beta=beta)
        T = sample_batch(params, gaussian_kernel(5, 2), 6, 3).matrices
        T[4] = beta * (1.0 + 1e-13)
        data, out = tmp_path / "rows.csv", tmp_path / "dens.json"
        write_batch(data, SampleBatch(m=2, count=6, matrices=T))
        assert run("density", "--data", str(data), "--n", "5", "--beta", "2,0.3,1.5",
                   "--xi", "1,0.2,0.7", "--convention", "as-published",
                   "--out", str(out)) == 0
        values = logpdf_T(read_batch(data).matrices, params, gaussian_kernel(5, 2),
                          Convention.AS_PUBLISHED).tolist()
        assert values[4] == -np.inf and np.isfinite(np.delete(values, 4)).all()
        want = json.dumps({"logpdf": values, "convention": "as-published"}, indent=2) + "\n"
        assert out.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("values", [[], [-1.5], [0.1, -0.0, 1e300, -np.inf, np.nan],
                                        [-2.25, np.inf, 3.0]])
    def test_json_writer_matches_json_dumps(self, values):
        from matrixbs.dataio import density_to_json

        for convention in ("branch", "as-published"):
            want = json.dumps({"logpdf": values, "convention": convention}, indent=2) + "\n"
            assert density_to_json(np.array(values, dtype=float), convention) == want

    def test_near_singular_row_exits_two_without_traceback(self, tmp_path):
        # eigvalsh calls this matrix positive definite, Cholesky does not
        data = tmp_path / "near.csv"
        data.write_text("t11,t12,t22\n1.8815403921096419,0.47210860729198595,"
                        "0.118459607890358\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "matrixbs.cli", "density", "--data",
                               str(data), "--n", "4", "--beta", "1e-30", "--xi", "1",
                               "--convention", "as-published"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode in (0, 2)
        assert "Traceback" not in done.stderr
        if done.returncode == 2:
            assert "row 1: matrix is not positive definite" in done.stderr


class TestCompareCommand:
    def test_three_row_table_with_baseline(self, pop_csv, capsys):
        code = run("compare", "--data", str(pop_csv), "--n", "6",
                   "--s-grid", "0.5,1,2", "--seed", "0")
        assert code == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        header = lines[0].split()
        assert header[:8] == ["s", "beta", "alpha11", "alpha12", "alpha22",
                              "r", "q", "bic_diff"]
        assert header[8] == "evidence"
        assert lines[1].split()[0] == "gaussian"
        assert len(lines) == 2 + 3  # header + baseline + three grid rows

    def test_json_output(self, pop_csv, tmp_path):
        out = tmp_path / "cmp.json"
        code = run("compare", "--data", str(pop_csv), "--n", "6",
                   "--s-grid", "1", "--seed", "0", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][:8] == ["s", "beta", "alpha11", "alpha12",
                                          "alpha22", "r", "q", "bic_diff"]
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["evidence"] in (
            "Weak", "Positive", "Strong", "Very strong")


class TestValidateCommand:
    def test_green_build_exits_zero(self, capsys):
        assert run("validate", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "7/7 checks passed" in out

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert run("validate", "--seed", "0", "--out", str(out)) == 0
        checks = json.loads(out.read_text(encoding="utf-8"))
        assert len(checks) == 7
        assert all(type(check["passed"]) is bool and check["passed"] for check in checks)


class TestConfig:
    def test_config_supplies_defaults_flags_override(self, pop_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "family": "gaussian", "seed": 0,
                                   "data": str(pop_csv)}), encoding="utf-8")
        out = tmp_path / "fit.json"
        code = run("fit", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["n"] == 6

        # flag overrides the config value
        out2 = tmp_path / "fit2.json"
        code = run("fit", "--config", str(cfg), "--n", "7", "--out", str(out2))
        assert code == 0
        assert json.loads(out2.read_text())["n"] == 7

    def test_usage_error_exit_codes(self, capsys, tmp_path):
        assert run("fit", "--n", "6") == 2          # missing --data
        bad = tmp_path / "bad.csv"
        bad.write_text("t11,t12,t22\n1.0,5.0,1.0\n", encoding="utf-8")
        assert run("fit", "--data", str(bad), "--n", "6") == 2
        err = capsys.readouterr().err
        assert "row 1" in err

    def test_config_values_parsed_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "6", "count": 3}), encoding="utf-8")
        out = tmp_path / "x.csv"
        assert run("sample", "--config", str(cfg), "--m", "2", "--seed", "1",
                   "--out", str(out)) == 0
        assert read_batch(out).count == 3

        cfg.write_text(json.dumps({"count": "abc"}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run("sample", "--config", str(cfg), "--n", "6", "--m", "2", "--seed", "1",
                "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--count" in err

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", "6", "--m", "2", "--count", "3", "--seed", "-1"),
        ("sample", "--n", "6", "--m", "0", "--count", "3", "--seed", "1"),
        ("sample", "--n", "6", "--m", "2", "--count", "0", "--seed", "1"),
        ("sample", "--n", "0", "--m", "2", "--count", "3", "--seed", "1"),
        ("fit", "--family", "kotz", "--s", "1", "--n", "6", "--seed", "-1"),
        ("validate", "--seed", "-1"),
    ], ids=["sample-seed", "sample-m", "sample-count", "sample-n", "fit-seed", "validate-seed"])
    def test_out_of_range_integers_exit_two(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("compare", "--s-grid", "nan"),
        ("compare", "--s-grid", "inf"),
        ("fit", "--family", "kotz", "--s", "nan"),
        ("fit", "--family", "kotz", "--s", "inf"),
        ("fit", "--family", "kotz", "--s", "0"),
        ("fit", "--max-iter", "0"),
    ])
    def test_bad_search_settings_exit_two(self, argv, pop_csv, capsys):
        assert run(*argv, "--data", str(pop_csv), "--n", "6") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_removed_restarts_exit_two(self, command, pop_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--data", str(pop_csv), "--n", "6", "--restarts", "3")
        assert exc.value.code == 2
        for key in ("restarts", "jitter"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: 3}), encoding="utf-8")
            assert run(command, "--config", str(cfg), "--data", str(pop_csv), "--n", "6") == 2
            assert key in capsys.readouterr().err

    def test_removed_jobs_exit_two(self, pop_csv, tmp_path, capsys):
        # the grid's rows are fitted together in process: there are no workers
        with pytest.raises(SystemExit) as exc:
            run("compare", "--data", str(pop_csv), "--n", "6", "--jobs", "2")
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}), encoding="utf-8")
        assert run("compare", "--config", str(cfg), "--data", str(pop_csv), "--n", "6") == 2
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,power", [
        (("fit", "--family", "kotz", "--s", "0.01"), "0.01"),
        (("fit", "--family", "kotz", "--s", "1000"), "1000"),
        (("compare", "--s-grid", "300"), "300"),
        *((("fit", "--family", "kotz", "--s", power), power) for power in ("0.009", "0.015")),
        *((("compare", "--s-grid", f"1,{power}"), power) for power in ("0.009", "0.01", "0.015")),
    ])
    def test_extreme_power_exits_two(self, argv, power, tmp_path):
        # a power whose likelihood overflows at the start of its fit is a
        # data error naming the power, not a numpy traceback; on popB, s up
        # to about 0.016 puts c M0 beyond the largest float on both start rays
        data = Path(__file__).resolve().parent / "data" / "paper_k20_round1_popB.csv"
        out = tmp_path / "out.json"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "matrixbs.cli", *argv, "--data", str(data),
                               "--n", "6", "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert done.returncode == 2
        assert f"s={power}" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_degrees_below_order_exit_two(self, command, tmp_path, capsys):
        # n < m is refused before any fitting, with the density command's message
        data = Path(__file__).resolve().parent / "data" / "paper_k20_round1_popB.csv"
        out = tmp_path / "out.json"
        assert run(command, "--data", str(data), "--n", "1", "--out", str(out)) == 2
        assert "need degrees n >= m, got n=1, m=2" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_calls_parse_independently(self, pop_csv, tmp_path, monkeypatch):
        # one parser serves every main() call; nothing of a call's flags or
        # config reaches the next
        from matrixbs import cli

        seen = []
        for name in ("_cmd_fit", "_cmd_density", "_cmd_sample"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 7, "family": "kotz", "s": 1.5, "max_iter": 40}),
                       encoding="utf-8")
        assert run("fit", "--config", str(cfg), "--data", str(pop_csv)) == 0
        parser = cli._PARSER
        assert run("density", "--data", str(pop_csv), "--n", "6", "--beta", "100",
                   "--xi", "1") == 0
        assert run("fit", "--data", str(pop_csv), "--n", "6") == 0
        assert run("sample", "--config", str(cfg.with_name("none.json"))) == 2
        assert run("fit", "--config", str(cfg), "--n", "8", "--data", str(pop_csv)) == 0
        assert cli._PARSER is parser
        first, dens, plain, again = seen
        assert (first["n"], first["family"], first["s"], first["max_iter"]) == (7, "kotz",
                                                                                1.5, 40)
        assert (dens["command"], dens["n"], dens["family"], dens["beta"]) == (
            "density", 6, None, "100")
        assert "max_iter" not in dens
        assert (plain["n"], plain["family"], plain["s"], plain["max_iter"],
                plain["config"]) == (6, None, None, None, None)
        assert (again["n"], again["family"], again["max_iter"]) == (8, "kotz", 40)

    @pytest.mark.parametrize("command,flag,value", [
        ("density", "seed", "1"),
        ("sample", "convention", "branch"),
        ("fit", "q", "2"),
        ("fit", "r", "0.5"),
        ("compare", "family", "kotz"),
        ("compare", "q", "2"),
        ("compare", "r", "0.5"),
        ("compare", "s", "1.5"),
    ])
    def test_flag_the_command_does_not_read_exits_two(self, command, flag, value, pop_csv,
                                                      tmp_path, capsys):
        # each subcommand takes only the flags its handler reads
        base = ("--n", "6", *(("--m", "2") if command == "sample" else ("--data", str(pop_csv))))
        with pytest.raises(SystemExit) as exc:
            run(command, *base, f"--{flag}", value)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}), encoding="utf-8")
        assert run(command, "--config", str(cfg), *base) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("density", "q"), ("density", "r"), ("density", "s"),
        ("sample", "q"), ("sample", "r"), ("sample", "s"),
        ("fit", "s"),
    ])
    def test_kotz_parameter_without_kotz_family_exits_two(self, command, flag, pop_csv,
                                                         tmp_path, capsys):
        # the Gaussian family reads no Kotz parameter, as a flag or a config key
        base = ["--n", "6", "--out", str(tmp_path / "out.csv")]
        base += {"density": ["--data", str(pop_csv), "--beta", "100", "--xi", "1"],
                 "sample": ["--m", "2", "--count", "3", "--seed", "1"],
                 "fit": ["--data", str(pop_csv)]}[command]
        assert run(command, *base, f"--{flag}", "2") == 2
        assert f"--{flag} applies only to --family kotz" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: 2, "family": "gaussian"}), encoding="utf-8")
        assert run(command, "--config", str(cfg), *base) == 2
        assert f"--{flag} applies only to --family kotz" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_one_observation_exits_two(self, command, tmp_path, capsys):
        one = tmp_path / "one.csv"
        assert run("sample", "--n", "6", "--m", "2", "--count", "1", "--seed", "3",
                   "--beta", "100", "--xi", "1,0.3,0.8", "--out", str(one)) == 0
        out = tmp_path / "out.json"
        assert run(command, "--data", str(one), "--n", "6", "--out", str(out)) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--bogus")
        assert exc.value.code == 2


def test_cli_import_skips_optimizer_and_validation():
    # nor a process pool: the grid's rows are one batched solve; nor the
    # argument parser, which the first main() call builds
    code = ("import sys, matrixbs.cli; assert matrixbs.cli._PARSER is None;"
            " print(sorted(m for m in sys.modules"
            " if m in ('matrixbs.validate', 'concurrent.futures.process')"
            " or m.split('.')[0] in ('scipy', 'multiprocessing')))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_fit_and_compare_load_no_scipy(tmp_path):
    data = Path(__file__).resolve().parent / "data" / "paper_k20_round1_popB.csv"
    code = ("import sys; from matrixbs.cli import main\n"
            f"assert main(['fit', '--data', {str(data)!r}, '--n', '6', '--family', 'kotz',"
            " '--s', '1.5',"
            f" '--out', {str(tmp_path / 'fit.json')!r}]) == 0\n"
            f"assert main(['compare', '--data', {str(data)!r}, '--n', '6',"
            f" '--out', {str(tmp_path / 'compare.json')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
