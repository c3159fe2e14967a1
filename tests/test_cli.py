import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigengeo import SpdMatrix, Spectrum, cli, curvature_oracle_A
from eigengeo.cli import main, read_matrix
from eigengeo.cli import CliInputError
from eigengeo.fisher_geometry import FD_TOLERANCE


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def write_matrix(tmp_path, name, m):
    p = m.shape[0]
    body = "\n".join(" ".join(str(v) for v in row) for row in m)
    path = tmp_path / name
    path.write_text(f"{p}\n{body}\n")
    return str(path)


class TestGeometryCommand:
    def test_reference_values(self, tmp_path):
        assert run(tmp_path, "geometry", "--lambda", "2,1") == 0
        header, rows = read_rows(tmp_path / "geometry.csv")
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row["kind"], []).append(row)
        assert float(by_kind["metric_eigen"][0]["value"]) == 0.125
        assert float(by_kind["metric_eigen"][1]["value"]) == 0.5
        assert float(by_kind["metric_pair"][0]["value"]) == 0.5
        assert float(by_kind["statistical_curvature"][0]["value"]) == 10.0

    def test_check_fd_deviation_column(self, tmp_path):
        assert run(tmp_path, "geometry", "--lambda", "2,1", "--check-fd") == 0
        header, rows = read_rows(tmp_path / "geometry.csv")
        assert "oracle" in header and "abs_dev" in header
        summary = [r for r in rows if r["kind"] == "fd_max_abs_deviation"]
        assert len(summary) == 1
        assert float(summary[0]["value"]) < FD_TOLERANCE

    def test_check_fd_warns_above_fd_tolerance(self, tmp_path, capsys, monkeypatch):
        # The oracles agree to about 3e-7 relative here, so nothing is said;
        # below that tolerance the same run warns on stderr, with the same
        # CSV bytes and exit code.
        argv = ["geometry", "--lambda", "4,0.2", "--check-fd"]
        assert run(tmp_path / "quiet", *argv) == 0
        assert "warning" not in capsys.readouterr().err
        monkeypatch.setattr(cli, "FD_TOLERANCE", 1e-9)
        assert run(tmp_path / "warned", *argv) == 0
        assert "above FD_TOLERANCE 1e-09" in capsys.readouterr().err
        quiet, warned = (tmp_path / d / "geometry.csv" for d in ("quiet", "warned"))
        assert quiet.read_bytes() == warned.read_bytes()

    def test_check_fd_oracle_cells_are_the_scalar_oracle(self, tmp_path):
        lam = np.array([4.0, 2.5, 1.5, 0.5])
        assert run(tmp_path, "geometry", "--lambda", "4,2.5,1.5,0.5", "--check-fd") == 0
        _, rows = read_rows(tmp_path / "geometry.csv")
        curv = [r for r in rows if r["kind"] == "curvature"]
        assert len(curv) == 6 * 4
        base = Spectrum(lam, np.eye(4))
        for r in curv:
            pair = (int(r["s"]) - 1, int(r["t"]) - 1)
            want = curvature_oracle_A(base, pair, pair, int(r["a"]) - 1)
            assert float(r["oracle"]) == want

    def test_check_fd_rerun_identical_bytes(self, tmp_path, capsys):
        argv = ["geometry", "--lambda", "6,5,4,3,2,1", "--check-fd"]
        assert run(tmp_path / "a", *argv) == 0
        assert run(tmp_path / "b", *argv) == 0
        assert "warning" not in capsys.readouterr().err
        first, second = (tmp_path / d / "geometry.csv" for d in ("a", "b"))
        assert first.read_bytes() == second.read_bytes()

    def test_tied_eigenvalues_exit_2(self, tmp_path):
        assert run(tmp_path, "geometry", "--lambda", "1,1") == 2

    @pytest.mark.parametrize("text", ["", ",", "1,", "a,1"])
    def test_unparseable_lambda_exit_2(self, tmp_path, capsys, text):
        # float("") refuses every empty field, so no list comes back empty.
        assert run(tmp_path, "geometry", "--lambda", text) == 2
        assert "cannot parse --lambda" in capsys.readouterr().err

    def test_manifest_written(self, tmp_path):
        run(tmp_path, "geometry", "--lambda", "3,1")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "geometry"
        assert manifest["outputs"] == ["geometry.csv"]
        assert "library_version" in manifest
        env = manifest["environment"]
        assert env["numpy"] == np.__version__ and env["workers"] == cli.worker_count()
        assert {"blas", "blas_version"} <= env.keys()

    def test_manifest_without_blas_report(self, tmp_path, monkeypatch):
        # numpy before 1.26: show_config() takes no mode and prints instead.
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert run(tmp_path, "geometry", "--lambda", "3,1") == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["blas"] is None and env["blas_version"] is None
        assert env["numpy"] == np.__version__ and env["workers"] == cli.worker_count()

    def test_malformed_thread_cap_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EIGENGEO_THREADS", "0")
        assert run(tmp_path, "geometry", "--lambda", "3,1") == 2
        assert not (tmp_path / "geometry.csv").exists()


def test_fmt_is_the_isinstance_chain():
    def old_fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (float, np.floating)):
            return f"{float(x):.17g}"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return str(x)

    floats = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
              123456789.123456789, float("inf"), float("-inf"), float("nan")]
    values = [*floats, *map(np.float64, floats), np.float32(0.1), np.float16(-3.5),
              np.longdouble(0.1), 0, -7, 2**70, np.int64(-3), np.uint8(200), True, False,
              np.True_, np.False_, "", "metric_eigen", "1.5"]
    for v in values:
        assert cli._fmt(v) == old_fmt(v), repr(v)


class TestInfoLossCommand:
    def test_loss_matrix_values(self, tmp_path):
        assert run(tmp_path, "info-loss", "--lambda", "2,1") == 0
        _, rows = read_rows(tmp_path / "info_loss.csv")
        loss = {(r["a"], r["b"]): float(r["value"]) for r in rows if r["kind"] == "loss"}
        assert loss[("1", "1")] == 0.125
        assert loss[("1", "2")] == -0.5
        assert loss[("2", "2")] == 2.0

    def test_info_with_n(self, tmp_path):
        assert run(tmp_path, "info-loss", "--lambda", "2,1", "--n", "100") == 0
        _, rows = read_rows(tmp_path / "info_loss.csv")
        info = {(r["a"], r["b"]): r for r in rows if r["kind"] == "info"}
        assert float(info[("1", "1")]["value"]) == 12.375
        assert info[("1", "1")]["non_pd"] == "false"

    def test_breakdown_flagged(self, tmp_path):
        assert run(tmp_path, "info-loss", "--lambda", "1,0.99", "--n", "10") == 0
        _, rows = read_rows(tmp_path / "info_loss.csv")
        info_rows = [r for r in rows if r["kind"] == "info"]
        assert all(r["non_pd"] == "true" for r in info_rows)


class TestEstimateCommand:
    def test_lbar_row(self, tmp_path):
        path = write_matrix(tmp_path, "S.txt", np.diag([4.0, 2.0]))
        assert run(tmp_path, "estimate", "--input", path, "--n", "2",
                   "--method", "lbar") == 0
        _, rows = read_rows(tmp_path / "estimate.csv")
        assert float(rows[0]["value_1"]) == 2.0
        assert float(rows[0]["value_2"]) == 1.0

    def test_star_trace_identity(self, tmp_path):
        path = write_matrix(tmp_path, "S.txt", np.array([[5.0, 1.0], [1.0, 2.0]]))
        assert run(tmp_path, "estimate", "--input", path, "--n", "10",
                   "--method", "star", "--ensemble", "equidistant:50") == 0
        _, rows = read_rows(tmp_path / "estimate.csv")
        total = float(rows[0]["value_1"]) + float(rows[0]["value_2"])
        assert abs(total - 7.0 / 10.0) < 1e-10

    def test_star_default_is_exact_at_p2(self, tmp_path):
        path = write_matrix(tmp_path, "S.txt", np.array([[5.0, 1.0], [1.0, 2.0]]))
        assert run(tmp_path, "estimate", "--input", path, "--n", "10", "--method", "star") == 0
        _, rows = read_rows(tmp_path / "estimate.csv")
        assert (rows[0]["ensemble_kind"], rows[0]["ensemble_size"]) == ("exact-o2", "0")

    @pytest.mark.parametrize(
        "S, ensemble, want",
        [
            (np.array([[5.0, 1.0], [1.0, 2.0]]), "equidistant:13", ("equidistant-o2", "13")),
            (np.diag([3.0, 2.0, 1.0]), "haar:40", ("haar-mc", "40")),
        ],
    )
    def test_star_row_names_its_ensemble(self, tmp_path, S, ensemble, want):
        path = write_matrix(tmp_path, "S.txt", S)
        assert run(tmp_path, "estimate", "--input", path, "--n", "10", "--method", "lbar",
                   "--method", "star", "--ensemble", ensemble) == 0
        _, rows = read_rows(tmp_path / "estimate.csv")
        assert [(r["ensemble_kind"], r["ensemble_size"]) for r in rows] == [("", ""), want]

    def test_gamma_frame_identity(self, tmp_path):
        path = write_matrix(tmp_path, "S.txt", np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert run(tmp_path, "estimate", "--input", path, "--n", "2",
                   "--method", "gamma-frame", "--gamma", "identity") == 0
        _, rows = read_rows(tmp_path / "estimate.csv")
        assert float(rows[0]["value_1"]) == 1.0

    def test_gamma_frame_rotation_file(self, tmp_path):
        S = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])
        c, s = np.cos(0.4), np.sin(0.4)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
            [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        )
        path = write_matrix(tmp_path, "S.txt", S)
        frame = write_matrix(tmp_path, "R.txt", R)
        assert run(tmp_path, "estimate", "--input", path, "--n", "4",
                   "--method", "gamma-frame", "--gamma", frame) == 0
        _, rows = read_rows(tmp_path / "estimate.csv")
        got = [float(rows[0][f"value_{i}"]) for i in (1, 2, 3)]
        np.testing.assert_allclose(got, np.diag(R.T @ S @ R) / 4, rtol=1e-14)

    @pytest.mark.parametrize(
        "frame",
        # The fourth is off by 2e-9: refused at ORTHOGONALITY_TOLERANCE (1e-10).
        # The last two make inf * 0 and an overflow in F^T F, refused without
        # a RuntimeWarning.
        [np.eye(3), np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([[0.0, -1.0], [1.0, 0.0]]) * 1.001,
         np.eye(2) * (1.0 + 1e-9), np.diag([1.0, np.inf]), np.eye(2) * 1e200],
    )
    def test_gamma_frame_bad_file_exit_2(self, tmp_path, frame):
        path = write_matrix(tmp_path, "S.txt", np.diag([2.0, 1.0]))
        gamma = write_matrix(tmp_path, "G.txt", frame)
        assert run(tmp_path, "estimate", "--input", path, "--n", "4",
                   "--method", "gamma-frame", "--gamma", gamma) == 2
        assert not (tmp_path / "estimate.csv").exists()

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 2 3\n")
        assert run(tmp_path, "estimate", "--input", str(bad), "--n", "5",
                   "--method", "lbar") == 2

    def test_estimator_error_exit_3(self, tmp_path):
        # Tied sample eigenvalues break the frame-averaged estimator.
        path = write_matrix(tmp_path, "S.txt", np.eye(2))
        assert run(tmp_path, "estimate", "--input", path, "--n", "2",
                   "--method", "star") == 3

    @pytest.mark.parametrize("frame", [False, True])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_matrix_exit_2(self, tmp_path, bad, frame):
        bad_file = tmp_path / "bad.txt"
        bad_file.write_text(f"2\n1 {bad}\n{bad} 1\n")
        good = write_matrix(tmp_path, "S.txt", np.diag([2.0, 1.0]))
        args = ("--input", good, "--method", "gamma-frame", "--gamma", str(bad_file)) if frame else (
            "--input", str(bad_file), "--method", "lbar")
        assert run(tmp_path, "estimate", "--n", "10", *args) == 2
        assert not (tmp_path / "estimate.csv").exists()

    def test_read_matrix_asymmetry_rejected(self, tmp_path):
        path = tmp_path / "asym.txt"
        path.write_text("2\n1.0 0.5\n0.4 1.0\n")
        with pytest.raises(CliInputError):
            read_matrix(str(path))

    def test_read_matrix_symmetry_is_relative(self, tmp_path):
        # Asymmetry 0.1 is 3e-10 of the largest entry: SpdMatrix's policy
        # accepts it, as the command does.
        m = np.array([[3e8, 1e8 + 0.1], [1e8, 2e8]])
        path = write_matrix(tmp_path, "S.txt", m)
        assert np.array_equal(read_matrix(path).matrix, SpdMatrix(m).matrix)
        assert run(tmp_path, "estimate", "--input", path, "--n", "10", "--method", "lbar") == 0


class TestExperimentCommand:
    def test_bias_report(self, tmp_path):
        assert run(tmp_path, "experiment", "bias", "--p", "2", "--n", "10",
                   "--reps", "5000", "--seed", "1") == 0
        _, rows = read_rows(tmp_path / "bias.csv")
        assert len(rows) == 2
        assert rows[0]["holds_3sigma"] == "true"

    def test_fig6_rerun_identical_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "fig6", "--reps", "200", "--seed", "5",
                     "--out", str(d1)]) == 0
        assert main(["experiment", "fig6", "--reps", "200", "--seed", "5",
                     "--out", str(d2)]) == 0
        assert (d1 / "fig6.csv").read_bytes() == (d2 / "fig6.csv").read_bytes()

    def test_cached_parser_keeps_no_state_between_calls(self, tmp_path):
        # The parser is built once per process; a second call without
        # --seed runs at the default seed 0 and writes a fresh process's bytes.
        assert cli.build_parser() is cli.build_parser()
        dirs = [tmp_path / name for name in ("seed3", "default", "seed0", "fresh")]
        assert main(["experiment", "fig4", "--reps", "20", "--seed", "3", "--out", str(dirs[0])]) == 0
        assert main(["experiment", "fig4", "--reps", "20", "--out", str(dirs[1])]) == 0
        assert main(["experiment", "fig4", "--reps", "20", "--seed", "0", "--out", str(dirs[2])]) == 0
        manifest = json.loads((dirs[1] / "manifest.json").read_text())
        assert manifest["seed"] is None and "seed" not in manifest["config"]
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        fresh = subprocess.run(
            [sys.executable, "-m", "eigengeo.cli", "experiment", "fig4", "--reps", "20", "--out", str(dirs[3])],
            env=env, capture_output=True, timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
        seed3, default, seed0, fresh_bytes = ((d / "fig4.csv").read_bytes() for d in dirs)
        assert default == seed0 == fresh_bytes
        assert default != seed3

    def test_fig4_seventeen_digit_numbers(self, tmp_path):
        assert run(tmp_path, "experiment", "fig4", "--reps", "200", "--seed", "5") == 0
        _, rows = read_rows(tmp_path / "fig4.csv")
        assert len(rows) == 50
        value = rows[0]["risk_lbar"]
        assert float(value) > 0

    def test_plot_script_emitted(self, tmp_path):
        assert run(tmp_path, "experiment", "fig6", "--reps", "200", "--seed", "5",
                   "--plot") == 0
        script = (tmp_path / "fig6.plot").read_text()
        assert "plot 'fig6.csv'" in script
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "fig6.plot" in manifest["outputs"]

    def test_fig5_runs(self, tmp_path):
        assert run(tmp_path, "experiment", "fig5", "--reps", "200", "--seed", "5") == 0
        _, rows = read_rows(tmp_path / "fig5.csv")
        assert len(rows) == 26
        assert float(rows[0]["theta"]) == 0.0

    def test_fig3_power_and_calibration_csvs(self, tmp_path):
        assert run(tmp_path, "experiment", "fig3", "--reps", "1000", "--seed", "5",
                   "--theta-count", "2") == 0
        _, rows = read_rows(tmp_path / "fig3_power.csv")
        assert len(rows) == 2
        assert {"power_full", "power_eigen"} <= set(rows[0])
        _, calib = read_rows(tmp_path / "fig3_calibration.csv")
        kinds = {r["kind"] for r in calib}
        assert kinds == {"full-lrt", "eigen-lrt"}
        for r in calib:
            assert abs(float(r["size"]) - 0.05) < 0.03

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--reps", "0"],
            ["fig3", "--reps", "500"],
            ["fig6", "--ensemble", "equidistant:abc"],
            ["fig6", "--ensemble", "haar:10"],
            # Substream seeds outside [0, 2**64) would alias other seeds.
            ["fig4", "--seed", "-1"],
            ["fig6", "--seed", str(2**64)],
            ["bias", "--seed", "-1"],
        ],
    )
    def test_bad_arguments_exit_2(self, tmp_path, argv):
        assert run(tmp_path, "experiment", *argv) == 2

    def test_fig6_refuses_haar_before_building_it(self, tmp_path, monkeypatch):
        def never(*args):
            raise AssertionError("built the refused Haar ensemble")

        monkeypatch.setattr(cli, "haar_sample", never)
        assert run(tmp_path, "experiment", "fig6", "--reps", "5", "--ensemble", "haar:400000") == 2
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "2", "--n", "1"],
            ["--p", "0"],
            ["--reps", "0"],
            ["--reps", "1"],
        ],
    )
    def test_bias_explicit_values_validated(self, tmp_path, argv):
        # An explicit 0 is refused, not replaced by the default.
        assert run(tmp_path, "experiment", "bias", *argv) == 2
        assert not (tmp_path / "bias.csv").exists()

    def test_fig3_explicit_zero_n_refused(self, tmp_path):
        assert run(tmp_path, "experiment", "fig3", "--reps", "1000", "--n", "0") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--p", "3"],
            ["fig3", "--lambda", "2,1"],
            ["fig4", "--n", "3"],
            ["fig4", "--p", "7"],
            ["fig4", "--pl"],
            ["fig4", "--alpha", "0.9"],
            ["fig4", "--theta-count", "3"],
            ["fig4", "--ensemble", "equidistant:50"],
            ["fig5", "--n", "3"],
            ["fig5", "--lambda", "1,0.8"],
            ["fig5", "--alpha", "0.9"],
            ["fig6", "--p", "2"],
            ["fig6", "--theta-count", "3"],
            ["bias", "--alpha", "0.1"],
            ["bias", "--theta-count", "3"],
            ["bias", "--ensemble", "haar:10"],
            ["bias", "--paper-scale"],
            ["bias", "--plot"],
        ],
    )
    def test_unused_flags_exit_2(self, tmp_path, argv, capsys):
        # The experiment's parser does not hold the flag, so argparse refuses
        # it as unknown, a prefix of its flags (--p, --pl) included.
        with pytest.raises(SystemExit) as exit_info:
            run(tmp_path, "experiment", *argv, "--reps", "1000")
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert re.search(rf"error: unrecognized arguments: {argv[1]}\s", err), err
        assert not list(tmp_path.glob("*.csv"))

    def test_unused_flag_process_exit_status_2(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "eigengeo.cli", "experiment", "fig4", "--alpha", "0.9", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --alpha 0.9" in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    # README's list of the flags each experiment uses.
    FLAGS = {
        "fig3": "--reps --seed --n --alpha --theta-count --ensemble --paper-scale --plot",
        "fig4": "--reps --seed --paper-scale --plot",
        "fig5": "--reps --seed --paper-scale --plot",
        "fig6": "--reps --seed --ensemble --paper-scale --plot",
        "bias": "--reps --seed --p --n --lambda",
    }

    @pytest.mark.parametrize("name", FLAGS)
    def test_help_lists_exactly_the_experiments_flags(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", name, "--help"])
        assert exit_info.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
        assert listed == ["--help", *self.FLAGS[name].split(), "--out"]

    @pytest.mark.parametrize("alpha", ["1.0", "0", "-0.5"])
    def test_fig3_alpha_outside_unit_interval_exit_2(self, tmp_path, alpha):
        assert run(tmp_path, "experiment", "fig3", "--reps", "1000", "--theta-count", "2",
                   "--alpha", alpha) == 2
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--reps", "1000"],
            ["fig3", "--theta-count", "3"],
            ["fig4", "--reps", "5"],
            ["fig5", "--reps", "5"],
            ["fig6", "--reps", "5"],
        ],
    )
    def test_paper_scale_with_counts_exit_2(self, tmp_path, argv, capsys):
        assert run(tmp_path, "experiment", *argv, "--paper-scale") == 2
        assert "--paper-scale" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "name, runner, reps",
        [
            ("fig3", "figure3_experiment", 100_000),
            ("fig4", "figure4_experiment", 100_000),
            ("fig5", "figure5_experiment", 100_000),
            ("fig6", "figure6_experiment", 10_000),
        ],
    )
    def test_paper_scale_counts(self, tmp_path, monkeypatch, name, runner, reps):
        seen = {}

        def stop(*args, **kwargs):
            seen.update(kwargs, cfg=args[0] if args else None)
            raise CliInputError("stopped before running")

        monkeypatch.setattr(cli, runner, stop)
        assert run(tmp_path, "experiment", name, "--paper-scale") == 2
        if name == "fig3":
            assert (seen["reps"], seen["theta_count"]) == (reps, 51)
        else:
            assert seen["reps"] == reps

    def test_fig3_at_n4_certifies_knee_rows(self, tmp_path):
        # At n = 4 the EM map's root at the knee rho = sqrt(2/n) is 5-fold,
        # and SQUAREM ran out of cycles on this stream (exit 3).
        argv = ["experiment", "fig3", "--n", "4", "--reps", "10000", "--theta-count", "3", "--seed", "0"]
        assert run(tmp_path, *argv) == 0

    def test_fig3_rerun_identical_bytes(self, tmp_path):
        argv = ["experiment", "fig3", "--reps", "1000", "--theta-count", "3", "--seed", "5"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(d1)]) == 0
        assert main([*argv, "--out", str(d2)]) == 0
        for name in ("fig3_power.csv", "fig3_calibration.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


WRITER_RUNS = {
    "geometry": ["geometry", "--lambda", "3,2,1"],
    "geometry-check-fd": ["geometry", "--lambda", "3,2,1", "--check-fd"],
    "info-loss": ["info-loss", "--lambda", "2,1", "--n", "50"],
    "estimate": ["estimate", "--input", "S.txt", "--n", "10", "--method", "lbar", "--method", "star"],
    "bias": ["experiment", "bias", "--reps", "200"],
    **{name + tag: ["experiment", name, "--reps", reps, *extra, *plot]
       for name, reps, extra in [("fig3", "1000", ["--theta-count", "2"]), ("fig4", "20", []),
                                 ("fig5", "20", []), ("fig6", "20", [])]
       for tag, plot in [("", []), ("-plot", ["--plot"])]},
}


@pytest.mark.parametrize("argv", WRITER_RUNS.values(), ids=WRITER_RUNS.keys())
def test_writer_prints_and_lists_every_output(tmp_path, capsys, argv):
    # One writer emits every file: the printed paths, in order, are the
    # manifest's outputs; --plot adds one script, after the CSVs, that
    # reads the first CSV.
    def outputs(out, argv):
        argv = [write_matrix(tmp_path, a, np.array([[5.0, 1.0], [1.0, 2.0]])) if a == "S.txt" else a
                for a in argv]
        assert main([*argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [os.path.basename(p) for p in printed]
        assert all((out / name).is_file() for name in manifest["outputs"])
        return manifest["outputs"]

    names = outputs(tmp_path / "run", argv)
    if "--plot" in argv:
        plain = outputs(tmp_path / "plain", [a for a in argv if a != "--plot"])
        assert names[:-1] == plain and names[-1].endswith(".plot")
        script = (tmp_path / "run" / names[-1]).read_text()
        assert f"plot '{names[0]}' using 1:" in script
    else:
        assert all(name.endswith(".csv") for name in names)
