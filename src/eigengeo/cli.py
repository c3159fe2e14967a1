"""Command-line surface: geometry reports, estimators, experiment runs.

Each command is a function of the parsed flags that returns its tables,
(file name, header, rows), and for an experiment with a figure a gnuplot
spec; it writes nothing.  One writer, ``_write_outputs``, turns them into
CSV files (numbers at 17 significant digits, so equal doubles give equal
bytes), the ``--plot`` script, and a ``manifest.json`` echoing the command,
configuration, seed, library version, numpy and BLAS builds, worker count,
wall clock, and output paths.  Given the same seed and configuration, every
CSV byte is reproducible; the manifest records what to re-run.

Each experiment has its own parser holding only the flags it reads
(``eigengeo experiment NAME --help`` lists them); argparse refuses any
other flag with exit code 2 before anything runs.

Exit codes: 0 success, 2 input or domain error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__
from .errors import (
    EigengeoError,
    NearDegenerateSpectrum,
    NotPositiveDefinite,
    NotPositiveDefiniteWarning,
)
from .estimators import (
    ExactO2,
    OrthogonalEnsemble,
    default_ensemble,
    haar_sample,
    lambda_hat,
    lambda_star,
    lbar,
    o2_equidistant,
)
from .fisher_geometry import (
    FD_TOLERANCE,
    curvature_tensor_A,
    curvature_tensor_A_fd,
    metric_spectral,
    metric_spectral_fd,
    statistical_curvature,
)
from .hypothesis_tests import figure3_experiment
from .information_loss import info_carried_by_l, loss_first_order
from .spd_manifold import SpdMatrix, Spectrum, index_pairs
from .wishart_sim import (
    bias_majorization_check,
    figure4_experiment,
    figure5_experiment,
    figure6_experiment,
    worker_count,
)

SCHEMAS = {
    "geometry": "eigengeo/geometry v1",
    "info-loss": "eigengeo/info-loss v1",
    "estimate": "eigengeo/estimate v1",
    "fig3": "eigengeo/fig3 v1",
    "fig4": "eigengeo/risk-grid v1",
    "fig5": "eigengeo/risk-grid v1",
    "fig6": "eigengeo/risk-grid v1",
    "bias": "eigengeo/bias v1",
}


class CliInputError(Exception):
    """Bad flags or unreadable/malformed input files (exit code 2)."""


class CliNumericError(Exception):
    """A computation failed after inputs were accepted (exit code 3)."""


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_outputs(args, tables: list, plot, started: float, environment: dict) -> None:
    """The one writer of a run's files: each (file name, header, rows) table
    as a CSV, in order; then, with --plot, the gnuplot script of ``plot``
    (file name, x label, (column, title) pairs), which reads the first
    table; then ``manifest.json``.  Prints each path but the manifest's."""
    texts = [(name, "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]))
             for name, header, rows in tables]
    if plot is not None and args.plot:
        name, xlabel, columns = plot
        curves = ", ".join(f"'{tables[0][0]}' using 1:{col} with lines title '{title}'" for col, title in columns)
        texts.append((name, f"set datafile separator ','\nset key outside\nset xlabel '{xlabel}'\n"
                            f"set ylabel 'value'\nplot {curves}\n"))
    outputs = [os.path.join(args.out, name) for name, _ in texts]
    for path, (_, text) in zip(outputs, texts):
        with open(path, "w", newline="") as fh:
            fh.write(text)
    command = args.name if args.command == "experiment" else args.command
    manifest = {
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k != "command" and v is not None},
        "seed": getattr(args, "seed", None),
        "library_version": __version__,
        "environment": environment,
        "wall_clock_seconds": round(time.time() - started, 3),
        "outputs": [os.path.basename(p) for p in outputs],
        "csv_schemas": {os.path.basename(p): SCHEMAS.get(command, "v1") for p in outputs if p.endswith(".csv")},
    }
    fd, tmp = tempfile.mkstemp(dir=args.out, suffix=".manifest")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, os.path.join(args.out, "manifest.json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    for path in outputs:
        print(path)


def _environment() -> dict:
    """numpy, its BLAS (GEMM and GEMV round by kernel; None where numpy does
    not report it: show_config has no ``mode`` before 1.26) and the worker cap."""
    env = {"numpy": np.__version__, "blas": None, "blas_version": None, "workers": worker_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env.update(blas=blas.get("name"), blas_version=blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    return env


def _parse_lambda(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise CliInputError(f"cannot parse --lambda {text!r}: {exc}") from None


def _parse_ensemble(text: str | None, p: int, seed: int) -> OrthogonalEnsemble | ExactO2:
    if text is None:
        return default_ensemble(p, rng=seed)
    kind, _, size = text.partition(":")
    try:
        count = int(size)
    except ValueError:
        raise CliInputError(f"--ensemble needs kind:count, got {text!r}") from None
    if kind == "equidistant":
        if p != 2:
            raise CliInputError("equidistant ensembles are only defined for p=2")
        return o2_equidistant(count)
    if kind == "haar":
        return haar_sample(p, count, seed)
    raise CliInputError(f"unknown ensemble kind {kind!r} (use equidistant:K or haar:m)")


def _read_square(path: str) -> np.ndarray:
    """Plain-text matrix: first line p, then p rows of p values."""
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    if not tokens:
        raise CliInputError(f"{path} is empty")
    try:
        p = int(tokens[0])
        values = [float(v) for v in tokens[1:]]
    except ValueError as exc:
        raise CliInputError(f"malformed matrix file {path}: {exc}") from None
    if len(values) != p * p:
        raise CliInputError(
            f"matrix file {path} declares p={p} but holds {len(values)} values"
        )
    return np.array(values).reshape(p, p)


def read_matrix(path: str) -> SpdMatrix:
    """An SPD ``_read_square`` matrix, under ``SpdMatrix``'s policy:
    symmetrized, and refused (an input error) beyond its relative symmetry
    tolerance or when not positive definite."""
    try:
        return SpdMatrix(_read_square(path))
    except EigengeoError as exc:
        raise CliInputError(f"matrix in {path}: {exc}") from None


def cmd_geometry(args):
    lam = _parse_lambda(args.lam)
    p = lam.size
    metric, tensor = metric_spectral(lam), curvature_tensor_A(lam)
    pairs = [(s + 1, t + 1) for s, t in index_pairs(p)]
    keys = ([["metric_eigen", a + 1, "", "", "", ""] for a in range(p)]
            + [["metric_pair", "", s, t, "", ""] for s, t in pairs]
            + [["curvature", a + 1, s, t, s, t] for s, t in pairs for a in range(p)])
    values = [*metric.eigen_diag, *metric.pair_diag, *tensor.slabs.ravel()]
    rows = [key + [value] for key, value in zip(keys, values)]
    rows.append(["statistical_curvature", "", "", "", "", "", statistical_curvature(lam)])
    header = ["kind", "a", "s", "t", "u", "v", "value"]
    if args.check_fd:
        # Every row but the statistical curvature has an oracle, in row order.
        base = Spectrum(lam, np.eye(p))
        metric_fd = metric_spectral_fd(base)
        oracles = [*metric_fd.eigen_diag, *metric_fd.pair_diag, *curvature_tensor_A_fd(base).slabs.ravel()]
        devs = [abs(value - oracle) for value, oracle in zip(values, oracles)]
        header += ["oracle", "abs_dev"]
        cells = [[oracle, dev] for oracle, dev in zip(oracles, devs)] + [["", ""]]
        rows = [row + extra for row, extra in zip(rows, cells)]
        rows.append(["fd_max_abs_deviation", "", "", "", "", "", max(devs), "", ""])
        worst = max(dev / max(1.0, abs(value)) for dev, value in zip(devs, values))
        if worst > FD_TOLERANCE:
            print(f"warning: a finite-difference oracle deviates from its closed form by "
                  f"{worst:.3e} relative, above FD_TOLERANCE {FD_TOLERANCE:g}", file=sys.stderr)
    return [("geometry.csv", header, rows)], None


def cmd_info_loss(args):
    lam = _parse_lambda(args.lam)
    cells = [(a + 1, b + 1) for a in range(lam.size) for b in range(lam.size)]
    rows = [["loss", a, b, value, ""] for (a, b), value in zip(cells, loss_first_order(lam).B.ravel())]
    if args.n is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NotPositiveDefiniteWarning)
            info = info_carried_by_l(lam, args.n)
        non_pd = any(issubclass(w.category, NotPositiveDefiniteWarning) for w in caught)
        rows += [["info", a, b, value, non_pd] for (a, b), value in zip(cells, info.ravel())]
    return [("info_loss.csv", ["kind", "a", "b", "value", "non_pd"], rows)], None


def cmd_estimate(args):
    S = read_matrix(args.input)
    rows = []
    p = S.dim
    for method in args.method:
        ens_cells = ["", ""]
        try:
            if method == "lbar":
                est = lbar(S, args.n)
            elif method == "gamma-frame":
                gamma = np.eye(p) if args.gamma == "identity" else _read_square(args.gamma)
                if gamma.shape != (p, p):
                    raise CliInputError(f"--gamma frame is {len(gamma)}x{len(gamma)}, input is {p}x{p}")
                est = lambda_hat(S, args.n, gamma)
            else:
                ens = _parse_ensemble(args.ensemble, p, args.seed)
                ens_cells = [ens.kind, ens.size]
                est = lambda_star(S, args.n, ens)
        except EigengeoError as exc:
            raise CliNumericError(f"{method}: {exc}") from exc
        rows.append([method, *ens_cells, *est.values])
    header = ["method", "ensemble_kind", "ensemble_size"] + [f"value_{i + 1}" for i in range(p)]
    return [("estimate.csv", header, rows)], None


def _risk_report_rows(report) -> tuple[list[str], list[list]]:
    header = [report.param_name]
    for tag in report.methods:
        header += [f"risk_{tag}", f"stderr_{tag}", f"reps_{tag}", f"failures_{tag}"]
    t1, t2 = report.methods
    header += [f"diff_{t1}_minus_{t2}", "diff_stderr"]
    rows = []
    for i, value in enumerate(report.param_values):
        row = [value]
        for tag in report.methods:
            r = report.risks[tag][i]
            row += [r.mean, r.stderr, r.reps, r.failures]
        row += [report.diff[i].mean, report.diff[i].stderr]
        rows.append(row)
    return header, rows


def cmd_experiment(args):
    name = args.name
    # Every key but the writer's is a flag the experiment's parser holds and
    # was given, so each experiment's own defaults apply (an explicit 0 is
    # passed on and validated, not replaced).
    given = {k: v for k, v in vars(args).items() if k not in ("command", "name", "out", "plot", "paper_scale")}
    if name == "bias":
        p = given.pop("p", 2)
        if p < 1:
            raise CliInputError(f"--p must be >= 1, got {p}")
        lam = _parse_lambda(given.pop("lam")) if "lam" in given else np.ones(p)
        if lam.size != p:
            raise CliInputError(f"--lambda has {lam.size} entries but --p is {p}")
        report = bias_majorization_check(np.diag(lam), **given)
        header = ["j", "mean_partial_sum", "target_partial_sum", "margin",
                  "stderr", "holds_3sigma", "trace_max_rel_dev"]
        rows = [
            [j + 1, report.mean_partial_sums[j], report.target_partial_sums[j],
             report.margins[j], report.stderrs[j], report.holds_3sigma[j],
             report.trace_max_rel_dev]
            for j in range(lam.size)
        ]
        return [("bias.csv", header, rows)], None
    if args.paper_scale:
        if "reps" in given or "theta_count" in given:
            raise CliInputError("--paper-scale cannot be combined with --reps or --theta-count")
        # The paper's counts (the manifest records them as --reps), and fig3's full fan.
        args.reps = given["reps"] = {"fig3": 100_000, "fig4": 100_000, "fig5": 100_000, "fig6": 10_000}[name]
        if name == "fig3":
            given["theta_count"] = 51
    if "ensemble" in given:
        # Refuse fig6's other kinds from the flag text, before anything is built.
        if name == "fig6" and given["ensemble"].partition(":")[0] != "equidistant":
            raise CliInputError("fig6 takes only --ensemble equidistant:K")
        # Haar nodes are drawn from the run's seed (0 when none is given).
        given["ensemble"] = _parse_ensemble(given["ensemble"], 2, given.get("seed", 0))
    if name == "fig3":
        study = figure3_experiment(**given)
        header = ["theta", "lambda_1", "lambda_2", "power_full", "stderr_full",
                  "power_eigen", "stderr_eigen", "reps"]
        rows = [
            [study.thetas[i], study.alternatives[i, 0], study.alternatives[i, 1],
             study.power_full[i], study.stderr_full[i],
             study.power_eigen[i], study.stderr_eigen[i], study.reps]
            for i in range(study.thetas.size)
        ]
        calibration = [
            ["full-lrt", study.alpha, study.cv_full.threshold, study.cv_full.calib_reps,
             study.size_full, study.size_full_stderr],
            ["eigen-lrt", study.alpha, study.cv_eigen.threshold, study.cv_eigen.calib_reps,
             study.size_eigen, study.size_eigen_stderr],
        ]
        tables = [("fig3_power.csv", header, rows),
                  ("fig3_calibration.csv", ["kind", "alpha", "threshold", "calib_reps", "size", "size_stderr"],
                   calibration)]
        return tables, ("fig3.plot", "theta", [(4, "power full"), (6, "power eigen")])
    runner = {"fig4": figure4_experiment, "fig5": figure5_experiment, "fig6": figure6_experiment}[name]
    report = runner(**given)
    header, rows = _risk_report_rows(report)
    columns = [(2, f"risk {report.methods[0]}"), (6, f"risk {report.methods[1]}")]
    return [(f"{name}.csv", header, rows)], (f"{name}.plot", report.param_name, columns)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (each ``parse_args``
    returns a fresh namespace, so no state carries between calls)."""
    parser = argparse.ArgumentParser(
        prog="eigengeo",
        allow_abbrev=False,
        description="Fisher geometry of Gaussian covariance spectra: reports and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"eigengeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    geo = sub.add_parser("geometry", allow_abbrev=False,
                         help="metric, curvature, and scalar curvature for given eigenvalues")
    geo.add_argument("--lambda", dest="lam", required=True,
                     help="comma-separated eigenvalues, strictly descending")
    geo.add_argument("--check-fd", action="store_true",
                     help="add finite-difference oracle columns and the max deviation")
    geo.add_argument("--out", default=".", help="output directory")

    loss = sub.add_parser("info-loss", allow_abbrev=False,
                          help="leading information loss of the sample eigenvalues")
    loss.add_argument("--lambda", dest="lam", required=True)
    loss.add_argument("--n", type=int, default=None,
                      help="also report the first-order information carried by the eigenvalues")
    loss.add_argument("--out", default=".")

    est = sub.add_parser("estimate", allow_abbrev=False,
                         help="run eigenvalue estimators on a matrix file")
    est.add_argument("--input", required=True, help="matrix file: first line p, then p rows")
    est.add_argument("--n", type=int, required=True, help="number of observations behind the matrix")
    est.add_argument("--method", action="append", required=True,
                     choices=["lbar", "gamma-frame", "star"],
                     help="estimator (repeatable)")
    est.add_argument("--gamma", default="identity",
                     help="frame for gamma-frame: 'identity' or a matrix file")
    est.add_argument("--ensemble", default=None, help="equidistant:K or haar:m (star only; default exact at p=2)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", default=".")

    exp = sub.add_parser("experiment", allow_abbrev=False,
                         help="run a Monte-Carlo experiment and write CSV reports")
    runs = exp.add_subparsers(dest="name", required=True)
    # One parser per experiment, holding only the flags it reads: any other
    # is refused (exit 2), not ignored.  A flag not given stays out of the
    # namespace (SUPPRESS), so the experiment's own default applies.
    for name in ("fig3", "fig4", "fig5", "fig6", "bias"):
        run = runs.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        run.add_argument("--reps", type=int, help="replications")
        run.add_argument("--seed", type=int, help="replication seed (default 0)")
        if name == "bias":
            run.add_argument("--p", type=int, help="dimension (default 2)")
            run.add_argument("--n", type=int, help="observations per replication (default 10)")
            run.add_argument("--lambda", dest="lam", help="population eigenvalues (default all 1)")
        if name == "fig3":
            run.add_argument("--n", type=int, help="observations per replication (default 10)")
            run.add_argument("--alpha", type=float, help="test level (default 0.05)")
            run.add_argument("--theta-count", type=int,
                             help="thin the 51-angle fan to this many points (default 51)")
        if name in ("fig3", "fig6"):
            kinds = "equidistant:K or haar:m" if name == "fig3" else "equidistant:K"
            run.add_argument("--ensemble", help=f"{kinds} (default: exact at p=2)")
        if name != "bias":
            # Read as args.paper_scale and args.plot, so False when not given.
            run.add_argument("--paper-scale", action="store_true", default=False,
                             help="the paper's replication counts (slow; not with explicit counts)")
            run.add_argument("--plot", action="store_true", default=False, help="emit a gnuplot script")
        run.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    if hasattr(args, "out"):
        os.makedirs(args.out, exist_ok=True)
    handlers = {
        "geometry": cmd_geometry,
        "info-loss": cmd_info_loss,
        "estimate": cmd_estimate,
        "experiment": cmd_experiment,
    }
    try:
        environment = _environment()  # refuses a malformed EIGENGEO_THREADS up front
        tables, plot = handlers[args.command](args)
    except (CliNumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (CliInputError, ValueError, NearDegenerateSpectrum, NotPositiveDefinite) as exc:
        # ValueError: an argument outside the library's domain, e.g. too few
        # replications for calibration; the spectrum errors: domain
        # preconditions on user input, e.g. tied eigenvalues.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigengeoError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _write_outputs(args, tables, plot, started, environment)
    return 0


if __name__ == "__main__":
    sys.exit(main())
