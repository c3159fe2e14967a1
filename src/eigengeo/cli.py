"""Command-line surface: geometry reports, estimators, experiment runs.

Every command writes CSV files (numbers at 17 significant digits, so equal
doubles give equal bytes) plus a ``manifest.json`` echoing the command,
configuration, seed, library version, wall clock, and output paths.  Given
the same seed and configuration, every CSV byte is reproducible; the
manifest records what to re-run.

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
    curvature_oracle_A,
    curvature_tensor_A,
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
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(out_dir: str, command: str, config: dict, seed, outputs: list[str], started: float) -> str:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "library_version": __version__,
        "wall_clock_seconds": round(time.time() - started, 3),
        "outputs": [os.path.basename(p) for p in outputs],
        "csv_schemas": {os.path.basename(p): SCHEMAS.get(command, "v1") for p in outputs if p.endswith(".csv")},
    }
    path = os.path.join(out_dir, "manifest.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".manifest")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _parse_lambda(text: str) -> np.ndarray:
    try:
        lam = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise CliInputError(f"cannot parse --lambda {text!r}: {exc}") from None
    if lam.size < 1:
        raise CliInputError("--lambda needs at least one value")
    return lam


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
    if not np.isfinite(values).all():
        raise CliInputError(f"matrix file {path} holds non-finite values")
    return np.array(values).reshape(p, p)


def read_matrix(path: str) -> SpdMatrix:
    """An SPD ``_read_square`` matrix: symmetry is enforced by averaging with
    the transpose; asymmetry beyond 1e-9 is an input error."""
    m = _read_square(path)
    asym = np.abs(m - m.T).max()
    if asym >= 1e-9:
        raise CliInputError(f"matrix in {path} has asymmetry {asym:.3e} >= 1e-9")
    try:
        return SpdMatrix(0.5 * (m + m.T))
    except (NotPositiveDefinite, EigengeoError) as exc:
        raise CliInputError(f"matrix in {path}: {exc}") from None


def cmd_geometry(args) -> list[str]:
    lam = _parse_lambda(args.lam)
    check = args.check_fd
    metric = metric_spectral(lam)
    tensor = curvature_tensor_A(lam)
    gamma_a = statistical_curvature(lam)
    base = Spectrum(lam, np.eye(lam.size)) if check else None
    metric_fd = metric_spectral_fd(base) if check else None

    header = ["kind", "a", "s", "t", "u", "v", "value"]
    if check:
        header += ["oracle", "abs_dev"]
    rows = []
    devs = []

    def row(kind, a, s, t, u, v, value, oracle=None):
        r = [kind, a, s, t, u, v, value]
        if check:
            if oracle is None:
                r += ["", ""]
            else:
                dev = abs(value - oracle)
                devs.append(dev)
                r += [oracle, dev]
        rows.append(r)

    p = lam.size
    for a in range(p):
        row("metric_eigen", a + 1, "", "", "", "", metric.eigen_diag[a],
            metric_fd.eigen_diag[a] if check else None)
    for k, (s, t) in enumerate(index_pairs(p)):
        row("metric_pair", "", s + 1, t + 1, "", "", metric.pair_diag[k],
            metric_fd.pair_diag[k] if check else None)
    for k, (s, t) in enumerate(index_pairs(p)):
        oracles = curvature_oracle_A(base, (s, t), (s, t), range(p)) if check else [None] * p
        for a in range(p):
            row("curvature", a + 1, s + 1, t + 1, s + 1, t + 1,
                tensor.slabs[k, a], oracles[a])
    row("statistical_curvature", "", "", "", "", "", gamma_a)
    if check:
        rows.append(["fd_max_abs_deviation", "", "", "", "", "",
                     max(devs) if devs else 0.0, "", ""])

    out = os.path.join(args.out, "geometry.csv")
    _write_csv(out, header, rows)
    return [out]


def cmd_info_loss(args) -> list[str]:
    lam = _parse_lambda(args.lam)
    loss = loss_first_order(lam)
    header = ["kind", "a", "b", "value", "non_pd"]
    rows = []
    p = lam.size
    for a in range(p):
        for b in range(p):
            rows.append(["loss", a + 1, b + 1, loss.B[a, b], ""])
    if args.n is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NotPositiveDefiniteWarning)
            info = info_carried_by_l(lam, args.n)
        non_pd = any(issubclass(w.category, NotPositiveDefiniteWarning) for w in caught)
        for a in range(p):
            for b in range(p):
                rows.append(["info", a + 1, b + 1, info[a, b], non_pd])
    out = os.path.join(args.out, "info_loss.csv")
    _write_csv(out, header, rows)
    return [out]


def cmd_estimate(args) -> list[str]:
    S = read_matrix(args.input)
    rows = []
    p = S.dim
    for method in args.method:
        try:
            if method == "lbar":
                est = lbar(S, args.n)
            elif method == "gamma-frame":
                gamma = np.eye(p) if args.gamma == "identity" else _read_square(args.gamma)
                if gamma.shape != (p, p):
                    raise CliInputError(f"--gamma frame is {len(gamma)}x{len(gamma)}, input is {p}x{p}")
                if np.abs(gamma.T @ gamma - np.eye(p)).max() > 1e-8:
                    raise CliInputError("--gamma matrix is not orthogonal")
                est = lambda_hat(S, args.n, gamma)
            elif method == "star":
                ensemble = _parse_ensemble(args.ensemble, p, args.seed)
                est = lambda_star(S, args.n, ensemble)
            else:
                raise CliInputError(f"unknown method {method!r}")
        except EigengeoError as exc:
            raise CliNumericError(f"{method}: {exc}") from exc
        meta_kind = est.meta.get("ensemble_kind", "")
        meta_size = est.meta.get("ensemble_size", "")
        rows.append([method, meta_kind, meta_size] + list(est.values))
    header = ["method", "ensemble_kind", "ensemble_size"] + [
        f"value_{i + 1}" for i in range(p)
    ]
    out = os.path.join(args.out, "estimate.csv")
    _write_csv(out, header, rows)
    return [out]


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


def _plot_script(csv_name: str, xlabel: str, ycols: list[tuple[int, str]]) -> str:
    plots = ", ".join(
        f"'{csv_name}' using 1:{col} with lines title '{title}'" for col, title in ycols
    )
    return (
        "set datafile separator ','\n"
        "set key outside\n"
        f"set xlabel '{xlabel}'\n"
        "set ylabel 'value'\n"
        f"plot {plots}\n"
    )


def _given(value, default):
    """An optional flag's value, or the experiment's default when it is
    absent (an explicit 0 is passed on and validated, not replaced)."""
    return default if value is None else value


# The flags each experiment reads.  Any other experiment flag is refused
# (exit 2) rather than silently ignored.
EXPERIMENT_FLAGS = {
    "fig3": {"reps", "seed", "n", "alpha", "theta_count", "ensemble", "paper_scale", "plot"},
    "fig4": {"reps", "seed", "paper_scale", "plot"},
    "fig5": {"reps", "seed", "paper_scale", "plot"},
    "fig6": {"reps", "seed", "ensemble", "paper_scale", "plot"},
    "bias": {"reps", "seed", "p", "n", "lam"},
}


def _refuse_unused_flags(args) -> None:
    for dest, value in vars(args).items():
        if dest in ("command", "name", "out") or value is None or value is False:
            continue
        if dest not in EXPERIMENT_FLAGS[args.name]:
            flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            raise CliInputError(f"experiment {args.name} does not use {flag}")


def cmd_experiment(args) -> list[str]:
    name = args.name
    _refuse_unused_flags(args)
    if args.paper_scale:
        if args.reps is not None or args.theta_count is not None:
            raise CliInputError("--paper-scale cannot be combined with --reps or --theta-count")
        # The paper's counts; fig3's default fan already has its 51 angles.
        args.reps = {"fig3": 100_000, "fig4": 100_000, "fig5": 100_000, "fig6": 10_000}[name]
    outputs = []
    if name in ("fig4", "fig5", "fig6"):
        runners = {"fig4": figure4_experiment, "fig5": figure5_experiment, "fig6": figure6_experiment}
        kwargs = {"reps": args.reps, "seed": args.seed}
        if name == "fig6" and args.ensemble is not None:
            # Refuse other kinds from the flag text, before anything is built.
            if args.ensemble.partition(":")[0] != "equidistant":
                raise CliInputError("fig6 takes only --ensemble equidistant:K")
            kwargs["ensemble"] = _parse_ensemble(args.ensemble, 2, 0)
        report = runners[name](**{k: v for k, v in kwargs.items() if v is not None})
        header, rows = _risk_report_rows(report)
        out = os.path.join(args.out, f"{name}.csv")
        _write_csv(out, header, rows)
        outputs.append(out)
        if args.plot:
            yc = [(2, f"risk {report.methods[0]}"), (6, f"risk {report.methods[1]}")]
            plot = os.path.join(args.out, f"{name}.plot")
            with open(plot, "w") as fh:
                fh.write(_plot_script(f"{name}.csv", report.param_name, yc))
            outputs.append(plot)
    elif name == "fig3":
        seed = _given(args.seed, 0)
        ensemble = None
        if args.ensemble is not None:
            ensemble = _parse_ensemble(args.ensemble, 2, seed)
        study = figure3_experiment(
            reps=_given(args.reps, 10_000),
            seed=seed,
            alpha=_given(args.alpha, 0.05),
            n=_given(args.n, 10),
            theta_count=_given(args.theta_count, 51),
            ensemble=ensemble,
        )
        header = ["theta", "lambda_1", "lambda_2", "power_full", "stderr_full",
                  "power_eigen", "stderr_eigen", "reps"]
        rows = [
            [study.thetas[i], study.alternatives[i, 0], study.alternatives[i, 1],
             study.power_full[i], study.stderr_full[i],
             study.power_eigen[i], study.stderr_eigen[i], study.reps]
            for i in range(study.thetas.size)
        ]
        out = os.path.join(args.out, "fig3_power.csv")
        _write_csv(out, header, rows)
        outputs.append(out)
        calib = os.path.join(args.out, "fig3_calibration.csv")
        _write_csv(
            calib,
            ["kind", "alpha", "threshold", "calib_reps", "size", "size_stderr"],
            [
                ["full-lrt", study.alpha, study.cv_full.threshold, study.cv_full.calib_reps,
                 study.size_full, study.size_full_stderr],
                ["eigen-lrt", study.alpha, study.cv_eigen.threshold, study.cv_eigen.calib_reps,
                 study.size_eigen, study.size_eigen_stderr],
            ],
        )
        outputs.append(calib)
        if args.plot:
            plot = os.path.join(args.out, "fig3.plot")
            with open(plot, "w") as fh:
                fh.write(_plot_script("fig3_power.csv", "theta",
                                      [(4, "power full"), (6, "power eigen")]))
            outputs.append(plot)
    elif name == "bias":
        p = _given(args.p, 2)
        if p < 1:
            raise CliInputError(f"--p must be >= 1, got {p}")
        lam = _parse_lambda(args.lam) if args.lam else np.ones(p)
        if lam.size != p:
            raise CliInputError(f"--lambda has {lam.size} entries but --p is {p}")
        report = bias_majorization_check(
            np.diag(lam), _given(args.n, 10), _given(args.reps, 100_000), _given(args.seed, 0)
        )
        header = ["j", "mean_partial_sum", "target_partial_sum", "margin",
                  "stderr", "holds_3sigma", "trace_max_rel_dev"]
        rows = [
            [j + 1, report.mean_partial_sums[j], report.target_partial_sums[j],
             report.margins[j], report.stderrs[j], report.holds_3sigma[j],
             report.trace_max_rel_dev]
            for j in range(lam.size)
        ]
        out = os.path.join(args.out, "bias.csv")
        _write_csv(out, header, rows)
        outputs.append(out)
    else:
        raise CliInputError(f"unknown experiment {name!r}")
    return outputs


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (each ``parse_args``
    returns a fresh namespace, so no state carries between calls)."""
    parser = argparse.ArgumentParser(
        prog="eigengeo",
        description="Fisher geometry of Gaussian covariance spectra: reports and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"eigengeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    geo = sub.add_parser("geometry", help="metric, curvature, and scalar curvature for given eigenvalues")
    geo.add_argument("--lambda", dest="lam", required=True,
                     help="comma-separated eigenvalues, strictly descending")
    geo.add_argument("--check-fd", action="store_true",
                     help="add finite-difference oracle columns and the max deviation")
    geo.add_argument("--out", default=".", help="output directory")

    loss = sub.add_parser("info-loss", help="leading information loss of the sample eigenvalues")
    loss.add_argument("--lambda", dest="lam", required=True)
    loss.add_argument("--n", type=int, default=None,
                      help="also report the first-order information carried by the eigenvalues")
    loss.add_argument("--out", default=".")

    est = sub.add_parser("estimate", help="run eigenvalue estimators on a matrix file")
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

    exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment and write CSV reports")
    exp.add_argument("name", choices=["fig3", "fig4", "fig5", "fig6", "bias"])
    exp.add_argument("--reps", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--p", type=int, default=None)
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--lambda", dest="lam", default=None,
                     help="population eigenvalues for the bias experiment")
    exp.add_argument("--alpha", type=float, default=None, help="fig3: test level (default 0.05)")
    exp.add_argument("--theta-count", type=int, default=None,
                     help="fig3: thin the 51-angle fan to this many points (default 51)")
    exp.add_argument("--ensemble", default=None, help="equidistant:K or haar:m (default: exact at p=2)")
    exp.add_argument("--paper-scale", action="store_true",
                     help="the paper's replication counts (slow; not with --reps or --theta-count)")
    exp.add_argument("--plot", action="store_true", help="emit a gnuplot script")
    exp.add_argument("--out", default=".")
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
        outputs = handlers[args.command](args)
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
    config = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    _write_manifest(args.out, args.command if args.command != "experiment" else args.name,
                    config, getattr(args, "seed", None), outputs, started)
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
