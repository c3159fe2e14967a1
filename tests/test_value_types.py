"""Every public value type is immutable after construction, down to its
arrays, including the arrays an ensemble caches on first use."""

import dataclasses
import inspect

import numpy as np

from eigengeo import (
    CriticalValue,
    NaturalCoords,
    SkewParams,
    bias_majorization_check,
    curvature_tensor_A,
    estimators,
    figure3_experiment,
    figure4_experiment,
    fisher_geometry,
    full_lrt_stat,
    haar_sample,
    hypothesis_tests,
    information_loss,
    kl_risk,
    lambda_star,
    lambda_star_from_eigs,
    lbar,
    loss_first_order,
    metric_spectral,
    power_curve,
    spd_manifold,
    tangent_lambda,
    to_natural,
    wishart_sim,
)
from eigengeo.estimators import ExactO2
from eigengeo.hypothesis_tests import FULL_LRT
from conftest import assert_read_only, random_spd, random_spectrum

MODULES = (estimators, fisher_geometry, hypothesis_tests, information_loss, spd_manifold, wishart_sim)


def public_value_types() -> set:
    """Every public dataclass defined in the library's modules."""
    return {
        cls
        for module in MODULES
        for name, cls in vars(module).items()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        and not name.startswith("_") and dataclasses.is_dataclass(cls)
    }


def test_every_public_value_type_is_read_only(rng):
    S = random_spd(rng, 3)
    ens = haar_sample(3, 64, 0)
    lambda_star_from_eigs([30.0, 20.0, 10.0], 10, ens)  # one step fills both caches
    lam = np.array([3.0, 2.0, 1.0])
    cv = CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT)
    values = [
        S,
        random_spectrum(rng, 3),
        SkewParams(3, [0.1, 0.2, 0.3]),
        to_natural(S),
        NaturalCoords(2, [1.0, 2.0, 3.0]),
        tangent_lambda(random_spectrum(rng, 3), 0),
        metric_spectral(lam),
        curvature_tensor_A(lam),
        loss_first_order(lam),
        lambda_star(S, 10, ens),
        ens,
        ExactO2(),
        full_lrt_stat(S, 10),
        cv,
        power_curve(FULL_LRT, [np.diag([2.0, 1.0])], cv, 10, 50, 0)[0],
        figure3_experiment(reps=1000, seed=2, theta_count=3),
        kl_risk(lbar, np.diag([2.0, 1.0]), 10, 20, 0),
        figure4_experiment(reps=20),
        bias_majorization_check(np.eye(2), 10, 100, 0),
    ]
    assert {type(v) for v in values} == public_value_types()
    assert all(type(v).__dataclass_params__.frozen for v in values)
    for value in values:
        assert_read_only(value)
    assert_read_only(ens.log_weights)
    assert_read_only(ens.squared_nodes)

