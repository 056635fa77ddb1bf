"""The input guards of the package: each raises its own exception type and
message on an input that reaches it."""

import numpy as np
import pytest

from orlicz_korn import bogovskii, fields, hardy, laminate, rearrange, young
from orlicz_korn.fields import ConfigurationError, Grid, GridField
from orlicz_korn.young import DomainError

L2 = young.PowerYoung(2.0)
_PLANE = Grid.box(4, dim=2)
_SPACE = Grid.box(4, dim=3)


def _oblong():
    """A Bogovskii configuration on 4 x 4 cells of 1 x 2."""
    return bogovskii.BogovskiiConfig(Grid.box((4, 4), lengths=(1.0, 2.0), dim=2), (0.5, 1.0), 0.2)


_GUARDS = {
    "bogovskii-planar": (lambda: bogovskii.BogovskiiConfig(_SPACE, (0.5, 0.5, 0.5), 0.2),
                         DomainError, "the divergence solver is implemented for planar grids"),
    "bogovskii-square-cells": (lambda: bogovskii.apply(_oblong(), np.zeros((1, 4, 4))),
                               DomainError, "graded subdivision assumes square cells"),
    "bogovskii-zero-input": (lambda: bogovskii.norm_bound_ratio(
        bogovskii.make_config(8), L2, L2, np.zeros((8, 8)),
        GridField(bogovskii.make_config(8).grid, np.zeros((2, 9, 9)))), DomainError, "zero input"),
    "bogovskii-suite": (lambda: bogovskii.ratio_suite(bogovskii.make_config(8), L2, L2, "nope"),
                        DomainError, "unknown suite 'nope'"),
    "grid-lengths": (lambda: Grid((2, 2), (1.0,), (0.0, 0.0)),
                     DomainError, "extents, spacing, origin must share length"),
    "grid-spacing": (lambda: Grid((2, 2), (1.0, -1.0), (0.0, 0.0)),
                     DomainError, "need >= 2 cells per axis and positive spacing"),
    "kernel-mode": (lambda: fields.KernelBasis(_SPACE, "X"), DomainError, "mode must be 'R' or 'sigma'"),
    # rigid motions about a point 1e6 widths away are nearly translations
    "kernel-gram": (lambda: fields.project_kernel(GridField(
        Grid.box(2, lengths=1e-6, origin=(1.0,) * 3), np.zeros((3, 3, 3, 3))), "R"),
        ConfigurationError, "kernel basis Gram matrix ill-conditioned"),
    "korn-operator": (lambda: fields.korn_suite(L2, L2, "smooth", 4, 3, "zero_bc", "X", 1, 0),
                      DomainError, "operator must be 'E' or 'ED'"),
    "poincare-dim": (lambda: fields.poincare_ratio(L2, GridField(_PLANE, np.zeros((2, 5, 5)))),
                     DomainError, "the deviatoric Poincare ratio needs a 3-d grid"),
    "radial-profile": (lambda: fields.radial_test_field([1.0], _SPACE),
                       DomainError, "h must be a StepFunction on (0, omega_n)"),
    "radial-sign": (lambda: fields.radial_test_field(hardy.StepFunction([0.0, 1.0], [-1.0]), _SPACE),
                    DomainError, "h must be nonnegative"),
    "suite": (lambda: fields.korn_suite(L2, L2, "nope", 4, 3, "zero_bc", "E", 1, 0),
              DomainError, "unknown suite 'nope'"),
    "step-lengths": (lambda: hardy.StepFunction([0.0, 1.0], [1.0, 2.0]),
                     DomainError, "need len(edges) == len(values) + 1"),
    "step-edges": (lambda: hardy.StepFunction([1.0, 0.5], [1.0]),
                   DomainError, "edges must be nonnegative and increasing"),
    "laminate-m": (lambda: laminate.build_laminate(-1, 1.0), DomainError, "need m >= 0 and t > 0"),
    # A(t) = 1e-900 t^2 reaches 1/2 only past the float range
    "laminate-scale": (lambda: laminate.blowup_curve(young.ScaledYoung(1e300, L2, 1e-300), L2, 0, 1.0),
                       DomainError, "no finite scale solves the normalization at m=0"),
    "sampled-shape": (lambda: rearrange.SampledFunction([1.0, 2.0], [1.0]),
                      DomainError, "values and weights must be 1-d arrays of equal length"),
    "power-log-log": (lambda: young.PowerLogLogYoung(0.5, 1.0),
                      DomainError, "power_log_log kind needs p >= 1, alpha, gamma >= 0"),
    "exp-power": (lambda: young.ExpPowerYoung(-1.0), DomainError, "exp_power kind needs beta > 0"),
    # t_c fits the float range, the tangent point past it does not
    "exp-power-splice": (lambda: young.ExpPowerYoung(0.00699),
                         DomainError, "exp_power with beta = 0.00699 splices beyond float range"),
    "exp-log-power": (lambda: young.ExpLogPowerYoung(1.0, 1.0),
                      DomainError, "exp_log_power kind needs a > 0, beta > 1"),
    "tabulated-shape": (lambda: young.TabulatedYoung([1.0, 2.0], [1.0], 1.0),
                        DomainError, "breakpoints and slopes must be 1-d arrays of equal length"),
    # A(t) = 1e900 t^2 overflows from t = 1e-6 on
    "tabulate-overflow": (lambda: young.ConjugateYoung(young.ScaledYoung(1e-300, L2, 1e300)).value(1.0),
                          DomainError, "function overflows on the whole tabulation grid"),
}


@pytest.mark.parametrize("name", _GUARDS)
def test_each_guard_raises_its_type_and_message(name):
    build, error, message = _GUARDS[name]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value).startswith(message), str(info.value)


def test_bogovskii_solves_an_empty_stack_to_no_field():
    assert bogovskii.apply(bogovskii.make_config(8), np.zeros((0, 8, 8))) == []


def test_a_conjugate_reads_its_jump_point_off_its_table():
    # (2t)* is the indicator of [0, 2]
    C = young.from_json({"kind": "conjugate", "params": {"of": {"kind": "power", "params": {"p": 1, "coeff": 2}}}})
    assert C.jump_point == 2.0
