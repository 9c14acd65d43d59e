"""Value semantics of the public record classes.

The frozen ones compare and hash by value, survive a pickle round trip and
refuse assignment; every constructor takes its fields by position or by
keyword, with the same defaults, and refuses bad input with the same error
type and message.
"""

import math
import pickle

import pytest

from memcost.cli import OutputTable
from memcost.cost_engine import BoundConstants, CostPoint, RhoSolution, ThresholdReport
from memcost.deformed import PopulationSpectrum
from memcost.errors import DomainError, RegimeError
from memcost.spectra import MPLaw

# each frozen class: a builder of fresh instances with equal fields, an
# instance that differs in one field, and a field to assign to
FROZEN = {
    "MPLaw": (lambda: MPLaw(gamma=2.0), MPLaw(3.0), "gamma"),
    "PopulationSpectrum": (
        lambda: PopulationSpectrum(atoms=((0.5, 0.5), (1.0, 0.5))),
        PopulationSpectrum(((1.0, 0.5), (0.25, 0.5))),
        "atoms",
    ),
    "RhoSolution": (
        lambda: RhoSolution(delta=0.5, top=2.9, residual=0.0, target_eps2=0.1),
        RhoSolution(0.5, 2.9, 1e-17, 0.1),
        "delta",
    ),
    "CostPoint": (
        lambda: CostPoint(eps2=0.1, rho=0.2, cost=0.3, costbar=-0.1),
        CostPoint(0.1, 0.2, 0.3, 0.0),
        "cost",
    ),
    "ThresholdReport": (
        lambda: ThresholdReport(eps_sigma2=0.01, eps_sigma2_approx=0.02, eps_ols2=0.1, rho_ols=0.3),
        ThresholdReport(0.01, 0.02, 0.1, 0.3, 0.015, 0.02),
        "eps_def2",
    ),
    "BoundConstants": (
        lambda: BoundConstants(c_small=1.0, C_growth=0.5),
        BoundConstants(1.0, 0.5, 2.0),
        "kappa",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_is_a_value(name):
    make, other, field = FROZEN[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, field, 1.0)
    assert a == b


def test_constructors_keep_positions_and_defaults():
    assert MPLaw(2.0) == MPLaw(gamma=2.0)
    assert PopulationSpectrum(((1.0, 1.0),)) == PopulationSpectrum.isotropic()
    report = ThresholdReport(0.01, 0.02, 0.1, 0.3)
    assert report.eps_def2 is None and report.eps_def2_upper_bound is None
    assert BoundConstants(1.0, 0.5) == BoundConstants(c_small=1.0, C_growth=0.5, kappa=1.0)
    assert BoundConstants(1.0, 0.5).kappa == 1.0
    table = OutputTable(["a"], [(1.0,)])
    assert (table.header, table.rows, table.metadata) == (["a"], [(1.0,)], {})
    assert OutputTable(["a"], []).metadata is not table.metadata
    assert OutputTable(header=["a"], rows=[], metadata={"k": 1}).metadata == {"k": 1}


REFUSALS = [
    (lambda: MPLaw(1.0), RegimeError, "the overparameterized regime requires gamma > 1, got 1.0"),
    (lambda: MPLaw(gamma=math.inf), RegimeError, "the overparameterized regime requires gamma > 1, got inf"),
    (lambda: PopulationSpectrum(atoms=()), DomainError, "population spectrum needs at least one atom"),
    (
        lambda: PopulationSpectrum(atoms=((0.0, 1.0),)),
        DomainError,
        "atom values must be finite and positive, got [0.0]",
    ),
    (
        lambda: PopulationSpectrum(((1.0, -0.5),)),
        DomainError,
        "atom weights must be finite and positive, got [-0.5]",
    ),
    (
        lambda: PopulationSpectrum(atoms=((1.0, 0.5), (1e-320, 0.5))),
        DomainError,
        "the condition number 1/min(value) overflows for atom values [1.0, 1e-320]",
    ),
    (lambda: BoundConstants(c_small=0.0, C_growth=1.0), DomainError, "bound constants must be positive"),
    (lambda: BoundConstants(1.0, math.nan, 2.0), DomainError, "bound constants must be positive"),
    (
        lambda: OutputTable(header=["a", "b"], rows=[(1.0,)]),
        DomainError,
        "table rows must match the header length",
    ),
]


@pytest.mark.parametrize("index", range(len(REFUSALS)))
def test_constructor_refusals_keep_type_and_message(index):
    build, error, message = REFUSALS[index]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
