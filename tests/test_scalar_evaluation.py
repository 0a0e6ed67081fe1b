"""A scalar is evaluated as an array of one.

Every public evaluation of a baseline, an EP intensity or a discrete
hazard must give a scalar point the bits that the same point gets inside
an array, so that the seeded simulators' scalar acceptance tests, their
array envelopes and the fitted likelihoods evaluate one function.  numpy
raises a lone numpy scalar with the C library's ``pow`` but an array with
its own SIMD ``pow`` where it has one (AVX-512 x86-64), and those differ
in the last bit at some points; on such a host the power-law, EP and dw2
cases below fail when a scalar takes the scalar path.  On a host without
a SIMD ``pow`` both paths call the C library and every case passes either
way.
"""

import numpy as np
import pytest

from aireliab.propagation import EPModel, ModuleEventLog, ep_intensity
from aireliab.recurrent import BaselineIntensityModel, baseline_intensity, cumulative_baseline
from aireliab.srgm import DiscreteHazard

POINTS = np.linspace(1.0, 700.0, 5000)

THETA = {
    "hpp": (0.3,),
    "power_law": (1.37, 40.0),
    "weibull_growth": (30.0, 0.02, 1.3),
    "gompertz": (25.0, 3.0, 0.01),
    "musa_okumoto": (20.0, 0.05),
}
HAZARDS = {
    "gm": (0.3,),
    "nb2": (0.3,),
    "dw2": (0.99,),
    "dw3": (0.6, 0.1),
    "s": (0.2, 0.97),
    "tl": (5.0, 10.0),
}
EP_MODEL = EPModel({"a": (1.37, 40.0)}, {})
EP_LOG = ModuleEventLog({"a": np.array([3.0, 250.0])}, 700.0, {})


def _cases():
    for family, theta in THETA.items():
        model = BaselineIntensityModel(family, theta)
        for function in (baseline_intensity, cumulative_baseline):
            yield pytest.param(lambda t, m=model, f=function: f(m, t),
                               id=f"{function.__name__}-{family}")
    yield pytest.param(lambda t: ep_intensity(EP_MODEL, EP_LOG, "a", t), id="ep_intensity")
    for family, params in HAZARDS.items():
        yield pytest.param(DiscreteHazard(family, params), id=f"hazard-{family}")


@pytest.mark.parametrize("evaluate", _cases())
def test_a_scalar_gets_the_bits_of_the_same_point_in_an_array(evaluate):
    in_array = evaluate(POINTS)
    alone = np.array([evaluate(t) for t in POINTS])
    assert all(type(evaluate(t)) is float for t in POINTS[:3])
    assert np.count_nonzero(alone != in_array) == 0
