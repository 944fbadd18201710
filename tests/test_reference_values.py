"""Values of the one-grid quadrature against a stored reference set.

``reference_values.json`` holds, for each case below and both split
points, the value and the absolute scale (the sum of the absolute
contributions of the accepted level) that the two-level ladder of commit
8c162ab gave: it accepted an integral once levels 0 and 1 agreed, and
returned level 1.  The one-grid kernel returns level 0 wherever its
error estimate passes there, so each value must stay within 1e-13
relative, or within 1e-15 of its scale: a level's sum carries roundoff
of about that size, which dominates a coefficient that cancels to a
small fraction of its integrand (Yukawa-Coulomb E4 and E8 at A = 2.8
are 1/1100 and 1/3700 of their scales).  The odd ``landau_series`` rows
vanish identically; their integrands are roundoff of the series, so they
are measured against the largest scale of their stack.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import rectlat.critical as critical
from rectlat import derive_double_yukawa, derive_yukawa_coulomb, riesz, yukawa
from rectlat.energy import LatticeState, energy_gap, lattice_energy
from rectlat.expansion import e2_e4_closed, landau_series
from rectlat.quadrature import QuadratureConfig

REFERENCE = json.loads((Path(__file__).parent / "reference_values.json").read_text())

SPECS = {
    "dy98": (derive_double_yukawa(9.8, 2.0), 2.6),
    "dy443": (derive_double_yukawa(4.43, 2.0), 2.75),
    "yc": (derive_yukawa_coulomb(2.0365), 2.8),
}

CASES = {}
for _name, (_spec, _area) in SPECS.items():
    CASES[f"e2e4/{_name}"] = lambda q, s=_spec, a=_area: e2_e4_closed(s, a, q)
    CASES[f"landau/{_name}"] = lambda q, s=_spec, a=_area: landau_series(s, a, q)
    for _eps in (1e-3, 0.3, 1.2):
        CASES[f"gap/{_name}/{_eps}"] = lambda q, s=_spec, a=_area, e=_eps: energy_gap(s, a, e, q)
CASES["energy/dy98"] = lambda q: lattice_energy(SPECS["dy98"][0], LatticeState(2.6, 0.2), q)
CASES["energy/yukawa"] = lambda q: lattice_energy(yukawa(1.0), LatticeState(1.5, 0.4), q)
CASES["energy/riesz3"] = lambda q: lattice_energy(riesz(3.0), LatticeState(1.0, 0.3), q)
CASES["a_star_min_condition"] = lambda q: critical._a_star_min_condition(2.0, 1.1, q)

SPLITS = {"pi": math.pi, "2": 2.0}


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_values_match_the_stored_reference(name, split):
    stored = REFERENCE[split][name]
    got = np.atleast_1d(CASES[name](QuadratureConfig(split_point=SPLITS[split])))
    want = np.asarray(stored["value"])
    scale = np.asarray(stored["scale"])
    if name.startswith("landau/"):
        scale[1::2] = scale.max()
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-15 * scale)


def test_the_reference_set_covers_every_case():
    for split in SPLITS:
        assert sorted(REFERENCE[split]) == sorted(CASES)
