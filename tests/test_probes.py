import math

import numpy as np
import pytest

from boostvi.probes import (
    PROBE_GRID,
    chi_square_limit,
    curvature_probe_suite,
    entropy_bound_probe,
    gap_bound_probe,
    gaussian_pair_grid,
)
from boostvi import BaseDensity, Family, Mixture, QuadratureGrid

from oracles import CHI_SQUARE_LIMIT_01_11, gaussian_chi_square


class TestEntropyBoundProbe:
    def test_passes_with_valid_floor(self):
        results = entropy_bound_probe()
        assert all(r.passed for r in results)
        assert {r.name for r in results} == {
            "entropy-bound/gaussian", "entropy-bound/laplace"
        }


class TestCurvatureSuite:
    def test_pair_grid_has_nine_pairs(self):
        assert len(gaussian_pair_grid()) == 9

    def test_limits_for_unit_gaussians(self):
        s = BaseDensity(Family.GAUSSIAN, [0.0], [1.0])
        q = Mixture.single(BaseDensity(Family.GAUSSIAN, [1.0], [1.0]))
        assert chi_square_limit(s, q) == pytest.approx(CHI_SQUARE_LIMIT_01_11, rel=1e-4)

    @pytest.mark.parametrize("grid", [PROBE_GRID, QuadratureGrid(-40.0, 40.0, 20001)])
    @pytest.mark.parametrize("s_params, q_params", [
        ((0.0, 2.0), (1.0, 0.5)),
        ((-0.5, 1.5), (0.5, 1.0)),
    ])
    def test_divergent_limit_is_infinite(self, s_params, q_params, grid):
        # var_s >= 2 var_q: int (s - q)^2 / q diverges on every grid
        s = BaseDensity(Family.GAUSSIAN, [s_params[0]], [s_params[1]])
        q = Mixture.single(BaseDensity(Family.GAUSSIAN, [q_params[0]], [q_params[1]]))
        assert chi_square_limit(s, q, grid) == math.inf

    def test_limits_match_closed_form_on_pair_grid(self):
        for s, q in gaussian_pair_grid():
            ref = gaussian_chi_square(s.loc[0], s.scale[0], q.atoms[0].loc[0], q.atoms[0].scale[0])
            assert chi_square_limit(s, q) == pytest.approx(ref, rel=1e-4, abs=1e-12)

    def test_suite_passes(self):
        results = curvature_probe_suite()
        assert all(r.passed for r in results), [r.detail for r in results]


class TestGapBoundProbe:
    def test_certificate_covers_primal_error(self):
        (result,) = gap_bound_probe(seed=0)
        assert result.passed, result.detail
