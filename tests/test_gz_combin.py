import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parwhit.errors import CoincidentPointsError, ConfigError
from parwhit.gz import combin1, combin2, factor, separated_nodes

from oracles import homogeneous_poly


def test_factor_skip_offset_and_empty_row():
    row = [1.0, 2.0, 4.0]
    assert factor(3.0, row) == (3 - 1) * (3 - 2) * (3 - 4)
    assert factor(3.0, row, 0.5, skip=2) == (3.5 - 1) * (3.5 - 4)   # skip is 1-based
    assert factor(3.0, ()) == 1.0
    # prod_k (row_k - g + off) over j factors is (-1)^j factor(g, row, -off)
    assert factor(3.0, row, -0.5) * (-1) ** 3 == (1 - 3 + 0.5) * (2 - 3 + 0.5) * (4 - 3 + 0.5)


def test_small_closed_form_cases():
    assert combin1([1.0, 2.0], 1) == pytest.approx(1.0)
    assert combin1([1.0, 2.0], 0) == pytest.approx(0.0)
    assert combin2([1.0, 2.0], 3.0) == pytest.approx(1.0)
    assert combin2([1.5], 0.3) == pytest.approx(1.0)  # single empty product


def test_combin1_delta_for_low_powers():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        for _ in range(100):
            g = separated_nodes(rng, n)
            for p in range(n):
                expect = 1.0 if p == n - 1 else 0.0
                assert abs(combin1(g, p) - expect) <= 1e-11


def test_combin1_high_powers_equal_homogeneous_poly():
    # resolves the degree: divided difference of x^p equals h_{p-n+1}
    rng = np.random.default_rng(29)
    for n in range(2, 6):
        for p in range(n, n + 3):
            g = separated_nodes(rng, n)
            expect = homogeneous_poly(g, p - n + 1)
            got = combin1(g, p)
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def test_combin1_n3_p3_is_power_sum():
    rng = np.random.default_rng(31)
    g = separated_nodes(rng, 3)
    assert abs(combin1(g, 3) - sum(g)) <= 1e-11


def test_combin2_identity_random():
    rng = np.random.default_rng(37)
    for n in range(1, 9):
        for _ in range(100):
            g = separated_nodes(rng, n)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(combin2(g, c) - 1.0) <= 1e-11


def test_separated_nodes_gives_up_on_an_unmeetable_gap():
    # 100 nodes 0.35 apart in [-1.6, 1.6]^2 are never drawn by chance: the draw must
    # raise after its 200 rounds, not loop on (the counter stops a draw that would)
    class Counted:
        def __init__(self):
            self.rng, self.calls = np.random.default_rng(0), 0

        def uniform(self, *args, **kwargs):
            self.calls += 1
            if self.calls > 1000:
                raise RuntimeError("separated_nodes does not give up")
            return self.rng.uniform(*args, **kwargs)

    rng = Counted()
    with pytest.raises(ConfigError, match="200 rounds"):
        separated_nodes(rng, 100)
    assert rng.calls == 200


def test_coincident_nodes_rejected():
    with pytest.raises(CoincidentPointsError):
        combin1([1.0, 1.0, 2.0], 1)
    with pytest.raises(CoincidentPointsError):
        combin2([0.5, 0.5], 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=123))
def test_combin2_hypothesis_jittered_circle(n, seed):
    rng = np.random.default_rng(seed)
    angles = np.arange(n) * 2 * np.pi / max(n, 1) + rng.uniform(-0.2, 0.2, size=n)
    g = [complex(np.cos(a), np.sin(a)) for a in angles]
    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    assert abs(combin2(g, c) - 1.0) <= 1e-10
