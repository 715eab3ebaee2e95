import math
import re

import numpy as np
import pytest

from parwhit import SpectralData
from parwhit.errors import ConfigError

VALID = dict(m=1, N=2, lam=(0.5, 0.0), hbar=1.0, x=0.0)


@pytest.mark.parametrize("field,value,message", [
    ("m", 2, "need 1 <= m < N, got m=2, N=2"),
    ("lam", (0.5,), "lambda must have length N=2, got 1"),
    ("lam", ("a", 0.0), "lambda and x must be real, got lambda=('a', 0.0), x=0.0"),
    ("lam", (0.5, 1j), "lambda and x must be real"),
    ("lam", (0.5, math.inf), "lambda entries must be finite"),
    ("hbar", "1", "hbar must be a finite real > 0, got '1'"),
    ("hbar", -1.0, "hbar must be a finite real > 0, got -1.0"),
    ("hbar", math.nan, "hbar must be a finite real > 0, got nan"),
    ("x", "0", "lambda and x must be real, got lambda=(0.5, 0.0), x='0'"),
    ("x", math.nan, "x must be finite"),
    ("m", True, "m and N must be integers, got m=True, N=2"),
    ("lam", 0.5, "lambda must be a sequence of N=2 reals, got 0.5"),
    ("hbar", True, "hbar must be a finite real > 0, got True"),
])
def test_invalid_instance_is_a_config_error(field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        SpectralData(**dict(VALID, **{field: value}))


def test_real_numbers_of_any_type_are_accepted():
    s = SpectralData(m=1, N=2, lam=np.array([1, 0]), hbar=np.float64(0.5), x=np.float32(-1.0))
    assert s.lam == (1.0, 0.0) and all(type(v) is float for v in s.lam)


@pytest.mark.parametrize("hbar", [np.float32(1.0), np.int64(1)])
def test_numpy_hbar_is_accepted_as_a_float(hbar):
    s = SpectralData(m=1, N=2, lam=(0.5, 0.0), hbar=hbar, x=0.0)
    assert s.hbar == 1.0 and type(s.hbar) is float
