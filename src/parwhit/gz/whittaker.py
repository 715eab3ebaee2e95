"""Whittaker vectors: the explicit left vector and the numerical verifiers.

The left vector is the closed form

    psi_L = e^{i pi gamma_{1,1} / hbar}
            * prod_{i <= m-1, j <= m} 1 / gamma1(gamma_{m-1,i} - gamma_{m,j} + hbar/2 | hbar)

(entire in the array entries; the phase is scaled by 1/hbar so the shift
gamma_{1,1} -> gamma_{1,1} +- hbar flips its sign for every hbar > 0).
verify_left_whittaker applies the adjoint twisted generators to psi_L at
random arrays and checks that each acts by a constant of modulus 1/hbar,
recording the observed sign per generator rather than asserting one.

The right vector lives on an affine support (delta factors); operators are
not applied to it distributionally.  Instead verify_right_support_relations
checks, pointwise on support samples, the rational identities that drive the
right-vector computation: the gamma-shift recurrences of the two gamma1
product blocks, the row-collapse congruence of the interpolation numerators
on the support, and the final interpolation constant (-1)^m / hbar.

Both verifiers draw with the GZ layer's one sampler, arrays.separated_points:
the left checks their whole arrays through random_array, the right checks
their free rows m.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ConfigError, DomainError, VerificationError
from ..gammafns import _checked_hbar, log_gamma1, on_pole_lattice
from .arrays import SupportConstraints, TriangularArray, random_array, separated_points
from .combin import factor
from .operators import adjoint, coxeter_cycle, twist

__all__ = ["psi_L", "verify_left_whittaker", "verify_right_support_relations",
           "LeftWhittakerReport", "RightSupportReport", "VERIFY_TOL"]

_MAX_RESAMPLE = 50

#: largest deviation an operator or Whittaker-vector identity check may show and pass
VERIFY_TOL = 1e-9

#: the hbar the verifiers certify.  Their arrays are sampled at unit scale: far below
#: it the gamma1 block logs grow like |z/hbar| and their differences lose the digits
#: VERIFY_TOL needs (1.8e-9 at hbar = 1e-5), far above it every z/hbar falls inside
#: the pole margin and resampling runs out (from hbar = 10 at N = 6).
HBAR_RANGE = (1e-3, 4.0)


def _verified_hbar(hbar: float | None, rng: np.random.Generator) -> float:
    """hbar, or one drawn from [0.7, 1.5) when None; DomainError outside HBAR_RANGE."""
    if hbar is None:
        return float(rng.uniform(0.7, 1.5))
    h = _checked_hbar(hbar)
    if not HBAR_RANGE[0] <= h <= HBAR_RANGE[1]:
        raise DomainError(f"the Whittaker verifiers certify hbar in [{HBAR_RANGE[0]:g}, "
                          f"{HBAR_RANGE[1]:g}], got hbar = {h:g}")
    return h


def _block_args(arr: TriangularArray, n: int, p: int, h: float) -> np.ndarray:
    """gamma_{n-1,a} - gamma_{n,b} + hbar/2 for a <= p, b <= n, one line per (a, b) in
    row-major order, one column per array of the batch."""
    return (arr.row(n - 1)[:p, None] - arr.row(n)[None]).reshape(p * n, len(arr)) + h / 2


def _log_block(arr: TriangularArray, n: int, p: int, h: float) -> np.ndarray:
    """log prod_{a<=p, b<=n} gamma1(gamma_{n-1,a} - gamma_{n,b} + hbar/2), per array, summed
    left to right so that an array's value does not depend on its batch."""
    return np.add.accumulate(log_gamma1(_block_args(arr, n, p, h), h))[-1]


def psi_L(m: int, arr: TriangularArray, hbar: float, perturb: float = 0.0) -> np.ndarray:
    """The left Whittaker vector on each array of a batch (rows m-1, m and the phase row 1).

    perturb adds a constant to the first reciprocal-gamma argument; it exists
    as a sensitivity hook for the verification harness and defaults to off.
    """
    if not 2 <= m <= arr.N:
        raise ConfigError(f"psi_L needs 2 <= m <= N, got m={m}, N={arr.N}")
    h = float(hbar)
    z = _block_args(arr, m, m - 1, h)
    z[0] = z[0] + perturb
    zero = on_pole_lattice(z / h).any(axis=0)      # a zero of the reciprocal gamma
    exponent = 1j * math.pi * arr.gamma(1, 1) / h - np.add.accumulate(log_gamma1(z, h))[-1]
    with np.errstate(all="ignore"):
        val = np.exp(exponent)
    if (np.isfinite(exponent) & ~np.isfinite(val) & ~zero).any():     # exp overflowed
        raise DomainError(f"psi_L leaves the double range at hbar = {h:g}")
    return np.where(zero, 0j, val)


@dataclass(frozen=True)
class LeftWhittakerReport:
    m: int
    N: int
    hbar: float
    samples: int
    seed: int
    tol: float
    passed: bool
    max_deviation: float
    signs: tuple[int, ...]            # recorded sign of the eigenvalue per k = 1..N-1
    labels: tuple[tuple[int, int], ...]  # untwisted generator label per k
    deviations: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"suite": "left-whittaker", **asdict(self)}


def verify_left_whittaker(m: int, N: int, samples: int = 8, seed: int = 0,
                          hbar: float | None = None, perturb: float = 0.0) -> LeftWhittakerReport:
    """Check (E^w_{k+1,k})^dag psi_L = s_k * hbar^{-1} psi_L for all k, s_k in {+1,-1}.

    w is the Coxeter cycle sending 1 -> 2 -> ... -> m -> 1; the eigen-ratio
    is measured pointwise at `samples` random non-singular arrays and must be
    a sample-independent constant of modulus 1 (times 1/hbar) within VERIFY_TOL.
    The arrays are drawn as one batch; an array where psi_L vanishes, is
    tiny or is not finite, or where the operator's value is not finite, is
    dropped and only the shortfall is drawn again, at most samples +
    _MAX_RESAMPLE arrays in all.
    """
    if not 2 <= m < N:
        raise ConfigError(f"need 2 <= m < N, got m={m}, N={N}")
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    h = _verified_hbar(hbar, rng)
    w = coxeter_cycle(m, N)
    winv = [0] * N
    for a, wa in enumerate(w, start=1):
        winv[wa - 1] = a

    def psi(arr: TriangularArray) -> np.ndarray:
        return psi_L(m, arr, h, perturb=perturb)

    signs, labels, deviations = [], [], []
    for k in range(1, N):
        op = adjoint(twist((k + 1, k), w, N, h))
        labels.append((winv[k], winv[k - 1]))
        ratios = []
        kept = drawn = 0
        while kept < samples:
            short = samples - kept
            if drawn + short > _MAX_RESAMPLE + samples:
                raise VerificationError(f"k={k}: exhausted resampling for non-singular arrays")
            drawn += short
            arr = random_array(N, rng, short)
            denom = psi(arr)
            usable = np.isfinite(denom) & (np.abs(denom) >= 1e-250)    # no zero or underflow
            arr, denom = arr[usable], denom[usable]
            with np.errstate(all="ignore"):      # a singular coefficient drops its array
                val = op.apply(psi, arr)
            finite = np.isfinite(val)
            ratios.append(val[finite] / (denom[finite] / h))
            kept += int(finite.sum())
        ratios = np.concatenate(ratios)
        sign = 1 if ratios.sum().real >= 0 else -1
        dev = max(np.abs(ratios - sign).max(), np.abs(np.abs(ratios) - 1.0).max())
        signs.append(sign)
        deviations.append(float(dev))
    max_dev = max(deviations)
    return LeftWhittakerReport(
        m=m, N=N, hbar=h, samples=samples, seed=seed, tol=VERIFY_TOL,
        passed=max_dev <= VERIFY_TOL, max_deviation=max_dev,
        signs=tuple(signs), labels=tuple(labels), deviations=tuple(deviations),
    )


@dataclass(frozen=True)
class RightSupportReport:
    m: int
    N: int
    hbar: float
    samples: int
    seed: int
    tol: float
    passed: bool
    max_deviation: float
    constant_sign: int               # recorded sign of the final eigen-constant times hbar
    check_deviations: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"suite": "right-support", **asdict(self)}


def _near_pole(arr: TriangularArray, m: int, N: int, h: float, margin: float = 0.05) -> np.ndarray:
    """Per array: whether some gamma1 argument of the two product blocks, or that
    argument shifted down by hbar, is close to a pole."""
    z = np.concatenate([_block_args(arr, N, m, h), _block_args(arr, m, m - 1, h)])
    w = np.concatenate([z, z - h]) / h
    k = np.round(w.real)
    return ((k <= 1) & (np.abs(w - k) < margin)).any(axis=0)


def _worst(devs: dict, name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
    devs[name] = max(devs[name], float(np.abs(lhs / rhs - 1).max()))


def verify_right_support_relations(m: int, N: int, samples: int = 50, seed: int = 0,
                                   hbar: float | None = None) -> RightSupportReport:
    """Pointwise checks of the right-vector proof identities on the delta support.

    Per sample (random free row m, random spectral row, everything else
    pinned by the support constraints):

    * shift recurrences of the outer gamma1 block (single down-shift of a
      row-(N-1) entry) and of the inner block (single down-shift of a row-m
      entry; double down-shift of paired row-(m-1), row-m entries), each
      against its closed rational factor;
    * the congruence collapsing interpolation numerators to within-row
      denominators on the support;
    * the final interpolation constant: -(1/hbar) * sum_i prod_r
      (gamma_{m-1,r} - gamma_{m,i} - hbar/2) / prod_{k != i} (gamma_{m,i} -
      gamma_{m,k}) equals (-1)^m / hbar.

    The samples are checked as one batch.  The free rows come from
    separated_points (entries in [-1.5, 1.5]^2, at least 0.2 apart) and the
    spectral rows are uniform in [-2, 2]; a drawn array near a pole is dropped
    and only the shortfall is drawn again, at most samples + _MAX_RESAMPLE
    arrays in all.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    h = _verified_hbar(hbar, rng)
    sc = SupportConstraints(m, N, h)   # validates 2 <= m < N

    devs = {"outer_shift": 0.0, "inner_shift": 0.0, "double_shift": 0.0,
            "support_congruence": 0.0, "final_constant": 0.0}
    const_sign = 0
    done = drawn = 0
    while done < samples:
        short = samples - done
        if drawn + short > samples + _MAX_RESAMPLE:
            raise VerificationError("exhausted resampling for non-singular support arrays")
        drawn += short
        arr = sc.build(separated_points(rng, [m], short, 1.5, 0.2), rng.uniform(-2.0, 2.0, size=(N, short)))
        arr = arr[~_near_pole(arr, m, N, h)]
        if not len(arr):
            continue

        base_outer = _log_block(arr, N, m, h)
        base_inner = _log_block(arr, m, m - 1, h)
        rm1, rm = arr.row(m - 1), arr.row(m)
        sgn = (-1) ** (m - 1)   # prod_r (gamma_{m-1,r} - g + off) = sgn * factor(g, rm1, -off)

        for i in range(1, m + 1):
            g = arr.gamma(m, i)
            # (a1) outer block, shift gamma_{N-1,i} down by hbar
            lhs = np.exp(_log_block(arr.shifted({(N - 1, i): -1}, h), N, m, h) - base_outer)
            _worst(devs, "outer_shift", lhs, 1.0 / factor(arr.gamma(N - 1, i), arr.row(N), -h / 2))

            # (a2) inner block, shift gamma_{m,i} down by hbar
            lhs = np.exp(_log_block(arr.shifted({(m, i): -1}, h), m, m - 1, h) - base_inner)
            _worst(devs, "inner_shift", lhs, sgn * factor(g, rm1, -h / 2))

            # (a3) inner block, paired shift of gamma_{m-1,j} and gamma_{m,i}
            for j in range(1, m):
                sh = arr.shifted({(m, i): -1, (m - 1, j): -1}, h)
                lhs = np.exp(_log_block(sh, m, m - 1, h) - base_inner)
                rhs = -sgn * factor(g, rm1, -h / 2, j) / factor(arr.gamma(m - 1, j), rm, -h / 2, i)
                _worst(devs, "double_shift", lhs, rhs)

        # (b) numerator collapse on the support, rows m..N-2 against the row below
        for a in range(1, N - m):
            row = arr.row(N - a)
            for i in range(1, m + 1):
                _worst(devs, "support_congruence", factor(arr.gamma(N - a - 1, i), row, -h / 2, i),
                       factor(row[i - 1], row, -h, i))

        # (c) the final interpolation constant
        got = -sgn * sum(factor(g, rm1, h / 2) / factor(g, rm, skip=i)
                         for i, g in enumerate(rm, start=1)) / h
        expect = ((-1) ** m) / h
        devs["final_constant"] = max(devs["final_constant"], float(np.abs(got - expect).max() * h))
        const_sign = 1 if got[-1].real * h >= 0 else -1
        done += len(arr)

    max_dev = max(devs.values())
    return RightSupportReport(
        m=m, N=N, hbar=h, samples=samples, seed=seed, tol=VERIFY_TOL,
        passed=max_dev <= VERIFY_TOL, max_deviation=max_dev,
        constant_sign=const_sign, check_deviations=devs,
    )
