"""Blow-up scaling, truncated eigenfunction expansions, and boundary traces.

The scaling z = x/(-y), tau = -ln(-y) (valid for y < 0) turns the origin
into the limit tau -> +infinity.  A truncated expansion assigns each decay
rate k a coefficient tuple over the eigenfunction families; its evaluation
is a germ of a solution near the crack tip.

numpy is imported only inside the two least-squares fits, `decay_order` and
`perturbation_negligibility`; evaluation runs on plain floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .nodal import Combination
# not called here; perfbench/tracing.py wraps them under these names on this module
from .pencils import quadratic_eigenfunction, quartic_eigenfunction  # noqa: F401
from .pencils import QUADRATIC, QUARTIC, _widest_coefficient_bits
from .polyring import RatPoly

__all__ = [
    "BlowupCoords",
    "Expansion",
    "BoundaryTrace",
    "DecayFit",
    "NegligibilityReport",
    "to_blowup",
    "from_blowup",
    "eval_expansion",
    "eval_expansion_xy",
    "decay_order",
    "synthesize_boundary_trace",
    "perturbation_negligibility",
]


@dataclass(frozen=True)
class BlowupCoords:
    z: float
    tau: float


def to_blowup(x: float, y: float) -> BlowupCoords:
    """Map (x, y) with y < 0 to scaling coordinates."""
    if y >= 0:
        raise ValueError("blow-up coordinates require y < 0")
    return BlowupCoords(z=x / (-y), tau=-math.log(-y))


def from_blowup(coords: BlowupCoords) -> tuple[float, float]:
    """Inverse map: y = -exp(-tau), x = z * exp(-tau)."""
    e = math.exp(-coords.tau)
    return coords.z * e, -e


@dataclass(frozen=True)
class Expansion:
    """Truncated expansion: decay rate k -> coefficient tuple per family.

    Tuples are (c_k, d_k) for the second-order case and (C_k, D_k, E_k, F_k)
    for the fourth-order case, weighting eigenfunctions of degrees
    k, k-1, k-2, k-3; entries for absent degrees must be zero.
    """

    equation: str
    terms: Mapping[int, tuple]

    def __post_init__(self):
        nf = Combination.family_count(self.equation)
        if not self.terms:
            raise ValueError("an expansion needs at least one term")
        combos = {}
        for k, tup in self.terms.items():
            k = int(k)
            if k < 1:
                raise ValueError("decay rates k must be >= 1")
            tup = tuple(float(v) for v in tup)
            if len(tup) != nf:
                raise ValueError(f"each {self.equation} term needs {nf} coefficients")
            combos[k] = Combination(self.equation, k, tup)
        combos = dict(sorted(combos.items()))
        object.__setattr__(self, "terms", {k: c.coeffs for k, c in combos.items()})
        # the order-k combinations, built here so that a bad term raises now
        object.__setattr__(self, "_combinations", combos)
        lead = self.terms[self.l_start]
        if all(v == 0.0 for v in lead):
            raise ValueError("the leading coefficient tuple must be nontrivial")

    @property
    def l_start(self) -> int:
        return min(self.terms)

    def combination(self, k: int) -> RatPoly:
        """The exact order-k combination: terms[k] weighting the eigenfunctions."""
        return self._combinations[k].poly

    @functools.cached_property
    def _float_terms(self) -> tuple[tuple[int, tuple[float, ...]], ...]:
        """(k, float coefficients of combination(k)) for each k, in increasing k.

        A term past the float range raises ValueError before any combination
        is built: families 1 and 3 weight monomials of one parity, 2 and 4 the
        other, and where w_f is the only nonzero weight of its class nothing
        cancels it, so its coefficients reach 2^(e-1) 2^lo, with e = frexp(w_f)[1]
        and 2^lo a lower bound on psi_f's largest coefficient.
        """
        order = QUADRATIC if self.equation == "laplace" else QUARTIC
        for k, weights in self.terms.items():
            for parity_class in ((1, 3), (2, 4)):
                nonzero = [(f, weights[f - 1]) for f in parity_class if f <= len(weights) and weights[f - 1]]
                if len(nonzero) == 1:
                    (f, w), = nonzero
                    if math.frexp(w)[1] - 1 + _widest_coefficient_bits(order, k - f + 1, f)[0] >= 1024:
                        raise ValueError(f"the k={k} term's family {f} coefficients are past the float range")
        return tuple((k, tuple(float(c) for c in self.combination(k).coeffs)) for k in self.terms)


def _horner(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _neumaier_sum(values: Sequence[float]) -> float:
    # terms span many orders of magnitude in exp(-k*tau); compensate
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def eval_expansion(exp: Expansion, z: float, tau: float) -> float:
    """Truncated sum over decay rates, compensated-summation accumulated."""
    values = [math.exp(-k * tau) * _horner(coeffs, z) for k, coeffs in exp._float_terms]
    return _neumaier_sum(values)


def eval_expansion_xy(exp: Expansion, x: float, y: float) -> float:
    coords = to_blowup(x, y)
    return eval_expansion(exp, coords.z, coords.tau)


@dataclass(frozen=True)
class DecayFit:
    slope: float
    residual: float


_ANGLES = tuple(-math.pi + math.pi * (j + 0.5) / 64 for j in range(64))


def decay_order(exp: Expansion, radii: Sequence[float]) -> DecayFit:
    """Least-squares slope of log max|u| against log r over the given radii.

    The max is over a fixed fan of directions in the lower half-plane, which
    keeps the measurement off any single nodal ray.
    """
    import numpy as np

    radii = list(radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    if any(not (0 < r < 1) for r in radii):
        raise ValueError("radii must lie in (0, 1)")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    logs_r = []
    logs_u = []
    for r in radii:
        peak = max(abs(eval_expansion_xy(exp, r * math.cos(t), r * math.sin(t))) for t in _ANGLES)
        if peak == 0.0:
            raise ValueError("expansion vanishes on the whole sample fan")
        logs_r.append(math.log(r))
        logs_u.append(math.log(peak))
    coeffs, residuals, *_ = np.polyfit(logs_r, logs_u, 1, full=True)
    resid = float(np.sqrt(residuals[0] / len(radii))) if len(residuals) else 0.0
    return DecayFit(slope=float(coeffs[0]), residual=resid)


@dataclass(frozen=True)
class BoundaryTrace:
    """Samples of the germ on the lower unit semicircle plus crack angles."""

    samples: tuple[tuple[float, float], ...]
    crack_angles: tuple[float, ...]


def synthesize_boundary_trace(exp: Expansion, n_samples: int) -> BoundaryTrace:
    """Sample the germ on the boundary arc {y < 0} of the unit disk.

    This is the Dirichlet data that regenerates the crack structure carried
    by the expansion; the crack angles are where the leading combination's
    zero rays meet the circle.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = []
    for j in range(n_samples):
        theta = -math.pi + math.pi * (j + 0.5) / n_samples
        value = eval_expansion_xy(exp, math.cos(theta), math.sin(theta))
        samples.append((theta, value))
    lead = exp._combinations[exp.l_start]
    roots = lead.roots().refined_roots if lead.poly.degree >= 1 else ()
    crack_angles = tuple(math.atan2(-1.0, a) for a in roots)
    return BoundaryTrace(samples=tuple(samples), crack_angles=crack_angles)


@dataclass(frozen=True)
class NegligibilityReport:
    """Ratio of the scaled nonlinear term to the leading retained magnitude."""

    rows: tuple[tuple[float, float], ...]
    slope: float
    z: float


def perturbation_negligibility(exp: Expansion, p: float, tau_grid: Sequence[float]) -> NegligibilityReport:
    """Table of exp(-2 tau)|w|^p against the leading term along a fixed ray:
    of 81 evenly spaced z in [-2, 2], the one where the leading combination is largest.

    The log-ratio decays linearly in tau with slope -(2 + l(p-1)) for an
    expansion of leading order l.
    """
    import numpy as np

    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    taus = [float(t) for t in tau_grid]
    if len(taus) < 2:
        raise ValueError("need at least two tau values")
    lead = exp._float_terms[0][1]
    z = float(max(np.linspace(-2.0, 2.0, 81), key=lambda t: abs(_horner(lead, t))))
    lead_mag = abs(_horner(lead, z))
    if lead_mag == 0.0:
        raise ValueError("leading combination vanishes at the chosen ray")
    rows = []
    for tau in taus:
        w = eval_expansion(exp, z, tau)
        ratio = math.exp(-2.0 * tau) * abs(w) ** p / (math.exp(-exp.l_start * tau) * lead_mag)
        rows.append((tau, ratio))
    slope = float(np.polyfit(taus, [math.log(r) for _, r in rows], 1)[0])
    return NegligibilityReport(rows=tuple(rows), slope=slope, z=z)
