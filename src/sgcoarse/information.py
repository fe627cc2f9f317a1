"""Entanglement entropy and the information carried by screen positions.

The spin subsystem of the two-branch state is a 2x2 density matrix whose
off-diagonal element is set by the branch overlap.  For equal weights its
von Neumann entropy has the closed form

    S(A) = ln2 - [(1+A)/2] ln(1+A) - [(1-A)/2] ln(1-A)

in nats, where A is the overlap magnitude.  For weights w± = |c±|² the
eigenvalues are (1 ± A_w)/2 with A_w = sqrt(D² + (1 - D²)A²) and
D = |w+ - w-|, so the same formula holds at A_w.  A position measurement
on a pixelated screen reveals part of that correlation: a detection at pixel X
updates the spin probabilities to q_pm(X) and yields I(X) = H - S(X) nats,
with H the prior spin entropy (ln2 for equal weights); the mean over
arrival positions is the spin-pixel mutual information, bounded by the
entanglement entropy.  Everything here works in nats; divide by ln2 for bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DerivedScales, PhysicalParams, derive_scales
from .dynamics import BRANCHES, SpinorWavepacket, evolve_in_field
from .numerics import gauss_window, real_quad

LN2 = math.log(2.0)

# the screen and the fine-limit integral reach _TAIL_SIGMAS/√a past each
# branch centre, which is 12√2 standard deviations of the density
_TAIL_SIGMAS = 12.0


def _xlogx(x):
    """x ln x elementwise for x >= 0, with 0 ln 0 = 0 and no divide warning."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x == 0.0, 1.0, x))


def entropy_from_overlap(A):
    """Equal-weight spin entropy (nats) for overlap magnitude A in [0, 1].

    The reduced spin matrix has eigenvalues (1 pm A)/2, so
    S = ln2 - [(1+A)/2]ln(1+A) - [(1-A)/2]ln(1-A), with 0 ln 0 = 0.
    """
    A = np.asarray(A, dtype=float)
    if np.any(A < -1e-12) or np.any(A > 1.0 + 1e-12):
        raise ValueError("overlap magnitude must lie in [0, 1]")
    A = np.clip(A, 0.0, 1.0)
    s = LN2 - 0.5 * (_xlogx(1.0 + A) + _xlogx(1.0 - A))
    out = np.clip(s, 0.0, LN2)
    return float(out) if out.ndim == 0 else out


def overlap_decay(t, scales: DerivedScales):
    """Closed-form branch contrast A(t) = exp[-t²(t² + τ₂²)/τ₁⁴].

    This is the decay law the entanglement entropy is defined through; it
    fixes the t ~ τ₃ entanglement timescale.  Times in seconds.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise ValueError("time must be finite and nonnegative")
    expo = t * t * (t * t + scales.tau2**2) / scales.tau1**4
    out = np.exp(-expo)
    return float(out) if out.ndim == 0 else out


def entanglement_entropy(t, scales: DerivedScales, params: PhysicalParams | None = None):
    """(A, S_ent) at time t, S in nats, with A the paper's contrast.

    The spin matrix [[w+, c+c-* A], [c.c., w-]] has eigenvalues
    (1 pm A_w)/2 with A_w = sqrt(D² + (1 - D²)A²) and D = |w+ - w-|, so
    S_ent = entropy_from_overlap(A_w).  The weights come from `params`;
    None means equal weights (D = 0, A_w = A).  t may be a scalar or an
    array; t < 0 raises.
    """
    A = overlap_decay(t, scales)
    D = 0.0 if params is None else _weight_contrast(params)
    return A, entropy_from_overlap(np.sqrt(D * D + (1.0 - D * D) * A * A))


@dataclass(frozen=True)
class EntanglementSeries:
    """Entanglement history: times (s), contrast A(t), entropy (nats)."""

    times: np.ndarray
    A_values: np.ndarray
    S_ent: np.ndarray

    def __post_init__(self) -> None:
        if not (self.times.shape == self.A_values.shape == self.S_ent.shape):
            raise ValueError("series fields must share one shape")


def entanglement_series(
    scales: DerivedScales, times, params: PhysicalParams | None = None
) -> EntanglementSeries:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    A, S = entanglement_entropy(times, scales, params)
    return EntanglementSeries(times=times, A_values=np.atleast_1d(A), S_ent=np.atleast_1d(S))


def reduced_spin_density(state: SpinorWavepacket) -> np.ndarray:
    """Trace out position: 2x2 spin density matrix for arbitrary weights.

    rho[s, s'] = c_s c_s'* <phi_s'|phi_s>, with the exact branch overlap.
    """
    cp, cm = state.params.weights
    off = cp * np.conj(cm) * state.branch_overlap()
    return np.array(
        [[abs(cp) ** 2, off], [np.conj(off), abs(cm) ** 2]], dtype=complex
    )


def _entropy(probs):
    """-Σ w ln w in nats over the probabilities w in `probs`, 0 ln 0 = 0;
    each w may be a scalar or an array, and the sum runs elementwise."""
    return -sum(_xlogx(w) for w in probs)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr rho ln rho in nats for a Hermitian density matrix."""
    lam = np.linalg.eigvalsh(np.asarray(rho))
    if lam.min() < -1e-10 or abs(lam.sum() - 1.0) > 1e-8:
        raise ValueError(f"not a density spectrum: {lam}")
    return float(_entropy(np.clip(lam, 0.0, None)))


@dataclass(frozen=True)
class ScreenDistribution:
    """Per-pixel detection statistics on a position screen.

    X are pixel centers (m).  P_plus/P_minus are joint probabilities of
    (arrive in pixel, spin branch); q_plus = P(+|X) conditions on arrival,
    so P(-|X) = 1 - q_plus.  I = H - S(X) is the information gained per
    event in nats, with H the prior spin entropy and S(X) the binary
    entropy of q_plus; I is negative where a detection leaves the spin less
    certain than the prior.  captured is the screen's total mass.
    """

    X: np.ndarray
    P_plus: np.ndarray
    P_minus: np.ndarray
    q_plus: np.ndarray
    I: np.ndarray
    captured: float

    def mean_information(self) -> float:
        """Pixel-sum mean information per event, Σ_X P(X) I(X), nats."""
        return float(np.sum((self.P_plus + self.P_minus) * self.I))


def _weight_contrast(params: PhysicalParams) -> float:
    """D = ||c+|² - |c-|²|, zero for equal weights."""
    return abs(abs(params.c_plus) ** 2 - abs(params.c_minus) ** 2)


def _prior_entropy(params: PhysicalParams) -> float:
    """Entropy (nats) of the spin weights, the eigenvalues (1 pm D)/2 of
    diag(|c+|², |c-|²)."""
    return entropy_from_overlap(_weight_contrast(params))


def _support(forms) -> tuple[float, float]:
    """(lo, hi) on the scaled axis, _TAIL_SIGMAS/√a past each branch centre."""
    return (min(f.mu - _TAIL_SIGMAS / math.sqrt(f.a) for f in forms),
            max(f.mu + _TAIL_SIGMAS / math.sqrt(f.a) for f in forms))


def _posterior_plus(forms, x):
    """P(+|x), the stable logistic of the exact log-density ratio; it stays
    exact where both branch densities underflow.  ln C is -inf for the
    empty branch of a pure spin state, whose C is 0."""
    fp, fm = forms
    lp, lm = (math.log(f.C) if f.C > 0.0 else -math.inf for f in forms)
    dl = (lp - fp.a * (x - fp.mu) ** 2) - (lm - fm.a * (x - fm.mu) ** 2)
    e = np.exp(-np.abs(dl))
    return np.where(dl >= 0.0, 1.0, e) / (1.0 + e)


def _pixel_grid(lo: float, hi: float, Delta: float, alignment: str) -> np.ndarray:
    """Pixel centers tiling [lo, hi] with width Delta."""
    if alignment == "center":
        # a pixel centered exactly at X = 0
        k_lo = math.floor((lo + 0.5 * Delta) / Delta)
        k_hi = math.ceil((hi - 0.5 * Delta) / Delta)
    elif alignment == "edge":
        # pixel edges on multiples of Delta; refinements by integer
        # factors nest, which makes coarse graining provably lossy
        k_lo = math.floor(lo / Delta) + 0.5
        k_hi = math.ceil(hi / Delta) - 0.5
    else:
        raise ValueError(f"alignment must be 'center' or 'edge', got {alignment!r}")
    return Delta * np.arange(k_lo, k_hi + 1)


def screen_distribution(
    state: SpinorWavepacket, Delta: float, *, alignment: str = "center"
) -> ScreenDistribution:
    """Detection probabilities per pixel and the information they carry.

    ``Delta`` is the pixel width in meters.  The screen spans both branches
    out to the tails mean_information integrates over, so ``captured`` is 1
    up to roundoff.  The pixel masses are exact error-function integrals of
    each Gaussian branch; where both underflow, the spin posterior comes
    from the exact log-density ratio at the pixel center.

    alignment='center' puts one pixel center at X = 0 (so a symmetric
    state gives I(0) = 0); alignment='edge' puts pixel boundaries on
    multiples of the width, so integer coarsenings nest.
    """
    Delta = float(Delta)
    if not (0.0 < Delta < math.inf):
        raise ValueError(f"pixel width must be positive and finite, got {Delta}")
    u = state.units
    dh = Delta / u.length
    forms = [state.density_form(b) for b in BRANCHES]
    Xh = _pixel_grid(*_support(forms), dh, alignment)
    p_plus, p_minus = (f.C * gauss_window(Xh - 0.5 * dh, Xh + 0.5 * dh, f.mu, f.a)
                       for f in forms)
    tot = p_plus + p_minus
    q_plus = np.divide(p_plus, tot, out=_posterior_plus(forms, Xh), where=tot > 1e-300)
    return ScreenDistribution(
        X=Xh * u.length,
        P_plus=p_plus,
        P_minus=p_minus,
        q_plus=q_plus,
        I=_prior_entropy(state.params) - _entropy((q_plus, 1.0 - q_plus)),
        captured=float(np.sum(tot)),
    )


def mean_information(state: SpinorWavepacket) -> float:
    """Mean information per detection event in the fine limit, nats.

    Evaluates the continuum mutual information
        H = H_prior - ∫P lnP + ∫P₊ lnP₊ + ∫P₋ lnP₋
    as ∫ P(x) I(x) dx, which is its numerically stable rearrangement (the
    dimensionful logs cancel exactly), clipped to [0, H_prior].  For a
    screen of finite pixels use screen_distribution(...).mean_information().
    """
    prior = _prior_entropy(state.params)
    forms = [state.density_form(b) for b in BRANCHES]
    (Cp, mup, arp), (Cm, mum, arm) = forms

    def integrand(x):
        pp = Cp * np.exp(-arp * (x - mup) ** 2)
        pm = Cm * np.exp(-arm * (x - mum) ** 2)
        w_plus = _posterior_plus(forms, x)
        return (pp + pm) * (prior - _entropy((w_plus, 1.0 - w_plus)))

    # panels one standard deviation of the narrower branch density wide
    val = real_quad(integrand, *_support(forms), 1.0 / math.sqrt(2.0 * max(arp, arm)),
                    points=(mup, mum))
    return float(min(max(val, 0.0), prior))


def information_series(params: PhysicalParams, times):
    """(times, H, S_ent) arrays over a sweep of in-field evolution times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    scales = derive_scales(params)
    H = np.empty_like(times)
    for i, t in enumerate(times):
        H[i] = mean_information(evolve_in_field(params, float(t)))
    _, S = entanglement_entropy(times, scales, params)
    return times, H, np.atleast_1d(S)
