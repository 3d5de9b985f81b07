"""Simulated coherent Ising machine: noisy projected gradient descent.

The machine relaxes the box-constrained quadratic energy with the update
``s(k+1) = clip(s(k) - beta_k * (grad E(s(k)) - zeta(k)))`` where ``zeta`` is
isotropic Gaussian injection noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import QuadraticModel
from .writers import write_csv

SCHEDULES = ("fixed", "fixed-horizon", "decreasing")

# Energies past this magnitude abort the run before overflow turns into nan.
DIVERGENCE_LIMIT = 1e12

# Injection noise is drawn about this many bytes at a time. Consecutive draws
# from one Generator equal a single draw bit for bit.
NOISE_CHUNK_BYTES = 2**20


class DivergenceError(RuntimeError):
    """Raised when the energy leaves the trusted range mid-run."""

    def __init__(self, iteration: int, value: float):
        super().__init__(
            f"energy {value!r} out of range at iteration {iteration}"
        )
        self.iteration = iteration
        self.value = value


@dataclass(frozen=True)
class EcimConfig:
    """Machine hyperparameters.

    ``beta0`` of None resolves to ``1 / L`` with L the spectral radius of the
    symmetric coupling, computed per model. Schedules: ``fixed`` uses beta0
    for every step, ``fixed-horizon`` uses ``beta0 / sqrt(K)``, and
    ``decreasing`` uses ``beta0 / (k + 1)``. ``modulate_noise`` scales the
    noise standard deviation by the current step size.
    """

    schedule: str = "fixed"
    beta0: float | None = None
    sigma2: float = 0.0
    iterations: int = 1000
    seed: int = 0
    modulate_noise: bool = False

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"schedule must be one of {SCHEDULES}, got {self.schedule!r}"
            )
        if self.beta0 is not None and not self.beta0 > 0.0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


def step_sizes(config: EcimConfig, model: QuadraticModel) -> np.ndarray:
    """Full (beta_0, ..., beta_{K-1}) sequence, resolving beta0 = None to 1/L."""
    beta0 = config.beta0
    if beta0 is None:
        S = model.symmetric_coupling()
        lam = float(np.max(np.abs(np.linalg.eigvalsh(S))))
        beta0 = 1.0 / lam if lam > 0.0 else 1.0
    K = config.iterations
    ks = np.arange(K)
    if config.schedule == "fixed":
        return np.full(K, beta0)
    if config.schedule == "fixed-horizon":
        return np.full(K, beta0 / math.sqrt(K))
    return beta0 / (ks + 1.0)


def project_box(z: np.ndarray, delta: float) -> np.ndarray:
    """Euclidean projection onto the box ``|z_i| <= delta``."""
    return np.clip(np.asarray(z, dtype=float), -delta, delta)


@dataclass
class EcimTrace:
    """Complete record of one machine run.

    ``iterates`` holds s(0..K) row-wise, ``energies`` the matching energy
    values, ``betas`` and ``gm_norms`` the K per-step step sizes and
    gradient-mapping norms. ``averaged_iterate_at(k)`` is the beta-weighted
    mean of s(0..k-1). ``stop_index`` is the number of steps actually
    computed: K, or fewer when a noise-free run reached an exact fixed point,
    after which the remaining rows repeat it. It is not written to trace
    files.
    """

    iterates: np.ndarray
    energies: np.ndarray
    betas: np.ndarray
    gm_norms: np.ndarray
    best_index: int
    best_energy: float
    best_iterate: np.ndarray
    stop_index: int

    def averaged_iterate_at(self, k: int) -> np.ndarray:
        """Beta-weighted mean of s(0..k-1), the averaged output at horizon k."""
        if not 1 <= k <= len(self.betas):
            raise ValueError(f"horizon {k} outside 1..{len(self.betas)}")
        w = self.betas[:k]
        return (w @ self.iterates[:k]) / np.sum(w)

    def to_csv(self, path) -> None:
        """Write per-iterate rows: k, beta_k, energy, gm_norm, best_energy.

        The final row describes s(K), which has no outgoing step; its beta_k
        and gm_norm are written as nan.
        """
        write_csv(
            path,
            ["k", "beta_k", "energy", "gm_norm", "best_energy"],
            zip(
                range(len(self.energies)),
                [*self.betas, math.nan],
                self.energies,
                [*self.gm_norms, math.nan],
                np.minimum.accumulate(self.energies),
            ),
        )


def run_ecim(
    model: QuadraticModel, config: EcimConfig, s0: np.ndarray | None = None
) -> EcimTrace:
    """Run the machine for ``config.iterations`` steps and trace everything.

    A noise-free run stops computing at an exact fixed point and fills the
    rest of the trace with it (see ``EcimTrace.stop_index``); the trace is
    the same as with every step computed.

    Parameters
    ----------
    model : QuadraticModel
        Subproblem to relax. Must already be in solver coordinates; pass
        ``model.in_scaled_coordinates()`` when an elliptical scaling is set.
    config : EcimConfig
        Schedule, noise level, horizon, and seed.
    s0 : ndarray, optional
        Start point. Defaults to a uniform draw from the box using
        ``config.seed``; points outside the box are projected onto it.

    Raises
    ------
    DivergenceError
        When any iterate's energy is non-finite or beyond the divergence
        limit; carries the offending iteration index.
    """
    if model.scaling is not None:
        raise ValueError(
            "model carries an elliptical scaling; solve "
            "model.in_scaled_coordinates() and map back with from_scaled()"
        )
    n = model.dim
    delta = model.delta
    K = config.iterations
    rng = np.random.default_rng(config.seed)

    if s0 is None:
        s = rng.uniform(-delta, delta, n)
    else:
        s = project_box(s0, delta)
        if s.shape != (n,):
            raise ValueError(f"s0 shape {s.shape}, expected ({n},)")

    betas = step_sizes(config, model)
    beta_list = betas.tolist()
    sigma = math.sqrt(config.sigma2)
    chunk_rows = max(1, NOISE_CHUNK_BYTES // (8 * n))

    S = model.symmetric_coupling()
    h = model.field
    iterates = np.empty((K + 1, n))
    energies = np.empty(K + 1)
    gm_norms = np.empty(K)
    iterates[0] = s
    stop_index = K

    # Each step writes s(k+1) in place into its trace row; the floating-point
    # operations are those of ecim_step in tests/reference.py, so traces do not
    # depend on the loop.
    for k in range(K + 1):
        grad = S @ s
        grad += h
        e = 0.5 * (s @ grad + s @ h)
        if not abs(e) <= DIVERGENCE_LIMIT:
            raise DivergenceError(k, e)
        energies[k] = e
        if k == K:
            break
        beta = beta_list[k]
        if sigma > 0.0:
            row = k % chunk_rows
            if row == 0:
                noise = rng.normal(0.0, sigma, (min(chunk_rows, K - k), n))
                if config.modulate_noise:
                    noise *= betas[k : k + len(noise), None]
            grad -= noise[row]
        grad *= beta
        s_next = iterates[k + 1]
        np.subtract(s, grad, out=s_next)
        np.maximum(s_next, -delta, out=s_next)
        np.minimum(s_next, delta, out=s_next)
        d = s - s_next
        d /= beta
        gm_norms[k] = gm = math.sqrt(d @ d)
        if gm == 0.0 and sigma == 0.0 and s_next.tobytes() == s.tobytes():
            # Exact fixed point of a noise-free run (compared as bytes, since
            # -0.0 == 0.0). Steps never grow, and rounding is monotone, so
            # every later step reproduces s bit for bit, with the same energy
            # and a zero gradient mapping.
            iterates[k + 2 :] = s
            energies[k + 1 :] = e
            gm_norms[k + 1 :] = 0.0
            stop_index = k + 1
            break
        s = s_next

    best_index = int(np.argmin(energies))
    return EcimTrace(
        iterates=iterates,
        energies=energies,
        betas=betas,
        gm_norms=gm_norms,
        best_index=best_index,
        best_energy=float(energies[best_index]),
        best_iterate=iterates[best_index].copy(),
        stop_index=stop_index,
    )
