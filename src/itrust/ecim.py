"""Simulated coherent Ising machine: noisy projected gradient descent.

The machine relaxes the box-constrained quadratic energy with the update
``s(k+1) = clip(s(k) - beta_k * (grad E(s(k)) - zeta(k)))`` where ``zeta`` is
isotropic Gaussian injection noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import QuadraticModel
from .writers import write_csv

SCHEDULES = ("fixed", "fixed-horizon", "decreasing")

# Energies past this magnitude abort the run before overflow turns into nan.
DIVERGENCE_LIMIT = 1e12

# Injection noise is drawn one block of steps at a time, and a block's noise
# takes at most about this many bytes. Consecutive draws from one Generator
# equal a single draw bit for bit.
NOISE_CHUNK_BYTES = 2**20

# Steps per block: the bookkeeping of a run is vectorised over this many
# steps at a time (fewer when a block's noise would pass NOISE_CHUNK_BYTES).
BLOCK_STEPS = 64


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
        if self.beta0 is not None and not 0.0 < self.beta0 < math.inf:
            raise ValueError(f"beta0 must be positive and finite, got {self.beta0}")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
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
    values and ``betas`` the K per-step step sizes; ``gm_norms`` derives the
    K gradient-mapping norms from them. ``averaged_iterate_at(k)`` is the
    beta-weighted mean of s(0..k-1). ``stop_index`` is the step after which
    the trace repeats: K, or fewer when a noise-free run reached an exact
    fixed point at step ``stop_index - 1``, and the remaining rows repeat
    that point. Steps are computed by the block, so a run may have computed
    a few steps past it. It is not written to trace files.
    """

    iterates: np.ndarray
    energies: np.ndarray
    betas: np.ndarray
    best_index: int
    best_energy: float
    best_iterate: np.ndarray
    stop_index: int

    @property
    def gm_norms(self) -> np.ndarray:
        """Norms of the gradient mappings ``(s(k) - s(k+1)) / beta_k``,
        computed on each read with one (K, n) temporary."""
        d = self.iterates[:-1] - self.iterates[1:]
        d /= self.betas[:, None]
        return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])).reshape(len(d))

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

    Steps are computed in blocks of up to ``BLOCK_STEPS``: a Python loop runs
    only the recurrence, and the energies and stopping tests of a block are
    then computed together. A noise-free run stops after the block in which
    it reaches an exact fixed point and fills the rest of the trace with it
    (see ``EcimTrace.stop_index``). The trace is bit for bit the same as with
    every step computed and checked one at a time.

    Parameters
    ----------
    model : QuadraticModel
        Subproblem to relax.
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
    block = max(1, min(BLOCK_STEPS, NOISE_CHUNK_BYTES // (8 * n)))

    S = model.symmetric_coupling()
    h = model.field
    iterates = np.empty((K + 1, n))
    energies = np.empty(K + 1)
    iterates[0] = s
    stop_index = K
    # Per-step buffers and row views made once: at small n a step costs its
    # numpy calls, so the loop allocates nothing and converts no scalar bound.
    grads = np.empty((block + 1, n))
    grad_rows = list(grads)
    scaled = np.empty(n)
    lower = np.full(n, -delta)
    upper = np.full(n, delta)
    no_noise = itertools.repeat(None)

    # The per-step loop computes only the recurrence; each step writes s(k+1)
    # in place into its trace row, with the floating-point operations of
    # ecim_step in tests/reference.py. Energies and both stopping tests are
    # then computed for the whole block, with the same per-row dot products as
    # a step-by-step run, so traces do not depend on the block. A block may
    # step past a divergence before its check; those steps are discarded, and
    # their overflow is not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, K, block):
            k1 = min(k0 + block, K)
            X = iterates[k0 : k1 + 1]
            rows = list(X)
            noise = no_noise
            if sigma > 0.0:
                noise = rng.normal(0.0, sigma, (k1 - k0, n))
                if config.modulate_noise:
                    noise *= betas[k0:k1, None]
            steps = zip(rows, rows[1:], grad_rows, noise, beta_list[k0:k1])
            for s, s_next, g, z, beta in steps:
                np.dot(S, s, out=g)
                np.add(g, h, g)
                if z is None:
                    np.multiply(g, beta, scaled)
                else:
                    np.subtract(g, z, scaled)
                    np.multiply(scaled, beta, scaled)
                np.subtract(s, scaled, s_next)
                np.maximum(s_next, lower, out=s_next)
                np.minimum(s_next, upper, out=s_next)

            # Rows of this block with an energy: s(k0..k1-1), and s(K) in the
            # last block, which takes no step.
            m = k1 - k0
            if k1 == K:
                np.dot(S, rows[m], out=grad_rows[m])
                np.add(grad_rows[m], h, grad_rows[m])
                m += 1
            Xm = X[:m, None, :]
            e = 0.5 * (np.matmul(Xm, grads[:m, :, None]) + np.matmul(Xm, h[:, None]))
            e = e.reshape(m)

            # Exact fixed point of a noise-free run: a step that returns its
            # input bit for bit (compared as integers, since -0.0 == 0.0).
            # Steps never grow, and rounding is monotone, so every later step
            # reproduces it, with the same energy.
            fixed = None
            if sigma == 0.0:
                bits = X.view(np.int64)
                same = np.all(bits[1:] == bits[:-1], axis=1)
                if same.any():
                    fixed = int(np.argmax(same))
                    e = e[: fixed + 1]
            out_of_range = ~(np.abs(e) <= DIVERGENCE_LIMIT)
            if out_of_range.any():
                j = int(np.argmax(out_of_range))
                raise DivergenceError(k0 + j, e[j])
            energies[k0 : k0 + len(e)] = e
            if fixed is not None:
                k = k0 + fixed
                iterates[k + 2 :] = iterates[k]
                energies[k + 1 :] = energies[k]
                stop_index = k + 1
                break

    best_index = int(np.argmin(energies))
    return EcimTrace(
        iterates=iterates,
        energies=energies,
        betas=betas,
        best_index=best_index,
        best_energy=float(energies[best_index]),
        best_iterate=iterates[best_index].copy(),
        stop_index=stop_index,
    )
