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
    beta0 = _resolve_beta0(config, model.symmetric_coupling())
    return _schedule(config, beta0, 0, config.iterations)


def smoothness(S: np.ndarray) -> float:
    """L, the spectral radius of the symmetric coupling ``S``: the Lipschitz
    constant of the energy's gradient."""
    return float(np.max(np.abs(np.linalg.eigvalsh(S))))


def _resolve_beta0(config: EcimConfig, S: np.ndarray) -> float:
    """``config.beta0``, or ``1 / L`` with L = ``smoothness(S)``."""
    if config.beta0 is not None:
        return config.beta0
    lam = smoothness(S)
    return 1.0 / lam if lam > 0.0 else 1.0


def _schedule(config: EcimConfig, beta0: float, start: int, stop: int) -> np.ndarray:
    """Step sizes beta_start..beta_(stop-1) of the schedule; each element is
    the same whatever the slice, so slices concatenate to the full one."""
    if config.schedule == "fixed":
        return np.full(stop - start, beta0)
    if config.schedule == "fixed-horizon":
        return np.full(stop - start, beta0 / math.sqrt(config.iterations))
    return beta0 / (np.arange(start, stop) + 1.0)


def project_box(z: np.ndarray, delta: float) -> np.ndarray:
    """Euclidean projection onto the box ``|z_i| <= delta``."""
    return np.clip(np.asarray(z, dtype=float), -delta, delta)


@dataclass
class EcimTrace:
    """Record of one machine run.

    ``energies`` holds the energy values of s(0..K) and ``betas`` the K
    per-step step sizes. ``iterates`` holds s(0..K) row-wise when the run
    was made with ``keep_iterates=True``, and is None otherwise; ``gm_norms``
    derives the K gradient-mapping norms from the rows, and
    ``averaged_iterate_at(k)`` is the beta-weighted mean of s(0..k-1).
    ``stop_index`` is the step after which the trace repeats: K, or fewer
    when a noise-free run reached an exact fixed point at step
    ``stop_index - 1``, and the remaining rows repeat that point, or when a
    noise-free run at a constant step reached an exact 2-cycle, and the
    remaining rows alternate rows ``stop_index - 2`` and
    ``stop_index - 1``; their ``gm_norms`` are then not zero. Steps are
    computed by the block, so a run may have computed a few steps past it.
    A run with a ``tol`` (the trust region's inexact variant, see
    ``run_ecim``) keeps only the steps it computed: ``stop_index`` of them,
    with the energies of s(0..stop_index) and no iterates.
    """

    iterates: np.ndarray | None
    energies: np.ndarray
    betas: np.ndarray
    best_index: int
    best_energy: float
    best_iterate: np.ndarray
    stop_index: int

    @property
    def gm_norms(self) -> np.ndarray | None:
        """Norms of the gradient mappings ``(s(k) - s(k+1)) / beta_k``,
        computed on each read with one (K, n) temporary; None when the run
        kept no iterates."""
        if self.iterates is None:
            return None
        d = self.iterates[:-1] - self.iterates[1:]
        d /= self.betas[:, None]
        return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])).reshape(len(d))

    def averaged_iterate_at(self, k: int) -> np.ndarray:
        """Beta-weighted mean of s(0..k-1), the averaged output at horizon k."""
        if self.iterates is None:
            raise ValueError("averaged iterates need a run with keep_iterates=True")
        if not 1 <= k <= len(self.betas):
            raise ValueError(f"horizon {k} outside 1..{len(self.betas)}")
        w = self.betas[:k]
        return (w @ self.iterates[:k]) / np.sum(w)


def run_ecim(
    model: QuadraticModel,
    config: EcimConfig,
    s0: np.ndarray | None = None,
    keep_iterates: bool = False,
    tol: float | None = None,
) -> EcimTrace:
    """Run the machine for ``config.iterations`` steps.

    Steps are computed in blocks of up to ``BLOCK_STEPS``: a Python loop runs
    only the recurrence, and the energies, stopping tests and best row of a
    block are then computed together. By default the rows live in a buffer
    of one block, so a run holds O(block n) of them, and the trace keeps
    only the energies, step sizes and best iterate; ``keep_iterates=True``
    keeps every row in ``EcimTrace.iterates``. A noise-free run stops after
    the block in which it reaches an exact fixed point and fills the rest of
    the trace with it. At a constant step (``fixed`` or ``fixed-horizon``)
    it also stops at an exact 2-cycle, ``s(k+2) == s(k)`` bit for bit, and
    fills the rest of the trace by alternating rows k and k+1 (see
    ``EcimTrace.stop_index``). The trace is bit for bit the same as with
    every step computed and checked one at a time, in either mode.

    Parameters
    ----------
    model : QuadraticModel
        Subproblem to relax.
    config : EcimConfig
        Schedule, noise level, horizon, and seed.
    s0 : ndarray, optional
        Start point. Defaults to a uniform draw from the box using
        ``config.seed``; points outside the box are projected onto it.
    keep_iterates : bool, optional
        Keep the (K + 1, n) iterate trace, which ``gm_norms``,
        ``averaged_iterate_at`` and ``estimate_mu_p`` read.
    tol : float, optional
        None, the default, runs the paper's machine. A number runs the trust
        region's inexact variant instead, which is not the paper's machine
        (the bounds the harness checks are proven for the plain step). Step
        k is the same projected step, with the same step sizes and noise,
        taken from ``y(k)`` instead of ``s(k)``, and ``y(k+1) = clip(s(k+1)
        + (t_k - 1) / t_(k+1) * (s(k+1) - s(k)))`` (FISTA, Beck & Teboulle
        2009); the clip zeroes the momentum of the coordinates of s(k+1) on
        a wall, since they moved onto it. The momentum restarts (``t = 1``,
        ``y = s``) when ``(y(k) - s(k+1)) . (s(k+1) - s(k)) > 0``
        (O'Donoghue & Candes 2015). The run starts at ``s0``, or at 0 when
        it is None, and stops at the first step whose gradient-mapping norm
        ``||y(k) - s(k+1)|| / beta_k`` is at most ``tol``, so a zero ``tol``
        stops only at an exact fixed point, or after K steps. The best
        iterate is the first of least energy among the start and every
        s(k) computed. It keeps no iterates.

    Raises
    ------
    DivergenceError
        When any iterate's energy is non-finite or beyond the divergence
        limit; carries the offending iteration index.
    ValueError
        For a negative or non-finite ``tol``, or a ``tol`` with
        ``keep_iterates``.
    """
    if tol is not None:
        if keep_iterates:
            raise ValueError("keep_iterates needs the paper's machine, tol=None")
        return _run_accelerated(model, config, s0, tol)
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
    sigma = math.sqrt(config.sigma2)
    constant_step = config.schedule != "decreasing"
    block = max(1, min(BLOCK_STEPS, NOISE_CHUNK_BYTES // (8 * n)))

    S = model.symmetric_coupling()
    h = model.field
    # Row k + 1 of the store holds s(k); row 0 is there so that a block's
    # window of rows s(k0 - 1..k1) is one slice in either mode. The full
    # store keeps every row; the streaming one holds one block's window, and
    # its last two rows move to the front after each block.
    store = np.empty((K + 2 if keep_iterates else block + 2, n))
    store[1] = s
    energies = np.empty(K + 1)
    stop_index = K
    best_index = -1
    best_energy = math.inf
    best_iterate = None
    # Per-step buffers, row views and scalar bounds made once: at small n a
    # step costs its numpy calls, so the loop allocates nothing. The noise
    # buffer is reused too, and the streaming window's row views serve every
    # block; a full store's are made per block.
    grads = np.empty((block + 1, n))
    grad_rows = list(grads)
    scaled = np.empty(n)
    noise_rows = np.empty((block, n)) if sigma > 0.0 else None
    lower = np.full(n, -delta)
    upper = np.full(n, delta)
    no_noise = itertools.repeat(None)
    window_rows = None if keep_iterates else list(store[1:])

    # The per-step loop computes only the recurrence; each step writes s(k+1)
    # in place into its row, with the floating-point operations of ecim_step
    # in tests/reference.py. Energies, both stopping tests and the best row
    # are then computed for the whole block, with the same per-row dot
    # products as a step-by-step run, so traces do not depend on the block or
    # the mode, and equal rows have equal energies. A block may step past a
    # divergence before its check; those steps are discarded, and their
    # overflow is not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, K, block):
            k1 = min(k0 + block, K)
            W = store[k0 : k1 + 2] if keep_iterates else store[: k1 - k0 + 2]
            X = W[1:]
            rows = list(X) if keep_iterates else window_rows
            noise = no_noise
            if sigma > 0.0:
                # The values of rng.normal(0.0, sigma): 0.0 + sigma * z, where
                # the addition turns a -0.0 into 0.0.
                noise = noise_rows[: k1 - k0]
                rng.standard_normal(out=noise)
                noise *= sigma
                noise += 0.0
                if config.modulate_noise:
                    noise *= betas[k0:k1, None]
            steps = zip(rows, rows[1:], grad_rows, noise, betas[k0:k1].tolist())
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

            # Exact orbit of a noise-free run, compared as integers since
            # -0.0 == 0.0. Period 1: a step returns its input bit for bit.
            # Steps never grow, and rounding is monotone, so every later step
            # reproduces it. Period 2, at a constant step only: s(k+2) equals
            # s(k); the step is then one fixed map, so rows k and k+1
            # alternate. Either orbit lasts to the end of the block, so its
            # last row shows whether there is one, and a fixed point rules out
            # a 2-cycle of distinct rows. Only then is the block searched for
            # the orbit's first row, from one row back so that a 2-cycle
            # across the block edge is found (that row starts no fixed point,
            # or the run would have stopped).
            period = 0
            if sigma == 0.0:
                back = 1 if constant_step and k0 > 0 else 0
                lo = k0 - back
                bits = W[1 - back :].view(np.int64)
                if (bits[-1] == bits[-2]).all():
                    period = 1
                elif constant_step and len(bits) > 2 and (bits[-1] == bits[-3]).all():
                    period = 2
                if period:
                    same = np.all(bits[period:] == bits[:-period], axis=1)
                    stop_index = lo + int(np.argmax(same)) + period
                    e = e[: stop_index - k0]
            out_of_range = ~(np.abs(e) <= DIVERGENCE_LIMIT)
            if out_of_range.any():
                j = int(np.argmax(out_of_range))
                raise DivergenceError(k0 + j, e[j])
            energies[k0 : k0 + len(e)] = e
            # A strict < keeps the first minimum, as np.argmin would over the
            # whole trace; the rows a stop fills in repeat earlier energies.
            j = int(e.argmin())
            if e[j] < best_energy:
                best_index = k0 + j
                best_energy = float(e[j])
                best_iterate = X[j].copy()
            if period:
                for j in range(stop_index - period, stop_index):
                    energies[j + period :: period] = energies[j]
                    if keep_iterates:
                        store[j + 1 + period :: period] = store[j + 1]
                break
            if not keep_iterates:
                store[:2] = W[-2:]

    return EcimTrace(
        iterates=store[1:] if keep_iterates else None,
        energies=energies,
        betas=betas,
        best_index=best_index,
        best_energy=best_energy,
        best_iterate=best_iterate,
        stop_index=stop_index,
    )


def _run_accelerated(
    model: QuadraticModel, config: EcimConfig, s0: np.ndarray | None, tol: float
) -> EcimTrace:
    """``run_ecim`` with a ``tol``: the trust region's inexact variant.

    A run usually stops after a few dozen steps at small n, where a step
    costs its numpy calls, so a step makes only the calls its arithmetic
    needs and a run does no work that grows with K: step sizes are made a
    block at a time, and the trace keeps those of the steps taken. After a
    restart, y(k+1) = s(k+1), and the gradient computed for the energy of
    s(k+1) is the next step's. Every value has the floating-point
    operations of the step-by-step form in tests/test_trust_region.py.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    n = model.dim
    delta = model.delta
    s = np.zeros(n) if s0 is None else project_box(s0, delta)
    if s.shape != (n,):
        raise ValueError(f"s0 shape {s.shape}, expected ({n},)")
    K = config.iterations
    S = model.symmetric_coupling()
    h = model.field
    beta0 = _resolve_beta0(config, S)
    sigma = math.sqrt(config.sigma2)
    rng = np.random.default_rng(config.seed) if sigma > 0.0 else None
    lower = np.full(n, -delta)
    upper = np.full(n, delta)
    tol_sq = tol * tol

    def step_sizes_by_block():
        for k0 in range(0, K, BLOCK_STEPS):
            yield from _schedule(config, beta0, k0, min(k0 + BLOCK_STEPS, K)).tolist()

    # At small n a step costs the overhead of its calls: local names skip
    # the module lookups, and maximum and minimum take out= by keyword, since
    # numpy deprecates, and slows, their positional out.
    add, subtract, multiply = np.add, np.subtract, np.multiply
    maximum, minimum = np.maximum, np.minimum

    # y is the point the next step starts from and g its gradient; gs is the
    # gradient at s(k+1), d the gradient mapping times beta, v the momentum.
    # Each step makes s(k+1) and y as new arrays and no later step writes
    # them, since best and y may hold an earlier s. The energy is
    # 0.5 * (s . (S s + h) + s . h); its + 0.0 turns a -0.0 into 0.0, as a
    # sum from 0.0 does, since at n = 1 a dot product is the bare product.
    g = S.dot(s)
    add(g, h, g)
    e = 0.5 * (float(s.dot(g)) + float(s.dot(h))) + 0.0
    energies = [e]
    best_index, best, best_energy = 0, s, e
    steps = K
    y = s
    gs = np.empty(n)
    d = np.empty(n)
    v = np.empty(n)
    t = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, beta in enumerate(step_sizes_by_block()):
            if rng is not None:
                z = rng.normal(0.0, sigma, n)
                if config.modulate_noise:
                    z *= beta
                subtract(g, z, g)
            multiply(g, beta, g)
            s_next = y - g
            maximum(s_next, lower, out=s_next)
            minimum(s_next, upper, out=s_next)
            S.dot(s_next, gs)
            add(gs, h, gs)
            e = 0.5 * (float(s_next.dot(gs)) + float(s_next.dot(h))) + 0.0
            if not abs(e) <= DIVERGENCE_LIMIT:
                raise DivergenceError(k + 1, e)
            energies.append(e)
            if e < best_energy:
                best_index, best, best_energy = k + 1, s_next, e
            subtract(y, s_next, d)
            if float(d.dot(d)) <= tol_sq * beta * beta:
                steps = k + 1
                break
            subtract(s_next, s, v)
            if float(d.dot(v)) > 0.0:
                t = 1.0
                y = s_next
                g, gs = gs, g
            else:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                multiply(v, (t - 1.0) / t_next, v)
                y = s_next + v
                maximum(y, lower, out=y)
                minimum(y, upper, out=y)
                S.dot(y, g)
                add(g, h, g)
                t = t_next
            s = s_next

    return EcimTrace(
        iterates=None,
        energies=np.array(energies),
        betas=_schedule(config, beta0, 0, steps),
        best_index=best_index,
        best_energy=best_energy,
        best_iterate=best,
        stop_index=steps,
    )
