"""Monte Carlo dephasing oracle, independent of the filter-function path.

Each realization synthesizes classical frequency noise as a sum of cosine
modes with random phases,

    beta(t) = sum_k A_k cos(omega_k t + theta_k),  A_k = sqrt(2 S(omega_k) d_omega / pi),

accumulates the phase phi = integral beta(t) s(t) dt by the midpoint rule
on the trace's sample grid, and averages cos(phi).  For Gaussian phases the
coherence is exp(-<phi^2>/2), so both the direct average and the
second-moment estimator are reported.

The modes span (0, omega_max], by default the whole band the trace
resolves, 2 pi / (10 dt).  The midpoint sums over the trace are
taken one run of equal samples at a time: a run of m samples centred at c
contributes D_m(omega) cos(omega c) (sin for the quadrature part), with the
Dirichlet factor D_m = sin(m omega dt / 2) / sin(omega dt / 2), so a pulsed
trace costs modes x segments rather than modes x samples.  Per realization
the phase is then phi = sum_k r_k cos(theta_k + psi_k) with
r_k = A_k |I_k| and psi_k = arg I_k: one cosine per mode, evaluated for a
block of realizations at once.  The phases are drawn in turns, x_k =
theta_k / 2 pi uniform in [0, 1), and cos(2 pi (x_k + psi_k / 2 pi)) is
evaluated from the fold f = x - rint(x) in [-1/2, 1/2] as T4 of
cos(pi f / 2), a cosine within pi/4 (``_cos_turns``).  That is the same
law and the same draws as cos(theta_k + psi_k); the results differ from a
full-range cosine only by rounding, within 2e-15 per term.
``McResult.work`` counts realizations x modes plus modes x runs, which may
not exceed 2e9 per call.

The realization indices are split into contiguous, nearly equal ranges,
one per CPU in the process's affinity, and each range is filled by a
thread.  Realization i draws its phases from its own stream, the PCG64
stream that ``np.random.default_rng([seed, i])`` would give.  The seeding
words of all n streams are hashed before the threads start, in one numpy
pass (``_stream_words``), so a thread's per-row cost under the GIL is one
state assignment; the random fill and the cosines release it.  A
realization's phase is summed in the same order whatever range or block
it falls in, so every result is bitwise the same for any number of CPUs.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .noise import NoiseSpectrum
from .sequences import SensitivityTrace

_TWO_PI = 2.0 * math.pi
# working-set size of one block in the mode-integral and realization kernels
_BLOCK_BYTES = 4 << 20
# modes per einsum in the realization loop: numpy's default buffer size
_SUM_CHUNK = 8192
# elements per pass of _cos_turns, a chunk that its nine passes find in cache
_COS_CHUNK = 16384
# samples per period of the highest mode: the trace must resolve it 10x over
_OVERSAMPLE = 10.0
# cap on McResult.work, to keep accidental huge runs from stalling the caller
_WORK_BUDGET = 2_000_000_000
# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64 seeding
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity), else all the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity query on this platform
        return os.cpu_count() or 1


def _stream_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """PCG64 seeding words of the streams (seed, i), one row per index i.

    Row j is ``np.random.SeedSequence([seed, indices[j]]).generate_state(4,
    np.uint64)``, hashed for all rows at once on uint32 arrays.  The
    entropy is the little-endian 32-bit words of ``seed`` (at least one),
    then i, which must fit one word.
    """
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    n = indices.size
    if n and not 0 <= indices.min() <= indices.max() < 1 << 32:
        raise ValidationError("stream indices must lie in [0, 2^32)")
    seed_words = [(seed >> s) & _M32
                  for s in range(0, max(seed.bit_length(), 1), 32)]
    # zero words past the entropy hash as the pool's missing words do
    entropy = np.zeros((max(len(seed_words) + 1, 4), n), np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    entropy[len(seed_words)] = indices
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = np.empty((n, 8), np.uint32)
    for j in range(8):
        value = pool[j % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value *= np.uint32(const)
        state[:, j] = value ^ (value >> np.uint32(16))
    # word pairs are little-endian uint64, as generate_state reads them
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _streams(words: np.ndarray):
    """One generator, seeded in turn by each row of ``_stream_words``.

    Each yielded state is the one ``np.random.PCG64`` seeds from that row:
    initstate = w0 w1 and increment 2 (w2 w3) + 1, as 128-bit numbers, then
    two LCG steps.  The generator is valid until the next one is yielded.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row in words:
        w0, w1, w2, w3 = row.tolist()
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield gen


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls.

    ``omega_max`` defaults to the band the trace resolves,
    2 pi / (10 x trace spacing); the spectrum extent must lie inside it.
    An explicit ``omega_max`` must itself be resolved by that 10x margin.
    The work done, realizations x modes plus modes x constant runs of the
    trace (``McResult.work``), is capped at 2e9.
    """

    n_realizations: int = 10_000
    seed: int = 0
    spectral_components: int = 1024
    omega_max: float | None = None

    def __post_init__(self) -> None:
        for name in ("n_realizations", "seed", "spectral_components"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n_realizations < 100:
            raise ValidationError("need at least 100 realizations")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.spectral_components < 8:
            raise ValidationError("need at least 8 spectral components")
        if self.omega_max is not None and not (
                isinstance(self.omega_max, numbers.Real)
                and 0.0 < self.omega_max < math.inf):
            raise ValidationError("omega_max must be positive and finite")


@dataclass(frozen=True)
class McResult:
    coherence: float
    stderr: float
    chi_estimate: float
    chi_stderr: float
    chi_expected: float            # exact second moment of the mode ensemble
    n_realizations: int
    seed: int
    n_modes: int
    omega_max: float
    work: int                      # realizations x modes + modes x runs

    def to_dict(self) -> dict:
        return asdict(self)


def _constant_runs(values: np.ndarray):
    """Start index and length of each run of equal samples."""
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return starts, np.diff(np.append(starts, values.size))


def _mode_integrals(trace: SensitivityTrace, runs, omegas: np.ndarray):
    """Midpoint sums dt * sum_j s_j (cos, sin)(omega t_j) for each omega.

    Summed run by run in closed form; needs omega dt / 2 < pi, which the
    resolution check in ``mc_coherence`` guarantees with a wide margin.
    """
    # midpoint rule: traces sample interval centers, so uniform weights are
    # exact on each constant segment (end-halving would drop half a sample)
    starts, lengths = runs
    dt = trace.dt
    centres = 0.5 * (trace.times[starts] + trace.times[starts + lengths - 1])
    weights = dt * trace.values[starts]
    # the Dirichlet factor depends on the run only through its length
    distinct, which = np.unique(lengths, return_inverse=True)
    ic = np.empty(omegas.size)
    is_ = np.empty(omegas.size)
    rows = max(1, _BLOCK_BYTES // (8 * starts.size))
    for start in range(0, omegas.size, rows):
        block = omegas[start:start + rows]
        half = 0.5 * dt * block
        dirichlet = (np.sin(np.outer(half, distinct))
                     / np.sin(half)[:, None])[:, which]
        arg = np.outer(block, centres)
        ic[start:start + rows] = (np.cos(arg) * dirichlet) @ weights
        is_[start:start + rows] = (np.sin(arg) * dirichlet) @ weights
    return ic, is_


def _cos_turns(x: np.ndarray, scratch: np.ndarray) -> None:
    """cos(2 pi x) in place on the rows of ``x``, ``scratch`` rows at a time.

    The phase is folded to f = x - rint(x) in [-1/2, 1/2], which is exact,
    and cos(2 pi f) = T4(c) = 8 c^2 (c^2 - 1) + 1 with c = cos(pi f / 2):
    libm's cosine is several times faster within pi/4 than on a full turn,
    and the result stays within 2e-15 of cos(2 pi x).
    """
    for lo in range(0, len(x), len(scratch)):
        f = x[lo:lo + len(scratch)]
        t = scratch[:len(f)]
        np.rint(f, out=t)
        f -= t
        f *= 0.5 * math.pi
        np.cos(f, out=f)
        np.multiply(f, f, out=t)
        np.subtract(t, 1.0, out=f)
        f *= t
        f *= 8.0
        f += 1.0


def mc_coherence(spectrum: NoiseSpectrum, trace: SensitivityTrace,
                 cfg: McConfig = McConfig()) -> McResult:
    """Monte Carlo coherence of ``trace`` under ``spectrum``.

    Deterministic per (seed, realization index): each realization's phases
    come from an independent counter-derived stream, so the result does not
    depend on how the realizations are split over blocks or threads.
    """
    dt = trace.dt
    # the trace must resolve the requested band or, when the band defaults
    # to the resolved one, the spectrum's own extent
    if cfg.omega_max is None:
        needed, omega_max = spectrum.extent(), _TWO_PI / (_OVERSAMPLE * dt)
    else:
        needed = omega_max = cfg.omega_max
    if dt * needed > _TWO_PI / _OVERSAMPLE:
        raise ValidationError(
            f"trace spacing {dt:.3e} s cannot resolve omega_max {needed:.3e} "
            f"rad/s with a {_OVERSAMPLE:g}x margin")
    k = cfg.spectral_components
    n = cfg.n_realizations
    runs = _constant_runs(trace.values)
    work = n * k + k * int(runs[0].size)
    if work > _WORK_BUDGET:
        raise ValidationError(
            f"work of {work} (realizations x modes + modes x runs) exceeds "
            f"the work budget {_WORK_BUDGET}")

    d_omega = omega_max / k
    omegas = (np.arange(k) + 0.5) * d_omega
    amps = np.sqrt(2.0 * spectrum.eval(omegas) * d_omega / math.pi)
    ic, is_ = _mode_integrals(trace, runs, omegas)
    u = amps * ic
    v = amps * is_
    # u cos(theta) - v sin(theta) = r cos(theta + psi)
    r = np.hypot(u, v)
    psi_turns = np.arctan2(v, u)
    psi_turns /= _TWO_PI
    phis = np.empty(n)
    workers = min(_usable_cpus(), n)
    # contiguous, nearly equal ranges of realization indices, one per worker;
    # the workers split one block budget, so the working set does not grow;
    # each share holds a block of rows and the few rows of _cos_turns's
    # scratch, which stay in cache
    edges = [n * w // workers for w in range(workers + 1)]
    spare = max(1, _COS_CHUNK // k)
    rows = max(1, _BLOCK_BYTES // (8 * k * workers) - spare)
    # allocated here, not in the workers, so that no thread's malloc arena
    # keeps a block after the call
    height = min(rows, -(-n // workers))
    shares = np.empty((workers, height + min(spare, height), k))
    blocks, scratches = shares[:, :height], shares[:, height:]
    words = _stream_words(int(cfg.seed), np.arange(n))

    def fill(block: np.ndarray, scratch: np.ndarray, lo: int, hi: int) -> None:
        # realizations lo..hi-1 into phis[lo:hi], a block of rows at a time;
        # a row of random() in [0, 1) is theta / 2 pi, the phases in turns
        streams = _streams(words[lo:hi])
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            x = block[:stop - start]
            for row, gen in zip(x, streams):
                gen.random(out=row)
            x += psi_turns
            _cos_turns(x, scratch)
            # einsum keeps the product on this thread: a threaded BLAS call
            # per block only leaves its workers spinning through the next fill.
            # It sums up to _SUM_CHUNK modes of a row in one order whatever
            # the block's height, but longer rows in an order that depends on
            # it, so the modes are summed a chunk at a time
            phi = phis[start:stop]
            phi[:] = 0.0
            for m in range(0, k, _SUM_CHUNK):
                phi += np.einsum("ij,j->i", x[:, m:m + _SUM_CHUNK],
                                 r[m:m + _SUM_CHUNK])

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, blocks, scratches, edges[:-1], edges[1:]))

    cos_phi = np.cos(phis)
    phi_sq = phis * phis
    chi_expected = 0.25 * float(amps @ (amps * (ic * ic + is_ * is_)))
    return McResult(
        coherence=float(np.mean(cos_phi)),
        stderr=float(np.std(cos_phi, ddof=1) / math.sqrt(n)),
        chi_estimate=float(np.mean(phi_sq) / 2.0),
        chi_stderr=float(np.std(phi_sq, ddof=1) / (2.0 * math.sqrt(n))),
        chi_expected=chi_expected,
        n_realizations=n,
        seed=int(cfg.seed),
        n_modes=k,
        omega_max=float(omega_max),
        work=work,
    )
