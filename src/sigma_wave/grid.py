"""Fourier-side representation of real fields on the two dimensional torus.

Everything downstream (propagators, noise, dynamics) manipulates fields
through their Fourier coefficients on an ``n_grid x n_grid`` lattice of
integer modes.  Conventions, fixed once here:

* the torus is ``[0, 2*pi)^2`` with the *normalized* Lebesgue measure, so
  ``integral |f|^2 dx == sum_n |fhat(n)|^2`` (Parseval with numpy's
  ``norm="forward"`` scaling);
* coefficients are stored in numpy FFT layout, mode ``n = (n1, n2)`` with
  ``n_i in {-n_grid/2, ..., n_grid/2 - 1}``;
* real fields satisfy the Hermitian symmetry ``fhat(-n) == conj(fhat(n))``
  with index arithmetic mod ``n_grid``.  Random sampling keeps exact
  realness by drawing only a half lattice and mirroring; modes on the
  Nyquist lines that have no mirror partner inside the sampled mode ball
  are kept real or zero;
* an ensemble of N components has one layout, :class:`BallEnsemble`: packed
  ``(..., N, n_ball)`` stacks on a mode ball.  ``_to_grid`` and ``_to_coeffs``
  move such stacks to grid values and back through real FFTs on the half
  spectrum, one axis at a time; steppers, drifts, chains and observables all
  read them so.  Every ball's complex pass runs on the half-spectrum columns
  it reaches, all ``n/2+1`` of them only for a ball that reaches the Nyquist
  column, and the values are the bits of ``irfft2``/``rfft2``.  Full ``(n, n)``
  coefficient grids remain only for snapshots (:meth:`BallEnsemble.full`
  scatters to them; :class:`SpectralField` is the record of one snapshot
  file) and for the commutator experiment's plain arrays;
* the grid-size temporaries of the hot loops are work arrays.  A loop that
  owns a run (``dynamics.run_trajectory``, ``cli.coupled_distance``, each
  slice of ``gibbs.evolve_gibbs_samples``, each task of
  ``diagnostics.lln_estimator``) opens a :func:`_workspace` scope on its
  thread, and inside it ``_work(shape, dtype, slot)`` returns a view of one
  buffer per slot, grown to the largest request and kept until the
  outermost scope ends.  The transform pair keeps its half spectrum there,
  the drifts their grid stacks and the LLN estimator its grid values, Wick
  products and sup-proxy transforms, so a step allocates no grid-size array
  and the freed memory is not handed back to the OS and faulted in again
  each call.  Outside a scope ``_work`` allocates a fresh array, so every
  other caller allocates as it did and nothing is held after a run.  No
  work array is returned: ``_to_coeffs``, and ``_to_grid`` without ``out``,
  give new arrays.

The two file formats live here too: binary snapshots (:func:`save_field`,
:func:`load_field`) and CSV tables (:func:`write_csv`), which every table
of the package goes through.
"""

from __future__ import annotations

import math
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "SpectralField",
    "BallEnsemble",
    "ball_mask",
    "sobolev_norm",
    "rms",
    "hermitian_defect",
    "random_field",
    "save_field",
    "load_field",
    "write_csv",
    "FIELD_MAGIC",
    "FIELD_VERSION",
]

FIELD_MAGIC = b"SGWV"
FIELD_VERSION = 1


@lru_cache(maxsize=64)
def _mode_vectors(n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    k = (np.fft.fftfreq(n_grid) * n_grid).astype(np.int64)
    n1, n2 = np.meshgrid(k, k, indexing="ij")
    n1.setflags(write=False)
    n2.setflags(write=False)
    return n1, n2


@lru_cache(maxsize=64)
def _mode_norm_sq(n_grid: int) -> np.ndarray:
    n1, n2 = _mode_vectors(n_grid)
    out = (n1 * n1 + n2 * n2).astype(np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridSpec:
    """Square Fourier grid on the torus together with the mass parameter.

    Parameters
    ----------
    n_grid : int
        Number of collocation points per direction; must be even and >= 4.
    m : float
        Mass in the dispersion relation ``m + |n|^2``; must be positive.
    """

    n_grid: int
    m: float

    def __post_init__(self) -> None:
        if self.n_grid < 4 or self.n_grid % 2 != 0:
            raise ValueError(f"n_grid must be even and >= 4, got {self.n_grid}")
        if not self.m > 0:
            raise ValueError(f"mass m must be positive, got {self.m}")

    @property
    def nyquist(self) -> int:
        return self.n_grid // 2

    @cached_property
    def mode_norm_sq(self) -> np.ndarray:
        """``|n|^2`` for every mode, in FFT layout (read-only)."""
        return _mode_norm_sq(self.n_grid)

    @cached_property
    def dispersion(self) -> np.ndarray:
        """``m + |n|^2`` per mode (read-only)."""
        out = self.m + _mode_norm_sq(self.n_grid)
        out.setflags(write=False)
        return out

    @property
    def dealias_radius(self) -> float:  # of the 2/3-rule mode set
        return 2.0 * self.nyquist / 3.0

    def shape(self) -> tuple[int, int]:
        return (self.n_grid, self.n_grid)


# Each validity rule of a mode ball |n| <= M is n_grid > k*M: the rule's k and the
# condition it states.  A command checks each rule its work needs, once, up front.
_BALL_RULES = {
    "wick": (2, "M < nyquist, or the Wick constants do not match the grid"),
    "exact": (4, "n_grid > 4*M, or truncated products are not exact"),
    "triple": (6, "3*M < nyquist, or triple products alias"),
}


def _require_ball(spec: GridSpec, M: float, rule: str, what: str = "M") -> None:
    """Raise unless the ball ``|n| <= M`` keeps ``rule`` of ``_BALL_RULES``."""
    k, condition = _BALL_RULES[rule]
    if spec.n_grid <= k * M:
        raise ValueError(f"{what} = {M:g} needs n_grid > {k * M:g} ({condition}); "
                         f"got n_grid = {spec.n_grid}")


@lru_cache(maxsize=256)
def _ball_mask(n_grid: int, radius: float) -> np.ndarray:
    if radius < 0:
        mask = np.zeros((n_grid, n_grid), dtype=bool)
    else:
        mask = _mode_norm_sq(n_grid) <= radius * radius + 1e-9
    mask.setflags(write=False)
    return mask


def ball_mask(spec: GridSpec, radius: float) -> np.ndarray:
    """Boolean mask of modes with ``|n| <= radius``."""
    return _ball_mask(spec.n_grid, float(radius))


@lru_cache(maxsize=256)
def _ball_index(n_grid: int, radius: float) -> np.ndarray:
    """Sorted flat indices of the ``|n| <= radius`` modes: the packed layout."""
    idx = np.flatnonzero(_ball_mask(n_grid, radius))
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=256)
def _half_spectrum_index(n_grid: int, radius: float) -> tuple:
    """Where the ``|n| <= radius`` modes, packed in ``_ball_index`` order, sit in
    the half spectrum ``(n, width)``: the first ``width`` columns of the
    ``rfft2`` ``(n, n/2+1)`` layout, ``width`` the columns the ball reaches,
    to which every ball's complex passes are confined.  Returns ``(width,
    stored, half_in)``, the packed positions the half spectrum stores and
    their flat positions in the ``(n, width)`` half spectrum, and
    ``(half_out, mirrored)``, the flat position in the ``(n, n/2+1)`` layout
    that each packed mode is read back from and whether it is read as the
    conjugate of its mirror (the lower halves of columns 0 and n/2 too, so
    the result is exactly Hermitian)."""
    n, h = n_grid, n_grid // 2 + 1
    i, j = np.divmod(_ball_index(n_grid, float(radius)), n)
    stored = j < h
    width = int(j[stored].max()) + 1 if stored.any() else 1
    mirrored = ~stored | ((j % (n // 2) == 0) & (i > n // 2))
    out = (np.flatnonzero(stored), (i * width + j)[stored],
           np.where(mirrored, ((-i) % n) * h + (-j) % n, i * h + j), mirrored)
    for arr in out:
        arr.setflags(write=False)
    return (width,) + out


def _unpack(packed: np.ndarray, spec: GridSpec, idx: np.ndarray) -> np.ndarray:
    """Scatter packed ``(..., len(idx))`` coefficients to full ``(..., n, n)`` grids."""
    out = np.zeros(packed.shape[:-1] + (spec.n_grid ** 2,), dtype=np.complex128)
    out[..., idx] = packed
    return out.reshape(packed.shape[:-1] + spec.shape())


class _Scope(threading.local):
    buffers = None  # slot -> byte buffer, while a scope is open on this thread


_scope = _Scope()


@contextmanager
def _workspace():
    """A scope of reusable work arrays on this thread.  Inside it,
    :func:`_work` hands out views of one buffer per slot; a nested scope
    shares the outer one's buffers, and the outermost one's end releases
    them.  A loop that owns a run opens one, so its steps stop allocating
    (and page-faulting in) grid-size temporaries."""
    if _scope.buffers is not None:
        yield
        return
    _scope.buffers = {}
    try:
        yield
    finally:
        _scope.buffers = None


def _work(shape: tuple, dtype, slot: str, zero: bool = False) -> np.ndarray:
    """A C-contiguous ``shape`` array of ``dtype``, uninitialised unless
    ``zero``.  Inside a :func:`_workspace` scope it is a view of ``slot``'s
    buffer, grown to the largest request and valid until the next request for
    the slot; outside one it is a fresh array (zeroed by ``calloc``, which
    leaves the pages nobody writes out of memory)."""
    if _scope.buffers is None:
        return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = _scope.buffers.get(slot)
    if buf is None or buf.size < nbytes:
        buf = _scope.buffers[slot] = np.empty(nbytes, np.uint8)
    out = buf[:nbytes].view(dtype).reshape(shape)
    if zero:
        out.fill(0)
    return out


def _to_grid(packed: np.ndarray, n: int, radius: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """Grid values of ``(..., n_ball)`` stacks packed on the ``|n| <= radius``
    ball of an ``n x n`` grid, written into ``out`` when given: the half
    spectrum, a work array, holds their stored modes and zeros elsewhere.
    The complex pass along axis -2 runs on the kept columns only and the real
    pass zero-pads the rest, bit for bit ``irfft2`` of the full half
    spectrum."""
    width, stored, half = _half_spectrum_index(n, radius)[:3]
    lead = packed.shape[:-1]
    spec = _work(lead + (n * width,), np.complex128, "spectrum", zero=True)
    spec[..., half] = packed[..., stored]
    # the slot again: the complex pass in place inside a scope, into a new
    # array outside one, where nothing is reused
    cols = np.fft.ifftn(spec.reshape(lead + (n, width)), s=(n,), axes=(-2,), norm="forward",
                        out=_work(lead + (n, width), np.complex128, "spectrum"))
    return np.fft.irfftn(cols, s=(n,), axes=(-1,), norm="forward", out=out)


def _to_coeffs(grid: np.ndarray, radius: float) -> np.ndarray:
    """The ``|n| <= radius`` coefficients of real ``(..., n, n)`` grid stacks,
    packed, exactly Hermitian, in a new array: the real pass along axis -1
    into a work array, the complex pass along axis -2 in place on the kept
    columns only (bit for bit ``rfft2``), then the kept modes gathered from
    the ``(n, n/2+1)`` layout."""
    n, lead = grid.shape[-1], grid.shape[:-2]
    width, _, _, half, mirrored = _half_spectrum_index(n, radius)
    spec = _work(lead + (n, n // 2 + 1), np.complex128, "spectrum")
    np.fft.rfftn(grid, s=(n,), axes=(-1,), norm="forward", out=spec)
    rows = spec[..., :width]
    np.fft.fftn(rows, s=(n,), axes=(-2,), norm="forward", out=rows)
    out = spec.reshape(lead + (-1,))[..., half]
    return np.conjugate(out, out=out, where=mirrored)


class SpectralField:
    """One real scalar field through its full ``(n, n)`` Fourier coefficients:
    the record of a snapshot file (:func:`save_field`, :func:`load_field`).
    Realness is a property of the data, checked by :func:`hermitian_defect`.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: GridSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != spec.shape():
            raise ValueError(f"coefficient shape {coeffs.shape} != {spec.shape()}")
        self.spec, self.coeffs = spec, coeffs


class BallEnsemble:
    """N pair states supported on the mode ball ``|n| <= radius``, packed as
    ``(..., N, n_ball)`` stacks in ``_ball_index`` order: the one ensemble
    layout that every stepper, drift, chain and observable reads and writes.
    Leading axes batch independent ensembles; ``len`` is N.  Radius ``inf``
    holds every mode, in flat grid order.  :meth:`full` scatters to ``(...,
    N, n, n)`` grids, for snapshots."""

    __slots__ = ("spec", "radius", "pos", "vel")

    def __init__(self, spec: GridSpec, radius: float, pos: np.ndarray, vel: np.ndarray):
        self.spec, self.radius, self.pos, self.vel = spec, float(radius), pos, vel
        if pos.ndim < 2 or pos.shape != vel.shape or pos.shape[-1] != self.index.size:
            raise ValueError(f"need matching (..., N, {self.index.size}) stacks")

    @property
    def index(self) -> np.ndarray:
        return _ball_index(self.spec.n_grid, self.radius)

    @classmethod
    def zeros(cls, spec: GridSpec, radius: float, n_components: int) -> "BallEnsemble":
        shape = (n_components, _ball_index(spec.n_grid, float(radius)).size)
        return cls(spec, radius, np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))

    def __len__(self) -> int:
        return self.pos.shape[-2]

    def __getitem__(self, key) -> "BallEnsemble":
        """The ensembles at ``key`` of the leading (batch) axes."""
        return BallEnsemble(self.spec, self.radius, self.pos[key], self.vel[key])

    def full(self) -> tuple:
        """``(pos, vel)`` scattered to ``(..., N, n, n)`` coefficient grids, zero off the ball."""
        return _unpack(self.pos, self.spec, self.index), _unpack(self.vel, self.spec, self.index)


@lru_cache(maxsize=256)
def _i_profile(n_grid: int, s: float, truncation: float) -> np.ndarray:
    """The I-method smoothing multiplier per mode, in FFT layout: 1 on
    ``|n| <= truncation``, ``(truncation / |n|)**(1 - s)`` outside, so ``H^s``
    data become ``H^1``; ``s`` must lie in ``(0, 1]``."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    r = np.sqrt(_mode_norm_sq(n_grid))
    with np.errstate(divide="ignore"):
        tail = np.where(r > 0, (truncation / np.maximum(r, 1e-300)) ** (1.0 - s), 1.0)
    out = np.where(r <= truncation + 1e-9, 1.0, tail)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def _bracket_pow(n_grid: int, s: float) -> np.ndarray:
    out = (1.0 + _mode_norm_sq(n_grid)) ** (s / 2.0)
    out.setflags(write=False)
    return out


def _sobolev_norms(packed: np.ndarray, n_grid: int, radius: float, s: float) -> np.ndarray:
    """``H^s`` norms of ``(..., n_ball)`` stacks packed on the ``|n| <= radius``
    ball, one per leading index."""
    w = _bracket_pow(n_grid, float(s)).reshape(-1)[_ball_index(n_grid, float(radius))]
    return np.sqrt(np.sum((w * np.abs(packed)) ** 2, axis=-1))


def sobolev_norm(coeffs: np.ndarray, s: float) -> float:
    """``H^s`` norm of full ``(n, n)`` coefficients,
    ``(sum <n>^{2s} |fhat(n)|^2)^{1/2}`` with ``<n>^2 = 1 + |n|^2``."""
    return float(_sobolev_norms(coeffs.reshape(-1), coeffs.shape[-1], np.inf, s))


def rms(values) -> float:
    """Quadratic mean ``(average of squares)**0.5`` over all entries.

    Used for the ensemble norms ``(N^-1 sum_j a_j^2)^(1/2)`` and, applied
    to an ``N x N`` table, ``(N^-2 sum_jk a_jk^2)^(1/2)``.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        raise ValueError("rms of empty collection")
    return float(np.sqrt(np.mean(a * a)))


def _mirror(coeffs: np.ndarray) -> np.ndarray:
    # coefficient at -n (indices mod n_grid), conjugated
    flipped = coeffs[::-1, ::-1]
    return np.conj(np.roll(flipped, (1, 1), axis=(0, 1)))


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Max deviation of full ``(n, n)`` coefficients from the realness
    constraint ``fhat(-n) == conj(fhat(n))``."""
    return float(np.max(np.abs(coeffs - _mirror(coeffs))))


def random_field(
    spec: GridSpec,
    gen: np.random.Generator,
    decay: float = 2.0,
    amplitude: float = 1.0,
    truncation: float | None = None,
) -> SpectralField:
    """Random real field with coefficient scale ``amplitude * <n>^-decay``.

    Draws complex Gaussians on the full lattice, enforces realness by
    averaging with the conjugate mirror, and truncates sharply to ``|n| <=
    truncation`` (default: the Nyquist ball, which keeps the unpaired Nyquist
    lines out).
    """
    if truncation is None:
        truncation = float(spec.nyquist)
    shape = spec.shape()
    z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    c = z * (amplitude * (1.0 + spec.mode_norm_sq) ** (-decay / 2.0))
    return SpectralField(spec, np.where(ball_mask(spec, truncation), 0.5 * (c + _mirror(c)), 0.0))


def save_field(f: SpectralField, path) -> None:
    """Write the binary snapshot format.

    Layout: 16-byte header (magic ``SGWV``, version u16, n_grid u16, 8
    reserved zero bytes), then little-endian float64 pairs ``(re, im)`` in
    row-major mode order.  The mass is not stored; it travels in the run
    manifest and is supplied again at load time.
    """
    header = FIELD_MAGIC + struct.pack("<HH8x", FIELD_VERSION, f.spec.n_grid)
    data = np.ascontiguousarray(f.coeffs, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_field(path, m: float) -> SpectralField:
    """Read a snapshot written by :func:`save_field`; ``m`` rebuilds the spec."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != FIELD_MAGIC:
            raise ValueError(f"{path}: not a spectral field snapshot")
        version, n_grid = struct.unpack("<HH", header[4:8])
        if version != FIELD_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        raw = fh.read()
    expected = n_grid * n_grid * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(n_grid, n_grid)
    return SpectralField(GridSpec(n_grid, m), coeffs.astype(np.complex128))


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_csv(path, header: str, rows) -> None:
    """Write a table with an exact header line, one row per sequence (or
    dict, by its value order): text as is, integers in decimal, every other
    value as a float at full precision (``%.17g``)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            vals = row.values() if isinstance(row, dict) else row
            fh.write(",".join(_cell(v) for v in vals) + "\n")
