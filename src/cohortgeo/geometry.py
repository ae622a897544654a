"""Discrete differential geometry on rate grids.

Each grid point ``p = (t, x, z)`` lives in R^3: calendar year, age, and the
rate value. Around every interior point with a complete 3x3 neighbourhood we
build four three-point stencil curves::

    cohort: {p[i-1,j-1], p[i,j], p[i+1,j+1]}   year and age advance together
    cross:  {p[i-1,j+1], p[i,j], p[i+1,j-1]}   anti-diagonal
    period: {p[i-1,j],   p[i,j], p[i+1,j]}     along calendar years, fixed age
    age:    {p[i,j-1],   p[i,j], p[i,j+1]}     along ages, fixed year

and estimate, per curve: a chord-length discrete parameter, a constrained
least-squares tangent at the centre, and a curvature vector. The unit
surface normal is the direction least aligned with all four tangents
(smallest eigenvector of the tangent scatter matrix), and the signed normal
curvature along each direction is the projection of that direction's
curvature vector onto the normal.

Numerical scheme, in the order the quantities are built:

* discrete parameter: ``s0 = 0``, ``s2 = 1``, ``s1 = |q1-q0| / (|q1-q0| +
  |q2-q1|)`` (chord-length ratio).
* tangent at the centre: the slope of the line through ``(s1, q1)`` that
  best fits the two remaining points in the least-squares sense,
  ``T = [(s0-s1)(q0-q1) + (s2-s1)(q2-q1)] / [(s0-s1)^2 + (s2-s1)^2]``,
  applied componentwise. ``V = T/|T|``.
* curvature vector: the same constrained least-squares slope applied to the
  *unit tangent field* sampled at three parameters, divided by the speed
  ``|T|``. The endpoint samples are the normalized chords, which match the
  curve's unit tangent at the chord midpoints to second order, so they are
  placed at the midpoint parameters ``(s0+s1)/2`` and ``(s1+s2)/2``. (Placing
  them at the endpoints instead biases curvature low by a factor of two;
  three points on a circle of radius r must give ``|CV| -> 1/r``.)
* normal: minimiser of ``sum_k (N . V_k)^2`` over unit vectors, i.e. the
  eigenvector of ``M = sum_k V_k V_k^T`` for the smallest eigenvalue,
  oriented so its z-component is positive (ties broken toward the first
  nonzero component being positive).
* normal curvature: ``NC_k = N . CV_k``.

A point is valid only if every chord length is positive with a finite sum,
every tangent length lies in ``[1e-14, inf)`` and its normal is unambiguous.
The four stencils cover the 3x3 neighbourhood, so a missing (NaN) cell
rejects the point through a NaN chord and an overflowing value through an
infinite length, without a numpy warning. Border and rejected points are
flagged invalid and carry zero fields.
All functions are pure. :func:`compute_geometry_field` is a vectorized map
over independent grid points, run in cache-sized blocks of interior rows.
Each block reads the grid's rows plus one halo row each side, keeps every
vector as per-block component planes and writes straight into its rows of
the result, so besides the result no scratch array grows with the grid.
Blocks run on a thread pool only when the grid has more than
``_SERIAL_POINTS`` points (no HMD table does); since every point sees the
same arithmetic, the result is bit-identical to a single pass over the
whole grid whatever the block height or scheduling.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AmbiguousNormalError,
    DegenerateStencilError,
    DegenerateTangentError,
    StructuralError,
    SurfaceSizeError,
)
from .surface import MortalitySurface, SurfaceGrid, _positive_real, _store_read_only

COHORT, CROSS, PERIOD, AGE = 0, 1, 2, 3
DIRECTION_NAMES = ("cohort", "cross", "period", "age")

# (di, dj) offsets of the stencil endpoints relative to the centre.
_STENCIL_OFFSETS = (
    ((-1, -1), (1, 1)),
    ((-1, 1), (1, -1)),
    ((-1, 0), (1, 0)),
    ((0, -1), (0, 1)),
)

_TANGENT_EPS = 1e-14
_EIGENGAP_TOL = 1e-9
# Points per row block of the kernel and of the field emitters: small enough
# that a block's temporaries or per-value strings stay in cache, and it sets
# the kernel's thread split.
_BLOCK_POINTS = 8192
# Grids of at most this many points (every HMD table) run on the calling
# thread: a pool thread's own malloc arena costs more memory than it saves time.
_SERIAL_POINTS = 32768


def _norm3(v: np.ndarray) -> float:
    return math.sqrt(float(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))


def discrete_parameter(q0, q1, q2) -> tuple[float, float, float]:
    """Chord-length parameters (0, s1, 1) of a three-point discrete curve.

    ``s1`` is the fraction of total chord length covered by the first leg.
    Raises :class:`DegenerateStencilError` unless both chord lengths are
    positive with a finite sum.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    with np.errstate(all="ignore"):
        a = _norm3(q1 - q0)
        b = _norm3(q2 - q1)
    if not (a > 0.0 and b > 0.0 and a + b < math.inf):
        raise DegenerateStencilError("zero or non-finite stencil chord")
    return 0.0, a / (a + b), 1.0


def _ls_slope(v0, v1, v2, s0, s1, s2):
    """Slope at ``s1`` of the best-fit line constrained through ``(s1, v1)``.

    Minimises ``(v0 - v1 - d (s0 - s1))^2 + (v2 - v1 - d (s2 - s1))^2`` over
    the slope ``d``. Broadcasts over arrays.
    """
    d0 = s0 - s1
    d2 = s2 - s1
    return (d0 * (v0 - v1) + d2 * (v2 - v1)) / (d0 * d0 + d2 * d2)


def discrete_tangent(q0, q1, q2) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares tangent at the centre point: ``(T, V = T/|T|)``.

    Raises :class:`DegenerateTangentError` unless ``|T|`` lies in
    ``[1e-14, inf)``: the points fold back onto the centre, or ``|T|`` overflows.
    """
    q0, q1, q2 = (np.asarray(q, dtype=float) for q in (q0, q1, q2))
    s0, s1, s2 = discrete_parameter(q0, q1, q2)
    with np.errstate(all="ignore"):
        T = _ls_slope(q0, q1, q2, s0, s1, s2)
        nT = _norm3(T)
    if not _TANGENT_EPS <= nT < math.inf:
        raise DegenerateTangentError("tangent length outside [1e-14, inf)")
    return T, T / nT


def curvature_vector(q0, q1, q2) -> np.ndarray:
    """Curvature vector at the centre: tangent-field derivative over speed.

    The unit tangent field is sampled three times: normalized chords for
    the two legs (at the chord-midpoint parameters) and the least-squares
    tangent at the centre. Its constrained least-squares derivative divided
    by the centre speed ``|T|`` gives curvature per unit arc length. Exactly
    zero for collinear points at any spacing.
    """
    q0, q1, q2 = (np.asarray(q, dtype=float) for q in (q0, q1, q2))
    s0, s1, s2 = discrete_parameter(q0, q1, q2)
    T, v_center = discrete_tangent(q0, q1, q2)
    nT = _norm3(T)
    c01 = q1 - q0
    c12 = q2 - q1
    u0 = c01 / _norm3(c01)
    u2 = c12 / _norm3(c12)
    m0 = 0.5 * (s0 + s1)
    m2 = 0.5 * (s1 + s2)
    dV = _ls_slope(u0, v_center, u2, m0, s1, m2)
    return dV / nT


def _orient(n: np.ndarray) -> np.ndarray:
    """Fix the normal's sign: z-component >= 0, ties toward +t then +x."""
    flip = n[2] < 0 or (
        n[2] == 0 and (n[0] < 0 or (n[0] == 0 and n[1] < 0))
    )
    return -n if flip else n


def estimate_normal(v1, v2, v3, v4) -> np.ndarray:
    """Unit vector least aligned with four unit tangents.

    Returns the eigenvector of ``M = sum_k v_k v_k^T`` belonging to the
    smallest eigenvalue, which minimises ``f(N) = sum_k (N . v_k)^2`` over
    the unit sphere. Raises :class:`AmbiguousNormalError` when the two
    smallest eigenvalues are closer than 1e-9 (tangents do not pin down a
    unique orthogonal direction).
    """
    V = np.asarray([v1, v2, v3, v4], dtype=float)
    M = V.T @ V
    w, vecs = np.linalg.eigh(M)
    if w[1] - w[0] < _EIGENGAP_TOL:
        raise AmbiguousNormalError(
            f"smallest eigenvalue not unique (gap {w[1] - w[0]:.3e})"
        )
    return _orient(vecs[:, 0])


def normal_curvature(n, cv) -> float:
    """Signed bending along one direction: projection of CV onto N."""
    n = np.asarray(n, dtype=float)
    cv = np.asarray(cv, dtype=float)
    return float(n[0] * cv[0] + n[1] * cv[1] + n[2] * cv[2])


# --- whole-grid assembly -----------------------------------------------------

@dataclass(frozen=True)
class GeometryOptions:
    """Value-axis conventions for the kernel.

    ``z_scale`` multiplies all rates before any geometry; ``log_rates``
    replaces rates by their natural log (nonpositive rates become missing).
    Defaults reproduce raw-rate geometry on a unit grid. ``z_scale`` is
    stored as a float and ``log_rates`` as a bool, so equal options write
    the same :meth:`label`.
    """

    z_scale: float = 1.0
    log_rates: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.z_scale, (bool, np.bool_)):
            raise ValueError("z_scale must be a number, not a bool")
        object.__setattr__(self, "z_scale", _positive_real(
            self.z_scale, ValueError("z_scale must be positive and finite")))
        if not isinstance(self.log_rates, (bool, np.bool_)):
            raise ValueError("log_rates must be a bool")
        object.__setattr__(self, "log_rates", bool(self.log_rates))

    def label(self) -> str:
        parts = [f"z_scale={self.z_scale!r}"]
        if self.log_rates:
            parts.append("log_rates")
        return ",".join(parts)


def prepare_grid(surface: MortalitySurface | SurfaceGrid,
                 options: GeometryOptions | None = None) -> SurfaceGrid:
    """Apply value-axis options and return the raw grid the kernel runs on.

    Raises :class:`StructuralError` if ``z_scale`` overflows a rate, or
    underflows a nonzero rate to zero or to a subnormal value.
    """
    grid = surface if isinstance(surface, SurfaceGrid) else SurfaceGrid(
        t=surface.years.astype(float), x=surface.ages.astype(float), z=surface.rates)
    options = options or GeometryOptions()
    if options.z_scale == 1.0 and not options.log_rates:
        return grid
    with np.errstate(all="ignore"):
        z = grid.z * options.z_scale
        if np.isinf(z).any():
            raise StructuralError(
                f"z_scale={options.z_scale!r} overflows the rates to infinity"
            )
        if options.z_scale < 1.0 and (
                (np.abs(z) < np.finfo(float).tiny) & (grid.z != 0)).any():
            raise StructuralError(f"z_scale={options.z_scale!r} underflows the rates")
        if options.log_rates:
            z = np.where(z > 0, np.log(z), np.nan)
    return SurfaceGrid(t=grid.t, x=grid.x, z=z)


@dataclass(frozen=True, eq=False)
class GeometryField:
    """Per-grid-point validity, unit normal and normal curvatures.

    Arrays are full grid size; border points and points rejected by the
    kernel have ``valid == False`` and all-zero fields. Direction index
    order is ``(cohort, cross, period, age)``. Like :class:`SurfaceGrid`,
    it stores read-only views of the arrays passed in, not copies.

    Only ``valid``, ``normals`` and ``normal_curvatures`` are stored per
    point: 1 + 24 + 32 = 57 bytes. The field also keeps the ``grid`` the
    kernel ran on, which with default options shares the surface's arrays.
    :attr:`tangents` and :attr:`curvature_vectors`, the kernel's
    intermediate steps, are recomputed from that grid on every read: each
    read costs one kernel pass and returns a new ``(ny, nx, 4, 3)`` array
    (96 bytes per point). A field built by hand with ``grid=None`` has
    neither.

    :meth:`to_csv` and :meth:`to_json` export the coordinates, validity,
    normals and normal curvatures. They format in bulk, in the kernel's row
    blocks of about ``_BLOCK_POINTS`` points with one ``repr`` pass over
    each array's flattened values, so only one block's per-value strings
    are alive at once, and write byte for byte what ``csv.writer`` with
    one ``repr`` per cell and ``json.dumps(indent=2)`` would, non-finite
    spellings included.
    """

    years: np.ndarray                 # t coordinates, shape (ny,)
    ages: np.ndarray                  # x coordinates, shape (nx,)
    valid: np.ndarray                 # (ny, nx) bool
    normals: np.ndarray               # (ny, nx, 3) unit normals
    normal_curvatures: np.ndarray     # (ny, nx, 4) signed
    options: GeometryOptions
    grid: SurfaceGrid | None = None   # the kernel's input, after prepare_grid

    def __post_init__(self) -> None:
        grid = (len(self.years), len(self.ages))
        for name, shape in (("valid", grid), ("normals", (*grid, 3)),
                            ("normal_curvatures", (*grid, 4))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, "
                                 f"the axes need {shape}")
        if self.valid.dtype != bool:
            raise ValueError(f"valid must be a bool array, not {self.valid.dtype}")
        _store_read_only(self, **{f.name: getattr(self, f.name) for f in fields(self)
                                  if f.name not in ("options", "grid")})

    @property
    def tangents(self) -> np.ndarray:
        """``(ny, nx, 4, 3)`` unit tangents, one kernel pass per read."""
        return self._stencil_vectors()[0]

    @property
    def curvature_vectors(self) -> np.ndarray:
        """``(ny, nx, 4, 3)`` curvature vectors, one kernel pass per read."""
        return self._stencil_vectors()[1]

    def _stencil_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only tangents and curvature vectors from one kernel pass."""
        if self.grid is None:
            raise ValueError("a field built without its grid has no tangents "
                             "or curvature vectors")
        vectors = _run_kernel(self.grid, vectors=True)[3:]
        for a in vectors:
            a.flags.writeable = False
        return vectors

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape

    def to_csv(self) -> str:
        """One row per grid point: coordinates, validity, normal, curvatures."""
        lines = [",".join(["year", "age", "valid", "normal_t", "normal_x", "normal_z"]
                          + [f"nc_{name}" for name in DIRECTION_NAMES])]
        ages = [_format_coord(x) for x in self.ages]
        for rows in _row_blocks(0, len(self.years), len(ages)):
            years = [_format_coord(t) for t in self.years[rows]]
            normals = _repr_leaves(self.normals[rows])
            curvatures = _repr_leaves(self.normal_curvatures[rows])
            lines += map(",".join, zip([y for y in years for _ in ages],
                                       ages * len(years),
                                       _flag_leaves(self.valid[rows]),
                                       *(normals[k::3] for k in range(3)),
                                       *(curvatures[k::4] for k in range(4))))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The export as ``json.dumps(obj, indent=2)`` would write it."""
        members = {
            "years": _json_array(self.years),
            "ages": _json_array(self.ages),
            "directions": [json.dumps(list(DIRECTION_NAMES), indent=2)
                           .replace("\n", "\n  ")],
            "options": [json.dumps(self.options.label())],
            "valid": _json_array(self.valid),
            "normals": _json_array(self.normals),
            "normal_curvatures": _json_array(self.normal_curvatures),
        }
        # one join over every piece copies the text once
        parts = []
        for key, pieces in members.items():
            parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": ", *pieces]
        parts.append("\n}\n")
        return "".join(parts)


def _format_coord(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def _row_blocks(start: int, stop: int, width: int) -> list[slice]:
    """Rows start..stop-1 of ``width`` points each, cut into blocks of about
    ``_BLOCK_POINTS`` points."""
    step = max(1, _BLOCK_POINTS // max(width, 1))
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def _repr_leaves(a: np.ndarray) -> list[str]:
    """``repr`` of every value of ``a`` as a float, in C order."""
    return list(map(repr, np.asarray(a, dtype=float).ravel().tolist()))


def _flag_leaves(valid: np.ndarray) -> list[str]:
    return ["1" if v else "0" for v in valid.ravel().tolist()]


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_array(a: np.ndarray) -> list[str]:
    """Pieces of ``json.dumps(a.tolist(), indent=2)`` for a bool or float
    array that sits one level inside the top-level object.

    Blocks of the first axis are formatted in turn; within a block the
    leaf strings are joined level by level, innermost axis first.
    """
    if len(a) == 0:
        return ["[]"]
    sep = ",\n    "
    pieces = ["[\n    "]
    for rows in _row_blocks(0, len(a), a[0].size):
        block = a[rows]
        if block.dtype == bool:
            items = _flag_leaves(block)
        else:
            items = _repr_leaves(block)
            if not np.isfinite(block).all():
                items = [_JSON_NONFINITE.get(item, item) for item in items]
        for axis in range(a.ndim - 1, 0, -1):
            n = a.shape[axis]
            if n == 0:
                items = ["[]"] * math.prod(block.shape[:axis])
                continue
            inner = "\n" + "  " * (axis + 2)
            head, inner_sep, tail = "[" + inner, "," + inner, "\n" + "  " * (axis + 1) + "]"
            items = [head + inner_sep.join(chunk) + tail
                     for chunk in zip(*[iter(items)] * n)]
        pieces += [sep.join(items), sep]
    pieces[-1] = "\n  ]"
    return pieces


def compute_point_geometry(grid: SurfaceGrid, i: int, j: int):
    """Reference per-point path: scalar ops on the four stencil curves.

    Exists so the vectorized field assembly can be cross-checked against
    the one-point definitions. Raises :class:`SurfaceSizeError` for border
    points and the scalar ops' errors for points the validity rule rejects.
    """
    ny, nx = grid.shape
    if not (1 <= i < ny - 1 and 1 <= j < nx - 1):
        raise SurfaceSizeError(f"({i}, {j}) is not interior to the grid")

    def point(ii: int, jj: int) -> np.ndarray:
        return np.array([grid.t[ii], grid.x[jj], grid.z[ii, jj]])

    tangents = np.empty((4, 3))
    cvs = np.empty((4, 3))
    for k, ((di0, dj0), (di2, dj2)) in enumerate(_STENCIL_OFFSETS):
        q = (point(i + di0, j + dj0), point(i, j), point(i + di2, j + dj2))
        _, tangents[k] = discrete_tangent(*q)
        cvs[k] = curvature_vector(*q)
    normal = estimate_normal(*tangents)
    ncs = np.array([normal_curvature(normal, cvs[k]) for k in range(4)])
    return tangents, cvs, normal, ncs


def _kernel_rows(grid: SurfaceGrid, rows: slice, out: tuple[np.ndarray, ...]) -> None:
    """Kernel over the interior ``rows``, reading one halo row each side.

    Reads ``t`` as a column, ``x`` as a row and ``z`` as a plane and keeps
    each vector as three ``(h, nx-2)`` component planes, under one
    ``errstate`` that silences every intermediate. ``out`` holds the
    zero-filled full-grid arrays of :func:`_run_kernel`; valid points are
    copied into their own rows of each, so blocks may run concurrently.
    Same arithmetic as :func:`compute_point_geometry` at each valid point.
    """
    r0, r1 = rows.start, rows.stop
    h, nx = r1 - r0, grid.x.size
    t, x, z = grid.t[r0 - 1:r1 + 1, None], grid.x[None, :], grid.z[r0 - 1:r1 + 1]

    def points(di: int, dj: int) -> tuple[np.ndarray, ...]:
        return (t[1 + di:h + 1 + di], x[:, 1 + dj:nx - 1 + dj],
                z[1 + di:h + 1 + di, 1 + dj:nx - 1 + dj])
    center, valid = points(0, 0), np.ones((h, nx - 2), dtype=bool)
    # V[k, i] and CV[k, i]: component i of stencil k's vector at each point
    V, CV = np.empty((2, 4, 3, h, nx - 2))
    with np.errstate(all="ignore"):
        for k, (at0, at2) in enumerate(_STENCIL_OFFSETS):
            q0, q2 = points(*at0), points(*at2)
            c01 = [c - q for c, q in zip(center, q0)]
            c12 = [q - c for q, c in zip(q2, center)]
            a = np.sqrt(c01[0] ** 2 + c01[1] ** 2 + c01[2] ** 2)
            b = np.sqrt(c12[0] ** 2 + c12[1] ** 2 + c12[2] ** 2)
            ab = a + b
            s1 = a / ab
            T = _ls_slopes(q0, center, q2, 0.0, s1, 1.0, out=V[k])
            nT = np.sqrt(T[0] ** 2 + T[1] ** 2 + T[2] ** 2)
            valid &= ((a > 0) & (b > 0) & (ab < np.inf)
                      & (nT >= _TANGENT_EPS) & (nT < np.inf))
            V[k] /= nT
            _ls_slopes([c / a for c in c01], V[k], [c / b for c in c12],
                       0.5 * (0.0 + s1), s1, 0.5 * (s1 + 1.0), out=CV[k])
            CV[k] /= nT

        # Sums run from zero in the order of np.einsum("yxki,yxkj->yxij", V, V)
        # and np.einsum("yxi,yxki->yxk", n, CV): same bits, signed zeros too.
        M = np.empty((h, nx - 2, 3, 3))
        for i in range(3):
            for j in range(i + 1):
                M[..., i, j] = M[..., j, i] = sum(V[:, i] * V[:, j], 0.0)
        # eigh needs clean input at rejected points; the identity is harmless there.
        M[~valid] = np.eye(3)
        w, vecs = np.linalg.eigh(M)
        valid &= (w[..., 1] - w[..., 0]) >= _EIGENGAP_TOL
        e = np.moveaxis(vecs[..., 0], -1, 0)
        flip = (e[2] < 0) | ((e[2] == 0) & ((e[0] < 0) | ((e[0] == 0) & (e[1] < 0))))
        n = np.where(flip, -e, e)
        NC = 0.0 + n[0] * CV[:, 0] + n[2] * CV[:, 2] + n[1] * CV[:, 1]

    for block, dest in zip((valid, n, NC, V, CV), out):
        # dest's grid axes moved last match the block's component planes
        np.copyto(np.moveaxis(dest[rows, 1:-1], (0, 1), (-2, -1)), block, where=valid)


def _ls_slopes(v0, v1, v2, s0, s1, s2, out: np.ndarray) -> np.ndarray:
    """:func:`_ls_slope` of each component plane of ``v0``, ``v1`` and ``v2``
    into ``out``, with the weights worked out once."""
    d0, d2 = s0 - s1, s2 - s1
    den = d0 * d0 + d2 * d2
    for p0, p1, p2, slope in zip(v0, v1, v2, out):
        np.divide(d0 * (p0 - p1) + d2 * (p2 - p1), den, out=slope)
    return out


def _worker_count(n_blocks: int) -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


def _run_kernel(grid: SurfaceGrid, vectors: bool = False) -> tuple[np.ndarray, ...]:
    """The block scheduler: ``(valid, normals, normal_curvatures)`` of
    ``grid``, computed in row blocks, followed with ``vectors=True`` by the
    ``(ny, nx, 4, 3)`` ``tangents`` and ``curvature_vectors``.

    Interior rows run in blocks of about ``_BLOCK_POINTS`` points, so
    temporaries stay block-sized. A grid of at most ``_SERIAL_POINTS``
    points runs on the calling thread; larger grids run their blocks on a
    thread pool with one worker per available core. The map is pointwise,
    so the result is bit-identical to a single pass.
    """
    ny, nx = grid.shape
    out = (np.zeros((ny, nx), dtype=bool), np.zeros((ny, nx, 3)), np.zeros((ny, nx, 4)))
    if vectors:
        out += (np.zeros((ny, nx, 4, 3)), np.zeros((ny, nx, 4, 3)))
    blocks = _row_blocks(1, ny - 1, nx)
    workers = 1 if ny * nx <= _SERIAL_POINTS else _worker_count(len(blocks))
    if workers <= 1:
        for rows in blocks:
            _kernel_rows(grid, rows, out)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() waits for every block and re-raises a block's error
            list(pool.map(lambda rows: _kernel_rows(grid, rows, out), blocks))
    return out


def compute_geometry_field(surface: MortalitySurface | SurfaceGrid,
                           options: GeometryOptions | None = None) -> GeometryField:
    """Run the kernel over every interior grid point.

    Vectorized over points in row blocks (see :func:`_run_kernel`);
    identical arithmetic to :func:`compute_point_geometry` at each valid
    point. Validity follows the module's rule; no numpy warning is emitted,
    whatever the caller's ``np.errstate``.
    """
    options = options or GeometryOptions()
    grid = prepare_grid(surface, options)
    ny, nx = grid.shape
    if ny < 3 or nx < 3:
        raise SurfaceSizeError(f"grid {ny}x{nx} is smaller than 3x3")
    valid, normals, normal_curvatures = _run_kernel(grid)
    return GeometryField(
        years=grid.t,
        ages=grid.x,
        valid=valid,
        normals=normals,
        normal_curvatures=normal_curvatures,
        options=options,
        grid=grid,
    )
