"""Seeded sampling of Haar-random unitary / orthogonal matrices and local products.

All randomness flows through RngStream, a thin reproducible wrapper over
numpy's PCG64 keyed by (seed, stream path).  Haar sampling takes
the Q of the QR decomposition of a Ginibre matrix with the diagonal of R made
positive; without that correction QR output is not Haar distributed.  The
same correction gives Haar-random r-frames (d x r isometries), which is all
the engine's global shots draw.  A 2 x 2 draw, the factor of every local
shot, takes that Q in closed form from the same Ginibre entries, with no
LAPACK call; larger draws use one batched QR.  An ensemble's transforms are
drawn factor by factor, one Haar matrix per group of the ensemble: a
(count, F, k, k) stack of F factors of dimension k, which is (count, 1, d, d)
for a global ensemble and (count, n, 2, 2) for a local one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import only for annotations; avoids a module cycle
    from .channels import EnsembleSpec

#: Recorded in experiment metadata for reproducibility.
RNG_ALGORITHM = "numpy PCG64 seeded by SeedSequence((seed, len(stream_id), *stream_id))"

_MASK64 = (1 << 64) - 1

#: Seeds are keys in [0, MAX_SEED]: RngStream masks a seed to 64 bits, so one
#: outside that range would replay another seed's draws.
MAX_SEED = _MASK64


class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs replay bit-identical draws; distinct
    stream ids are statistically independent.  ``child(i)`` derives a fresh
    independent stream deterministically by extending the stream path.  The
    key holds the path's length, because SeedSequence pads its entropy with
    zeros: paths that differ by trailing zeros would otherwise collide.
    """

    def __init__(self, seed: int, stream_id: int | tuple = 0):
        self.seed = int(seed)
        if isinstance(stream_id, (tuple, list)):
            self.stream_id: tuple[int, ...] = tuple(int(s) for s in stream_id)
        else:
            self.stream_id = (int(stream_id),)
        self._gen: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = tuple(s & _MASK64 for s in (self.seed, len(self.stream_id), *self.stream_id))
            self._gen = np.random.default_rng(np.random.SeedSequence(key))
        return self._gen

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + (int(index),))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _complex_ginibre(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # Last-axis pairing keeps the draw order identical for any batch shape.
    z = gen.standard_normal(shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def _project_out(z: np.ndarray, frames: np.ndarray) -> np.ndarray:
    return z - frames @ (frames.conj().swapaxes(1, 2) @ z)


def haar_frames(
    rng: RngStream,
    d: int,
    r: int,
    count: int,
    real: bool = False,
    orthogonal_to: np.ndarray | None = None,
) -> np.ndarray:
    """Stack of `count` Haar-random orthonormal r-frames in R^d or C^d, (count, d, r).

    The frame is the Q of the QR decomposition of a Gaussian d x r matrix with
    the diagonal of R made positive (Mezzadri, arXiv:math-ph/0609050); r = d
    gives Haar O(d) / U(d) matrices.  A 2 x 2 draw takes that Q in closed
    form from the same Ginibre entries.  With `orthogonal_to` (count, d, m),
    orthonormal frames, the Gaussian is first projected onto their orthogonal
    complements, so the frames are Haar in those complements.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gen = rng.generator
    z = gen.standard_normal((count, d, r)) if real else _complex_ginibre(gen, (count, d, r))
    if d == r == 2 and orthogonal_to is None:
        return _frames_2x2(z)
    if orthogonal_to is not None:
        z = _project_out(z, orthogonal_to)
    q, upper = np.linalg.qr(z)
    diag = np.diagonal(upper, axis1=1, axis2=2)
    phase = diag / np.where(diag == 0.0, 1.0, np.abs(diag))
    q = q * np.where(phase == 0.0, 1.0, phase)[:, None, :]
    if orthogonal_to is not None:
        # A nearly rank-deficient z leaves rounding error / sigma_min of q in
        # span(orthogonal_to); projecting again squares it.
        q = _project_out(q, orthogonal_to)
    return q


def _frames_2x2(z: np.ndarray) -> np.ndarray:
    """The positive-diagonal QR factor Q of each 2 x 2 matrix in z, elementwise.

    q1 = z1 / |z1|.  The unit vector e = (-conj q1[1], conj q1[0]) spans the
    complement of q1, so z2 - q1 R12 = e w with w = e^dag z2, and q2 is e
    times the phase of w (R22 = |w|).  A zero first column gives q1 = |0>, and
    w = 0 phase 1, as the QR route does for a zero diagonal entry of R.
    """
    a, b = z[:, 0, 0], z[:, 1, 0]
    norm = np.sqrt(a.real**2 + a.imag**2 + b.real**2 + b.imag**2)
    zero = norm == 0.0
    norm[zero] = 1.0
    a = np.where(zero, 1.0, a / norm)
    b = b / norm
    w = a * z[:, 1, 1] - b * z[:, 0, 1]
    size = np.abs(w)
    zero = size == 0.0
    size[zero] = 1.0
    phase = np.where(zero, 1.0, w / size)
    q = np.empty_like(z)
    q[:, 0, 0], q[:, 1, 0] = a, b
    q[:, 0, 1], q[:, 1, 1] = -phase * b.conj(), phase * a.conj()
    return q


def haar_unitaries(rng: RngStream, d: int, count: int) -> np.ndarray:
    """Stack of `count` Haar-random U(d) matrices, shape (count, d, d)."""
    return haar_frames(rng, d, d, count)


def haar_orthogonals(rng: RngStream, d: int, count: int) -> np.ndarray:
    """Stack of `count` Haar-random O(d) matrices (real dtype)."""
    return haar_frames(rng, d, d, count, real=True)


def haar_state_vector(rng: RngStream, d: int) -> np.ndarray:
    v = _complex_ginibre(rng.generator, (d,))
    return v / np.linalg.norm(v)


def haar_draws(rng: RngStream, group: str, d: int, count: int) -> np.ndarray:
    """Stack of `count` Haar-random O(d) (real dtype) or U(d) matrices, by `group`."""
    return (haar_orthogonals if group == "orthogonal" else haar_unitaries)(rng, d, count)


def sample_transform_arrays(streams: list[RngStream], spec: "EnsembleSpec", count: int):
    """A complex (count, F, k, k) array of one Haar draw per factor, F factors of
    dimension k = spec.factor_dim: factor j draws its next `count` from streams[j],
    so calls once per chunk on the same streams never change a draw."""
    k = spec.factor_dim
    factors = np.empty((count, len(spec.groups), k, k), dtype=complex)
    for j, (stream, group) in enumerate(zip(streams, spec.groups, strict=True)):
        factors[:, j] = haar_draws(stream, group, k, count)
    return factors
