"""Measurement channels for every ensemble: block spectra, pseudo-inverses,
visible-space projectors, and the one rule that decides visibility.

A global channel acts blockwise on the trace part (eigenvalue 1), the
symmetric-traceless part and the antisymmetric part of its input:

    lambda_sym  = (d + alpha - 2) / ((d - 1)(d + 2))      (orthogonal)
    lambda_anti = (d - alpha)     / (d (d - 1))           (orthogonal)
    lambda_sym  = lambda_anti = 1 / (d + 1)               (unitary)

with alpha the total reality of the measurement basis.  Local channels act
qubit by qubit with the d = 2 blocks (orthogonal qubit: Y killed, X/Z scaled
by 1/2; unitary qubit: X/Y/Z scaled by 1/3), one 4x4 map of a site's entries
through `map_sites`.  A block with eigenvalue 0 is invisible: the estimators
see only the rest of an observable, and `has_invisible_part` is where that is
decided.  Channels are kept in this spectral form; dense superoperator
matrices appear only in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import MeasurementBasis
from .linalg import as_operator, batched_kron, norm2, sum_abs2
from .pauli import PauliString
from . import sampling

GROUPS = ("unitary", "orthogonal")

#: Eigenvalues smaller than this are treated as exact zeros of the channel.
_ZERO_EIGENVALUE_ATOL = 1e-12

#: Element budget per (chunk, d, d) Monte Carlo array: 256 samples at d = 16,
#: so each complex stack of a chunk is at most 1 MiB.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(eq=False)
class EnsembleSpec:
    """Which group is sampled, over what scope, with which measurement basis.

    A local ensemble always measures in the computational basis, so it holds
    no basis (`None`)."""

    scope: str  # "global" | "local"
    groups: tuple[str, ...]  # length 1 (global) or n (local)
    basis: MeasurementBasis | None
    n: int

    def __post_init__(self):
        if self.scope not in ("global", "local"):
            raise ValueError(f"unknown scope {self.scope!r}")
        self.groups = tuple(self.groups)
        for g in self.groups:
            if g not in GROUPS:
                raise ValueError(f"unknown group {g!r}")
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if self.scope == "global":
            if len(self.groups) != 1:
                raise ValueError("a global ensemble samples a single group")
            if self.basis is None or self.basis.d != self.d:
                raise ValueError("basis dimension does not match the qubit count")
        else:
            if len(self.groups) != self.n:
                raise ValueError("local ensembles need one group per qubit")
            if self.basis is not None:
                raise ValueError("local ensembles measure in the computational basis")

    @property
    def d(self) -> int:
        return 2**self.n

    def label(self) -> str:
        groups = self.groups[0] if len(set(self.groups)) == 1 else ",".join(self.groups)
        tag = self.basis.tag if self.basis else "computational"
        return f"{self.scope}-{groups}({tag})"


def global_ensemble(group: str, basis: MeasurementBasis) -> EnsembleSpec:
    n = int(round(np.log2(basis.d)))
    if 2**n != basis.d:
        raise ValueError("basis dimension must be a power of two")
    return EnsembleSpec("global", (group,), basis, n)


def local_ensemble(groups, n: int) -> EnsembleSpec:
    if isinstance(groups, str):
        groups = (groups,) * n
    return EnsembleSpec("local", tuple(groups), None, n)


@dataclass(frozen=True)
class ChannelSpectrum:
    """Blockwise action of a measurement channel on one tensor factor."""

    lambda_sym: float
    lambda_anti: float
    p_alpha: float
    alpha: float


def orthogonal_spectrum(d: int, alpha: float) -> ChannelSpectrum:
    return ChannelSpectrum(
        lambda_sym=(d + alpha - 2.0) / ((d - 1.0) * (d + 2.0)),
        lambda_anti=(d - alpha) / (d * (d - 1.0)),
        p_alpha=(d * d - alpha) / ((d - 1.0) * (d + 2.0)),
        alpha=float(alpha),
    )


def unitary_spectrum(d: int, alpha: float = float("nan")) -> ChannelSpectrum:
    lam = 1.0 / (d + 1.0)
    return ChannelSpectrum(lambda_sym=lam, lambda_anti=lam, p_alpha=d / (d + 1.0), alpha=alpha)


@dataclass(eq=False)
class ChannelDescriptor:
    spec: EnsembleSpec
    spectra: tuple[ChannelSpectrum, ...]  # one entry (global) or n entries (local)

    @property
    def spectrum(self) -> ChannelSpectrum:
        if self.spec.scope != "global":
            raise ValueError("per-qubit channels have no single global spectrum")
        return self.spectra[0]


def channel_for(spec: EnsembleSpec) -> ChannelDescriptor:
    if spec.scope == "global":
        if spec.groups[0] == "orthogonal":
            spectrum = orthogonal_spectrum(spec.d, spec.basis.alpha_total)
        else:
            spectrum = unitary_spectrum(spec.d, spec.basis.alpha_total)
        return ChannelDescriptor(spec, (spectrum,))
    spectra = tuple(
        orthogonal_spectrum(2, 2.0) if g == "orthogonal" else unitary_spectrum(2, 2.0)
        for g in spec.groups
    )
    return ChannelDescriptor(spec, spectra)


# ---------------------------------------------------------------------------
# Per-site maps: a (K, 4) matrix takes the 2x2 entries (a00, a01, a10, a11)
# that qubit j's row and column bits pick out of an operator to K values.


def map_sites(a: np.ndarray, maps) -> np.ndarray:
    """out[k_0, ..., k_{n-1}] = sum_{r, c} a[r, c] prod_j maps[j][k_j, 2 r_j + c_j]
    for an n-qubit operator a and one (K_j, 4) matrix per qubit, qubit 0
    leftmost.  Each site is one matmul that takes the leading site axis to
    the end, mapped, so the result grows site by site to prod_j K_j entries."""
    n = len(maps)
    out = a.reshape((2,) * (2 * n))
    out = out.transpose([axis for j in range(n) for axis in (j, n + j)])
    for m in maps:
        out = out.reshape(4, -1).T @ m.T
    return out.reshape([m.shape[0] for m in maps])


def stabilizer_points(group: str) -> np.ndarray:
    """(K, 4) rows taking a site's entries to <phi|a|phi> for the states phi
    its single-qubit Clifford group measures: |0>, |1>, |+>, |-> (K = 4) on
    an orthogonal site, and |+i>, |-i> too (K = 6) on a unitary one.  These
    groups are 3-designs for O(2) and U(2), so with weight 2/K (each basis is
    drawn with that probability) the points have the Haar measurement's
    moments up to the third."""
    h = np.sqrt(0.5)
    phi = np.array([[1, 0], [0, 1], [h, h], [h, -h], [h, 1j * h], [h, -1j * h]])
    phi = phi[: 4 if group == "orthogonal" else 6]
    return np.einsum("kr,kc->krc", phi.conj(), phi).reshape(-1, 4)


def _site_channel(lam_sym: float, lam_anti: float) -> np.ndarray:
    """The 4x4 map tr + lam_sym sym0 + lam_anti anti on one site's entries,
    with tr the trace part, sym0 the symmetric traceless part and anti the
    antisymmetric part of the 2x2 block."""
    s, t = lam_sym, lam_anti
    return 0.5 * np.array(
        [[1 + s, 0, 0, 1 - s], [0, s + t, s - t, 0], [0, s - t, s + t, 0], [1 - s, 0, 0, 1 + s]]
    )


def _inverse_eigenvalue(lam: float) -> float:
    return 0.0 if abs(lam) <= _ZERO_EIGENVALUE_ATOL else 1.0 / lam


def _indicator(lam: float) -> float:
    return 0.0 if abs(lam) <= _ZERO_EIGENVALUE_ATOL else 1.0


def pauli_inverse_eigenvalue(spectrum: ChannelSpectrum, letter: str) -> float:
    """The eigenvalue of M^-1 on a single-qubit Pauli letter under a qubit
    channel: 1 on I, 1/lambda_sym on the symmetric X and Z, 1/lambda_anti on
    the antisymmetric Y, and 0 where that block is annihilated (the letter is
    invisible)."""
    if letter == "I":
        return 1.0
    return _inverse_eigenvalue(spectrum.lambda_anti if letter == "Y" else spectrum.lambda_sym)


def pauli_string_inverse_eigenvalue(desc: ChannelDescriptor, p) -> float:
    """The eigenvalue of M^-1 on a Pauli string `p`, 0 when it is invisible.

    A local channel multiplies its sites' letter eigenvalues.  A global one
    takes that of the string's block: the trace block for the identity, else
    the symmetric block (read as the letter Z) for an even number of Y
    letters, since P^T = (-1)^#Y P, and the antisymmetric one (Y) for odd."""
    if desc.spec.scope == "local":
        return math.prod(
            pauli_inverse_eigenvalue(sp, letter) for sp, letter in zip(desc.spectra, p.letters)
        )
    letter = "I" if not p.support else "YZ"[p.y_count() % 2 == 0]
    return pauli_inverse_eigenvalue(desc.spectrum, letter)


def _apply_global_blocks(a: np.ndarray, lam_sym: float, lam_anti: float) -> np.ndarray:
    """tr + lam_sym sym0 + lam_anti anti for a = tr + sym0 + anti, in five
    elementwise passes: off the diagonal, tr is zero and sym0 = (a + a^T)/2;
    on it, anti is zero and sym0 = a - tr."""
    d = a.shape[0]
    tr = np.trace(a) / d
    out = (0.5 * lam_sym) * (a + a.T) + (0.5 * lam_anti) * (a - a.T)
    out.flat[:: d + 1] = lam_sym * (a.diagonal() - tr) + tr
    return out


def _dispatch(desc: ChannelDescriptor, a, eig_map) -> np.ndarray:
    m = as_operator(a)
    if m.shape[0] != desc.spec.d:
        raise ValueError(
            f"operator dimension {m.shape[0]} does not match ensemble dimension {desc.spec.d}"
        )
    if desc.spec.scope == "global":
        sp = desc.spectrum
        return _apply_global_blocks(m, eig_map(sp.lambda_sym), eig_map(sp.lambda_anti))
    n = desc.spec.n
    maps = [_site_channel(eig_map(sp.lambda_sym), eig_map(sp.lambda_anti)) for sp in desc.spectra]
    out = map_sites(m, maps).reshape((2,) * (2 * n))
    return out.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(m.shape)


def apply_channel(desc: ChannelDescriptor, a) -> np.ndarray:
    """The measurement channel M applied to an operator."""
    return _dispatch(desc, a, lambda lam: lam)


def pseudo_inverse(desc: ChannelDescriptor, a) -> np.ndarray:
    """Blockwise reciprocal of M; blocks with zero eigenvalue map to zero."""
    return _dispatch(desc, a, _inverse_eigenvalue)


def visible_projector(desc: ChannelDescriptor, a) -> np.ndarray:
    """Orthogonal projection onto the visible space (image of M)."""
    return _dispatch(desc, a, _indicator)


@dataclass(eq=False)
class InvertedObservable:
    """The pseudo-inverse M^+(A) of a dense observable A under one ensemble's
    channel, with Tr[A], formed once so that a run's estimator and variance
    predictor share it.  A itself is not kept."""

    spec: EnsembleSpec
    trace: complex
    inverse: np.ndarray


def invert(desc: ChannelDescriptor, observable) -> InvertedObservable:
    """A dense observable with its pseudo-inverse under `desc`; one already
    inverted for this ensemble is returned as it is."""
    if isinstance(observable, InvertedObservable):
        if observable.spec is not desc.spec:
            raise ValueError("the observable was inverted under another ensemble")
        return observable
    m = as_operator(observable)
    return InvertedObservable(desc.spec, np.trace(m), pseudo_inverse(desc, m))


def has_invisible_part(desc: ChannelDescriptor, observable) -> bool:
    """Whether the channel annihilates part of `observable`, so that its
    estimates see only the visible part.

    A Pauli string is invisible as a whole when its M^-1 eigenvalue is 0.  A
    dense A has an invisible part when ||A - visible_projector(A)||_2 exceeds
    1e-10 max(1, ||A||_2).
    """
    if isinstance(observable, PauliString):
        return pauli_string_inverse_eigenvalue(desc, observable) == 0.0
    m = as_operator(observable)
    return norm2(m - visible_projector(desc, m)) > 1e-10 * max(1.0, norm2(m))


def factor_visible_dimension(spectrum: ChannelSpectrum, d: int) -> int:
    """Dimension of the visible operator subspace of one d-dimensional tensor
    factor: the trace block plus every block whose eigenvalue is non-zero."""
    dim = 1
    if _indicator(spectrum.lambda_sym):
        dim += d * (d + 1) // 2 - 1
    if _indicator(spectrum.lambda_anti):
        dim += d * (d - 1) // 2
    return dim


def visible_dimension(desc: ChannelDescriptor) -> int:
    """Dimension of the visible operator subspace."""
    if desc.spec.scope == "global":
        return factor_visible_dimension(desc.spectrum, desc.spec.d)
    return math.prod(factor_visible_dimension(sp, 2) for sp in desc.spectra)


def mc_channel(rng: "sampling.RngStream", spec: EnsembleSpec, a, samples: int):
    """Definition-level Monte Carlo channel: the empirical mean of
    sum_w Tr[a U^dag Pi_w U] U^dag Pi_w U over sampled transforms.

    With rows[s, w, :] = <w| U_s, each chunk is three matmuls: the weights
    Tr[a U^dag Pi_w U] = rows a rows^dag (diagonal only) and the sum over w
    of weight * rows^dag rows.  Chunks hold at most `_CHUNK_ELEMENTS`
    elements per (chunk, d, d) array, so memory is bounded.  Each chunk draws
    its own transforms: global ones from `rng`, and a local qubit j's factors
    from `rng.child(j)`.  So a given stream yields the same draws for any
    chunk size.

    Returns (mean, stderr) with a per-entry standard error of the mean.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    m = as_operator(a)
    d = spec.d
    if m.shape[0] != d:
        raise ValueError("operator dimension does not match the ensemble")
    if spec.scope == "global":
        basis_h = spec.basis.vectors.conj().T
    else:
        sites = [(rng.child(j), g == "orthogonal") for j, g in enumerate(spec.groups)]
    total = np.zeros((d, d), dtype=complex)
    total_sq = np.zeros((d, d), dtype=float)
    chunk = max(1, _CHUNK_ELEMENTS // (d * d))
    for start in range(0, samples, chunk):
        b = min(chunk, samples - start)
        if spec.scope == "global":
            rows = basis_h @ sampling.sample_transform_arrays(rng, spec, b)
        else:
            rows = batched_kron([sampling.haar_frames(s, 2, 2, b, real=real) for s, real in sites])
        weights = ((rows @ m) * rows.conj()).sum(axis=2)
        contrib = (rows.conj() * weights[..., None]).transpose(0, 2, 1) @ rows
        total += contrib.sum(axis=0)
        total_sq += sum_abs2(contrib)
    mean = total / samples
    var = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / samples)
    return mean, stderr
