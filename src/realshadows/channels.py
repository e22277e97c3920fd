"""Measurement channels for every ensemble: block spectra, pseudo-inverses,
visible-space projectors, and the one rule that decides visibility.

An ensemble's Haar group splits into tensor factors, one of dimension d for
global O(d) or U(d) and n qubits for a local ensemble, and its channel is the
product of theirs: a `ChannelDescriptor` is (d, one `ChannelSpectrum` per
factor), made only by `channel_for`, and every channel function reads only
the factors.  A factor acts on the trace part (eigenvalue 1), the
symmetric-traceless part and the antisymmetric part of its input as

    lambda_sym  = (d + alpha - 2) / ((d - 1)(d + 2))      (orthogonal)
    lambda_anti = (d - alpha)     / (d (d - 1))           (orthogonal)
    lambda_sym  = lambda_anti = 1 / (d + 1)               (unitary)

with d its dimension and alpha its basis's total reality, 2 on a qubit
(orthogonal qubit: Y killed, X/Z scaled by 1/2; unitary: X/Y/Z by 1/3).  A
dense operator takes five elementwise block passes under one factor, or one
4x4 map per qubit factor through `map_sites`; run site by site, the block
passes take 4 to 5 times as long (n = 6 and 9, one thread).  A basis
projector has a closed form in every channel, a product of one diagonal
per factor (`projector_inverse`), in O(d) under one factor and O(n) under
qubit factors.  M^+(A) depends only on the spectra, so an
`InvertedObservable` is tied to its channel by value.  A block with
eigenvalue 0 is invisible: the estimators see only the rest of an
observable, and `has_invisible_part` decides that.  Dense superoperator
matrices appear only in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import MeasurementBasis, basis_from_tag
from .linalg import (
    as_operator,
    as_operators,
    batched_kron,
    chunk_items,
    is_hermitian,
    norm2,
    sum_abs2,
)
from .pauli import BasisProjector, PauliString
from . import sampling

GROUPS = ("unitary", "orthogonal")

#: Eigenvalues smaller than this are treated as exact zeros of the channel.
_ZERO_EIGENVALUE_ATOL = 1e-12

_LOCAL_BASIS = "local ensembles measure in the computational basis"


@dataclass(eq=False)
class EnsembleSpec:
    """An ensemble as its Haar groups and its measurement basis: one global
    factor of dimension `basis.d` sampled from its single group, or without a
    basis (`None`) one qubit factor per group, measured in the computational
    basis.  `scope`, `n`, `d` and `factor_dim` are derived from the two."""

    groups: tuple[str, ...]
    basis: MeasurementBasis | None

    def __post_init__(self):
        self.groups = tuple(self.groups)
        if not self.groups:
            raise ValueError("an ensemble samples at least one group")
        for g in self.groups:
            if g not in GROUPS:
                raise ValueError(f"unknown group {g!r}")
        if self.basis is not None:
            if len(self.groups) != 1:
                raise ValueError("a basis takes exactly one group")
            if self.n < 1 or self.d != self.basis.d:
                raise ValueError(f"basis dimension {self.basis.d} is not a power of two >= 2")

    @property
    def scope(self) -> str:
        return "local" if self.basis is None else "global"

    @property
    def n(self) -> int:
        return len(self.groups) if self.basis is None else self.basis.d.bit_length() - 1

    @property
    def d(self) -> int:
        return 2**self.n

    @property
    def factor_dim(self) -> int:
        """Dimension of each Haar factor, one per group: d (global) or 2 (local)."""
        return 2 if self.basis is None else self.basis.d

    def label(self) -> str:
        groups = self.groups[0] if len(set(self.groups)) == 1 else ",".join(self.groups)
        tag = self.basis.tag if self.basis else "computational"
        return f"{self.scope}-{groups}({tag})"


def global_ensemble(group: str, basis: MeasurementBasis) -> EnsembleSpec:
    return EnsembleSpec((group,), basis)


def local_ensemble(groups, n: int) -> EnsembleSpec:
    if isinstance(groups, str):
        groups = (groups,) * n
    if len(groups) != n:
        raise ValueError("local ensembles need one group per qubit")
    return EnsembleSpec(groups, None)


def ensemble_from_tag(scope: str, groups, basis_tag: str, n: int) -> EnsembleSpec:
    """The ensemble of a config or CLI flag.  Only a global scope builds the
    tag's basis: a local one refuses any tag but "computational" before a
    basis of dimension 2^n is allocated, and spreads a single group over its
    n qubits."""
    if scope == "global":
        return EnsembleSpec(groups, basis_from_tag(basis_tag, n))
    if scope != "local":
        raise ValueError(f"unknown scope {scope!r}")
    if basis_tag != "computational":
        raise ValueError(_LOCAL_BASIS)
    return local_ensemble(groups * n if len(groups) == 1 else groups, n)


@dataclass(frozen=True)
class ChannelSpectrum:
    """Blockwise action of a measurement channel on one tensor factor, whose
    `p_alpha` is 1 - lambda_sym.  The blocks fix the channel, so alpha is a
    label that equality skips."""

    lambda_sym: float
    lambda_anti: float
    alpha: float = field(compare=False)

    @property
    def p_alpha(self) -> float:
        """The p of D_p(A) = p Tr[A] I/d + (1 - p) A on a symmetric A."""
        return 1.0 - self.lambda_sym


def orthogonal_spectrum(d: int, alpha: float) -> ChannelSpectrum:
    return ChannelSpectrum(
        lambda_sym=(d + alpha - 2.0) / ((d - 1.0) * (d + 2.0)),
        lambda_anti=(d - alpha) / (d * (d - 1.0)),
        alpha=float(alpha),
    )


def unitary_spectrum(d: int, alpha: float = float("nan")) -> ChannelSpectrum:
    lam = 1.0 / (d + 1.0)
    return ChannelSpectrum(lambda_sym=lam, lambda_anti=lam, alpha=alpha)


@dataclass(frozen=True)
class ChannelDescriptor:
    """A channel on dimension d as the spectra of its Haar factors: one of
    dimension d (global) or one per qubit (local), compared by value."""

    d: int
    spectra: tuple[ChannelSpectrum, ...]


def channel_for(spec: EnsembleSpec) -> ChannelDescriptor:
    """The channel of an ensemble: one spectrum per group, of dimension
    `spec.factor_dim`, at alpha the basis's total reality, or 2 for a qubit
    measured in its computational basis."""
    alpha = 2.0 if spec.basis is None else spec.basis.alpha_total
    spectra = (orthogonal_spectrum if g == "orthogonal" else unitary_spectrum for g in spec.groups)
    return ChannelDescriptor(spec.d, tuple(f(spec.factor_dim, alpha) for f in spectra))


# ---------------------------------------------------------------------------
# Per-site maps: a (K, 4) matrix takes the 2x2 entries (a00, a01, a10, a11)
# that qubit j's row and column bits pick out of an operator to K values.


def map_sites(a: np.ndarray, maps) -> np.ndarray:
    """out[..., k_0, ..., k_{n-1}] = sum_{r, c} a[..., r, c] prod_j maps[j][k_j, 2 r_j + c_j]
    for an n-qubit operator a, or each of a (..., 2^n, 2^n) stack, and one
    (K_j, 4) matrix per qubit, qubit 0 leftmost.  Each site is one matmul
    that takes the leading site axis to the end, mapped, so the result grows
    site by site to prod_j K_j entries per operator."""
    n, lead = len(maps), a.shape[:-2]
    out = a.reshape(lead + (2,) * (2 * n))
    b = len(lead)
    out = out.transpose([*range(b), *(b + axis for j in range(n) for axis in (j, n + j))])
    count = math.prod(lead)
    for m in maps:
        out = out.reshape(count, 4, -1).swapaxes(1, 2) @ m.T
    return out.reshape(lead + tuple(m.shape[0] for m in maps))


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


def pauli_inverse_eigenvalue(spectrum: ChannelSpectrum, letters) -> float:
    """The eigenvalue of M^-1 under one factor on the Pauli letters that fall
    in it (a single letter on a qubit): 1 on the trace block (all I), else
    1/lambda_sym on the symmetric block for an even number of Y, since
    P^T = (-1)^#Y P, and 1/lambda_anti on the antisymmetric one for odd; 0
    where that block is annihilated (the letters are invisible)."""
    if letters.count("I") == len(letters):
        return 1.0
    odd = letters.count("Y") % 2
    return _inverse_eigenvalue(spectrum.lambda_anti if odd else spectrum.lambda_sym)


def _qubits_per_factor(desc: ChannelDescriptor, p) -> int:
    """The qubits of a product observable `p` in each of the channel's
    factors; `p` must act on the channel's dimension."""
    if 2**p.n != desc.d:
        raise ValueError("observable qubit count does not match the ensemble")
    return p.n // len(desc.spectra)


def pauli_string_inverse_eigenvalue(desc: ChannelDescriptor, p) -> float:
    """The eigenvalue of M^-1 on a Pauli string `p`, a product over the
    channel's factors; 0 when it is invisible."""
    m = _qubits_per_factor(desc, p)
    return math.prod(
        pauli_inverse_eigenvalue(sp, p.letters[j * m : (j + 1) * m])
        for j, sp in enumerate(desc.spectra)
    )


def projector_inverse(desc: ChannelDescriptor, p: BasisProjector) -> np.ndarray:
    """The (F, k) diagonals D_f of M^+(|b><b|) = (x)_f diag(D_f) for a basis
    projector `p`, one per factor f of dimension k.  In a factor,
    |b_f><b_f| is I/k plus a symmetric traceless part, which M^+ scales by
    s_f = 1/lambda_sym (0 when that block is invisible), so
    D_f = (1 - s_f)/k + s_f [r = b_f]."""
    m = _qubits_per_factor(desc, p)
    s = np.array([_inverse_eigenvalue(sp.lambda_sym) for sp in desc.spectra])[:, None]
    diagonals = np.repeat((1.0 - s) / 2**m, 2**m, axis=1)
    bits = np.reshape(p.bits, (-1, m)) @ (1 << np.arange(m - 1, -1, -1))
    diagonals[np.arange(len(s)), bits] += s[:, 0]
    return diagonals


def _apply_global_blocks(a: np.ndarray, lam_sym: float, lam_anti: float) -> np.ndarray:
    """tr + lam_sym sym0 + lam_anti anti for a = tr + sym0 + anti, in five
    elementwise passes: off the diagonal, tr is zero and sym0 = (a + a^T)/2;
    on it, anti is zero and sym0 = a - tr.  `a` may be a (..., d, d) stack,
    which keeps its dtype."""
    d = a.shape[-1]
    tr = np.einsum("...ii->...", a)[..., None] / d
    a_t = np.swapaxes(a, -1, -2)
    out = (0.5 * lam_sym) * (a + a_t) + (0.5 * lam_anti) * (a - a_t)
    np.einsum("...ii->...i", out)[...] = lam_sym * (np.diagonal(a, 0, -2, -1) - tr) + tr
    return out


def _dispatch(desc: ChannelDescriptor, a, eig_map) -> np.ndarray:
    """Each factor's blocks scaled by eig_map of their eigenvalues, for an
    operator or each of a (..., d, d) stack in one pass, in its own dtype:
    the block passes for one factor, the 4x4 site maps for qubit factors."""
    m = as_operators(a)
    if m.shape[-1] != desc.d:
        raise ValueError(
            f"operator dimension {m.shape[-1]} does not match ensemble dimension {desc.d}"
        )
    blocks = [(eig_map(sp.lambda_sym), eig_map(sp.lambda_anti)) for sp in desc.spectra]
    if len(blocks) == 1:
        return _apply_global_blocks(m, *blocks[0])
    n, b = len(blocks), m.ndim - 2
    out = map_sites(m, [_site_channel(*x) for x in blocks]).reshape(m.shape[:b] + (2,) * (2 * n))
    rows, columns = range(b, b + 2 * n, 2), range(b + 1, b + 2 * n, 2)
    return out.transpose([*range(b), *rows, *columns]).reshape(m.shape)


def apply_channel(desc: ChannelDescriptor, a) -> np.ndarray:
    """The measurement channel M applied to an operator or each of a stack;
    a real operator stays real."""
    return _dispatch(desc, a, lambda lam: lam)


def pseudo_inverse(desc: ChannelDescriptor, a) -> np.ndarray:
    """Blockwise reciprocal of M, on an operator or each of a stack; blocks
    with zero eigenvalue map to zero, and a real operator stays real."""
    return _dispatch(desc, a, _inverse_eigenvalue)


def visible_projector(desc: ChannelDescriptor, a) -> np.ndarray:
    """Orthogonal projection onto the visible space (image of M), of an
    operator or each of a stack; a real operator stays real."""
    return _dispatch(desc, a, _indicator)


@dataclass(eq=False)
class InvertedObservable:
    """The pseudo-inverse M^+(A) of a dense Hermitian observable A under a
    channel, with Tr[A], formed once so that a run's estimator and variance
    predictor share it; or of each A of a (B, d, d) stack, with `inverse`
    (B, d, d) and `trace` (B,).  A itself is not kept."""

    channel: ChannelDescriptor
    trace: complex | np.ndarray
    inverse: np.ndarray


def invert(desc: ChannelDescriptor, observable) -> InvertedObservable:
    """A dense observable, or each of a (B, d, d) stack, Hermitian within
    1e-10, with its pseudo-inverse under `desc` in its own dtype, so a real
    observable stays real; one already inverted under an equal channel is
    returned."""
    if isinstance(observable, InvertedObservable):
        if observable.channel != desc:
            raise ValueError("the observable was inverted under another channel")
        return observable
    m = as_operators(observable)
    if not is_hermitian(m):
        raise ValueError("a dense observable must be Hermitian (within 1e-10)")
    return InvertedObservable(desc, np.trace(m, axis1=-2, axis2=-1), pseudo_inverse(desc, m))


def has_invisible_part(desc: ChannelDescriptor, observable):
    """Whether the channel annihilates part of `observable`, so that its
    estimates see only the visible part: a bool, or one per operator of a
    (B, d, d) stack.

    A Pauli string is invisible as a whole when its M^-1 eigenvalue is 0.  A
    dense A has an invisible part when ||A - visible_projector(A)||_2 exceeds
    1e-10 max(1, ||A||_2).  A basis projector, a product over the factors of
    I/k plus a nonzero symmetric traceless part, has one exactly when some
    factor's lambda_sym is 0.
    """
    if isinstance(observable, PauliString):
        return pauli_string_inverse_eigenvalue(desc, observable) == 0.0
    if isinstance(observable, BasisProjector):
        _qubits_per_factor(desc, observable)
        return not all(_indicator(sp.lambda_sym) for sp in desc.spectra)
    m = as_operators(observable)
    flags = norm2(m - visible_projector(desc, m)) > 1e-10 * np.maximum(1.0, norm2(m))
    return flags if flags.ndim else bool(flags)


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
    """Dimension of the visible operator subspace, a product over factors."""
    k = 2 ** ((desc.d.bit_length() - 1) // len(desc.spectra))
    return math.prod(factor_visible_dimension(sp, k) for sp in desc.spectra)


def mc_channel(rng: "sampling.RngStream", spec: EnsembleSpec, a, samples: int):
    """Definition-level Monte Carlo channel: the empirical mean of
    sum_w Tr[a U^dag Pi_w U] U^dag Pi_w U over sampled transforms.

    With rows[s, w, :] = <w| U_s, each chunk is three matmuls: the weights
    Tr[a U^dag Pi_w U] = rows a rows^dag (diagonal only) and the sum over w
    of weight * rows^dag rows.  U is the Kronecker product of one Haar draw
    per factor, and rows = basis^dag U when the ensemble has a basis other
    than the computational one, where the product is the identity.  Chunks
    are sized by `linalg.chunk_items`, so memory is bounded.  Each chunk
    draws its factors by `sampling.sample_transform_arrays`, factor j from
    `rng.child(j)`, so a given stream yields the same draws for any chunk size.

    Returns (mean, stderr) with a per-entry standard error of the mean.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    m = as_operator(a)
    d = spec.d
    if m.shape[0] != d:
        raise ValueError("operator dimension does not match the ensemble")
    streams = [rng.child(j) for j in range(len(spec.groups))]
    computational = spec.basis is None or spec.basis.tag == "computational"
    basis_h = None if computational else spec.basis.vectors.conj().T
    total = np.zeros((d, d), dtype=complex)
    total_sq = np.zeros((d, d), dtype=float)
    # rows, rows a, the weighted rows and contrib: four complex (d, d) arrays per sample.
    chunk = chunk_items(64 * d * d)
    for start in range(0, samples, chunk):
        b = min(chunk, samples - start)
        u = sampling.sample_transform_arrays(streams, spec, b)
        rows = batched_kron([u[:, j] for j in range(len(streams))])
        if basis_h is not None:
            rows = basis_h @ rows
        weights = ((rows @ m) * rows.conj()).sum(axis=2)
        contrib = (rows.conj() * weights[..., None]).transpose(0, 2, 1) @ rows
        total += contrib.sum(axis=0)
        total_sq += sum_abs2(contrib)
    mean = total / samples
    var = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / samples)
    return mean, stderr
