"""The sample -> measure -> invert -> estimate pipeline with median-of-means.

A shot is stored as its measured vector v = U^dag|w>, which is all any
estimator reads: Tr[O M^-1(|v><v|)] = v^dag M^-1(O) v.  ShadowRecords holds
(S, d) vectors for global ensembles and (S, n, 2) per-qubit vectors for local
ones, whose Kronecker product is the full v.  A configured state enters as
its factor Psi, rho = Psi Psi^dag, in closed form (`state_factor`), and
shots are drawn from Psi: local ones qubit by qubit by the chain rule of the
Born distribution, which is never formed whole, and global ones by an exact
direct sampler that needs no d x d Haar matrix.  Global orthogonal shots in
a real basis are real, and are stored as float64.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channels import (
    ChannelDescriptor,
    EnsembleSpec,
    channel_for,
    ensemble_from_tag,
    has_invisible_part,
    invert,
    pauli_string_inverse_eigenvalue,
    projector_inverse,
)
from .linalg import (
    batched_kron,
    check_entries,
    check_factor,
    check_qubit_count,
    chunk_items,
    identity,
    is_hermitian,
    kron,
)
from .pauli import PAULIS, BasisProjector, PauliString
from .sampling import (
    MAX_SEED,
    RNG_ALGORITHM,
    RngStream,
    haar_frames,
    haar_state_vector,
    sample_transform_arrays,
)
from .variance import check_local_cubature, predict_variance, random_symmetric_observable

_PROB_SUM_TOL = 1e-6

#: Largest magnitude of a configured number, which keeps every second
#: moment of an estimate (at most about |c|^2 4^n) inside float64.
_MAX_MAGNITUDE = 1e100


class ConfigError(ValueError):
    """An experiment configuration failed schema validation."""


@dataclass(eq=False)
class ShadowRecords:
    """The measured vectors v = U^dag|w> of a batch of shots.

    `vectors` is (S, d) for global ensembles and (S, n, 2) for local ones,
    where row j of a shot is the qubit-j vector U_j^dag|b_j>.  They are
    float64 for a global orthogonal ensemble in a real basis, else complex.
    """

    spec: EnsembleSpec
    vectors: np.ndarray

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _checked(p: np.ndarray) -> np.ndarray:
    sums = p.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _PROB_SUM_TOL):
        raise ValueError("Born probabilities do not sum to one; upstream corruption")
    return p / sums[:, None]


def _sample_outcomes(rng: RngStream, p: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    r = rng.generator.random(p.shape[0])[:, None] * cum[:, -1:]
    return np.minimum((cum < r).sum(axis=1), p.shape[1] - 1)


def _local_vectors(factor: np.ndarray, transforms: np.ndarray, uniforms: np.ndarray):
    """Measured vectors (S, n, 2) of local shots, drawn qubit by qubit.

    `factor` is Psi (d, r) with rho = Psi Psi^dag, `transforms` a chunk's
    (S, n, 2, 2) factors and `uniforms` one draw in [0, 1) per shot.  At
    qubit j the amplitudes a of the bits drawn so far (Psi itself, shared by
    every shot, at qubit 0) split into the halves a_0, a_1 of bit j, and
    their 2x2 Gram matrix G gives the masses m_b = ||U_j[b] a||^2 of both
    branches in O(1).  A shot's target starts at u (m_0 + m_1); the bit is
    m_0 < target, which then drops by m_0, and only the chosen branch
    U_j[b] a is carried on, so a shot costs O(d r), not the O(n d r) of its
    whole Born distribution.  This is the inverse CDF of that distribution
    with qubit 0 the most-significant bit, so for the same uniforms the
    outcomes are those of `_sample_outcomes` up to rounding.  Qubit j's
    measured vector is the conjugate of its chosen transform row.  The
    masses must add up to 1 at qubit 0 and to Tr G after it.
    """
    s, n = transforms.shape[:2]
    bits = np.empty((s, n), dtype=np.intp)
    amp = np.ascontiguousarray(factor, dtype=complex).reshape(1, 2, -1)
    for j in range(n):
        u = transforms[:, j]
        parts = amp.view(float)
        norms = np.einsum("sbh,sbh->sb", parts, parts)  # ||a_0||^2, ||a_1||^2
        overlap = np.einsum("sh,sh->s", amp[:, 0].conj(), amp[:, 1])  # <a_0, a_1>
        weights = u.real**2 + u.imag**2
        cross = 2.0 * (u[:, :, 0].conj() * u[:, :, 1] * overlap[:, None]).real
        masses = weights[:, :, 0] * norms[:, :1] + weights[:, :, 1] * norms[:, 1:] + cross
        total = masses[:, 0] + masses[:, 1]
        expected = 1.0 if j == 0 else norms[:, 0] + norms[:, 1]
        if np.any(np.abs(total - expected) > _PROB_SUM_TOL):
            raise ValueError("Born probabilities do not sum to one; upstream corruption")
        if j == 0:
            target = uniforms * total
        one = masses[:, 0] < target
        target = target - np.where(one, masses[:, 0], 0.0)
        bits[:, j] = one
        if j < n - 1:
            rows = np.where(one[:, None], u[:, 1], u[:, 0])
            # Qubit 0 is one GEMM against Psi; later qubits combine each shot's halves.
            chosen = rows @ amp[0] if j == 0 else np.einsum("sc,sch->sh", rows, amp)
            amp = chosen.reshape(s, 2, -1)
    return transforms[np.arange(s)[:, None], np.arange(n), bits].conj()


def _frames(vectors: np.ndarray, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """The frame F (S, d, r0) spanning each vector, and c with vector = F c.

    Over R (orthogonal groups) F = [Re x, Im x] and c = (1, i); over C
    (unitary groups), or for vectors known to be real, F = [x] and c = (1,).
    """
    if real:
        return np.stack([vectors.real, vectors.imag], axis=2), np.array([1.0, 1.0j])
    return vectors[:, :, None], np.ones(1)


def _mixture_frames(factor: np.ndarray, real: bool):
    """rho = sum_k lam_k |psi_k><psi_k| as weights lam_k, orthonormal frames
    Q_k (r, d, r0) and coefficients a_k (r, r0) with psi_k = Q_k a_k."""
    weights = (factor.real**2 + factor.imag**2).sum(axis=0)
    frame, c = _frames((factor / np.sqrt(weights)).T, real)
    q, upper = np.linalg.qr(frame)
    return weights / weights.sum(), q, upper @ c


def _global_probabilities(spec: EnsembleSpec, phi: np.ndarray) -> np.ndarray:
    """p[s, w] = |<w|phi_s>|^2 in the ensemble's measurement basis."""
    basis = spec.basis.vectors
    amp = phi if spec.basis.tag == "computational" else phi @ basis.conj()
    return _checked(amp.real**2 + amp.imag**2)


def _real_records(spec: EnsembleSpec) -> bool:
    """True when every measured vector is real: O(d) in a basis of real vectors."""
    return spec.groups[0] == "orthogonal" and not spec.basis.vectors.imag.any()


def _global_vectors(rng: RngStream, factor: np.ndarray, spec: EnsembleSpec, shots: int):
    """Measured vectors v = U^dag|w> of global shots, drawn exactly without U.

    Per shot: draw a mixture column k, and G, the Haar image U Q_k of its
    frame; then phi = G a_k = U psi_k gives the outcome w.  Writing
    x = |w> = G G^dag x + x_perp, U^dag maps the first part to Q_k G^dag x and
    is, given G, a Haar isometry from range(G)^perp onto range(Q_k)^perp.  Its
    image of x_perp is H M c: H a Haar frame in range(Q_k)^perp and M the R of
    the frame of x_perp (any M with M^dag M equal to that frame's Gram matrix
    gives the same law).  O(d) work per shot, plus basis^dag phi for a
    non-computational basis.  Columns, G, outcomes and H draw from
    rng.child(0..3), so the draws do not depend on the chunk size.  In a
    real basis x_perp is real, so its frame and H have one column; under
    O(d) there G, x, Q_k and H are real, and v is formed in real arithmetic.
    """
    real = spec.groups[0] == "orthogonal"
    weights, q_mix, a_mix = _mixture_frames(factor, real)
    width = q_mix.shape[2]
    cum = np.cumsum(weights)
    column_rng, frame_rng, outcome_rng, complement_rng = (rng.child(i) for i in range(4))
    complex_basis = spec.basis.vectors.imag.any()
    basis = spec.basis.vectors.real if _real_records(spec) else spec.basis.vectors
    vectors = np.empty((shots, spec.d), dtype=basis.dtype)
    # The work arrays of a chunk take about 160 d bytes per shot.
    chunk = chunk_items(160 * spec.d)
    for start in range(0, shots, chunk):
        s = min(chunk, shots - start)
        k = np.minimum(np.searchsorted(cum, column_rng.generator.random(s)), len(cum) - 1)
        q = q_mix[k]
        g = haar_frames(frame_rng, spec.d, width, s, real)
        phi = (g @ a_mix[k][:, :, None])[:, :, 0]
        w = _sample_outcomes(outcome_rng, _global_probabilities(spec, phi))
        x = basis[:, w].T[:, :, None]
        y = g.conj().swapaxes(1, 2) @ x
        v = q @ y
        # Under O(2) the frame G spans the space and x_perp is zero.
        if spec.d >= 2 * width:
            frame, c = _frames((x - g @ y)[:, :, 0], real and complex_basis)
            upper = np.linalg.qr(frame, mode="r")
            h = haar_frames(complement_rng, spec.d, len(c), s, real, orthogonal_to=q)
            v += h @ (upper @ c)[:, :, None]
        vectors[start : start + s] = v[:, :, 0]
    return vectors


def full_vectors(spec: EnsembleSpec, vectors: np.ndarray) -> np.ndarray:
    """(S, d) measured vectors; local shots join their per-qubit vectors by
    Kronecker product, qubit 0 leftmost."""
    if spec.scope == "global":
        return vectors
    return batched_kron([vectors[:, j, :, None] for j in range(spec.n)])[:, :, 0]


def collect_records(rng: RngStream, factor, spec: EnsembleSpec, shots: int) -> ShadowRecords:
    """Draw `shots` shots on rho = Psi Psi^dag, Psi the (d, r) `factor`, and keep their vectors.

    Global shots come from the direct sampler `_global_vectors`, which never
    forms a d x d transform.  Local shots draw qubit j's 2x2 factors from
    rng.child(0).child(j) and one uniform each from rng.child(1), which
    `_local_vectors` turns into an outcome, chunk by chunk, so the run is
    reproducible and independent of the chunk size.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    factor = check_factor(factor, spec.d)
    if spec.scope == "global":
        return ShadowRecords(spec, _global_vectors(rng, factor, spec, shots))
    streams = [rng.child(0).child(j) for j in range(spec.n)]
    outcome_rng = rng.child(1)
    vectors = np.empty((shots, spec.n, 2), dtype=complex)
    # A shot's halves of Psi take about 16 d r bytes, and its transforms,
    # their draws and its vectors about 128 n.
    chunk = chunk_items(16 * spec.d * factor.shape[1] + 128 * spec.n)
    for start in range(0, shots, chunk):
        s = min(chunk, shots - start)
        u = sample_transform_arrays(streams, spec, s)
        vectors[start : start + s] = _local_vectors(factor, u, outcome_rng.generator.random(s))
    return ShadowRecords(spec, vectors)


def per_shot_table(records: ShadowRecords, observables) -> np.ndarray:
    """The C-contiguous (N, S) table of o_s = v_s^dag M^-1(O) v_s: one row per
    observable, in order, and one column per shot, without materializing
    shadows.

    An observable is a Pauli string, a basis projector, a dense Hermitian
    matrix, or a (B, d, d) stack of them or its `InvertedObservable`, which
    fills B rows.  A Pauli string c P takes one rule in every ensemble:
    o_s = mu c <v_s|P|v_s> from `PauliString.expectations`, with mu its M^-1
    eigenvalue, and zeros when mu = 0.  A basis projector takes its closed
    form in every channel, one diagonal D_f per factor (`projector_inverse`),
    and o_s = prod_f sum_r D_f[r] |v_f[r]|^2 is read from the records, in
    O(d) per shot under one factor and O(n) under qubit factors.  A dense
    stack contracts its pseudo-inverses against the full measured vectors,
    one batched product per chunk.  Real records take the real part of each
    operator, which is exact for real v, and a real operator reads complex v
    as the rows Re v and Im v, whose two estimates add up to o_s, so it is
    contracted in real arithmetic either way.
    """
    spec = records.spec
    desc = channel_for(spec)
    operands = [_operand(desc, o) for o in observables]
    heights = [1 if _is_product(o) else math.prod(o.inverse.shape[:-2]) for o in operands]
    table = np.empty((sum(heights), len(records)))
    rows = np.cumsum([0, *heights])
    for o, top, height in zip(operands, rows, heights):
        out = table[top : top + height]
        if isinstance(o, PauliString):
            mu = pauli_string_inverse_eigenvalue(desc, o)
            # The string's partner entries and their products: 48 d bytes per shot.
            chunk = chunk_items(48 * spec.d)
            kernel = _pauli_kernel(o, mu)
        elif isinstance(o, BasisProjector):
            diagonals = projector_inverse(desc, o)
            # Each entry's |v_f[r]|^2 and its parts, and each factor's sum:
            # 28 bytes per entry of a shot at most.
            chunk = chunk_items(28 * diagonals.size)
            kernel = _projector_kernel(diagonals)
        else:
            stack = o.inverse.reshape(height, spec.d, spec.d)
            if not np.iscomplexobj(records.vectors):
                stack = stack.real
            # The full vectors and the stack's images of them, of the real and
            # imaginary rows for complex v: 32 d (1 + B) bytes per shot at most.
            chunk = chunk_items(32 * spec.d * (1 + height))
            kernel = _dense_kernel(spec, stack)
        for start in range(0, len(records), chunk):
            out[:, start : start + chunk] = kernel(records.vectors[start : start + chunk])
    return table


def _is_product(o) -> bool:
    """Whether an operand is read by a product rule rather than as a dense stack."""
    return isinstance(o, (PauliString, BasisProjector))


def _operand(desc: ChannelDescriptor, o):
    """An observable as `per_shot_table` and `run_experiment` use it: a
    product as it is, and anything else as its pseudo-inverse."""
    return o if _is_product(o) else invert(desc, o)


def _projector_kernel(diagonals: np.ndarray):
    """o_s = prod_f sum_r D_f[r] |v_f[r]|^2 for a basis projector's (F, k)
    diagonals D_f, with the records viewed as (S, F, k): (S, 1, d) under a
    global ensemble and (S, n, 2) under a local one."""

    def kernel(v):
        v = v.reshape(len(v), *diagonals.shape)
        return np.einsum("sfr,fr->sf", v.real**2 + v.imag**2, diagonals).prod(axis=1)

    return kernel


def _pauli_kernel(p: PauliString, mu: float):
    if mu == 0.0:
        return lambda v: 0.0
    return lambda v: mu * p.expectations(v)


def _dense_kernel(spec: EnsembleSpec, stack: np.ndarray):
    transposed = np.swapaxes(stack, 1, 2)

    def kernel(v):
        v = full_vectors(spec, v)
        if np.iscomplexobj(stack) or not np.iscomplexobj(v):
            return np.einsum("bsi,si->bs", v @ transposed, v.conj()).real
        parts = np.concatenate([v.real, v.imag])
        halves = np.einsum("bsi,si->bs", parts @ transposed, parts)
        return halves[:, : len(v)] + halves[:, len(v) :]

    return kernel


def median_of_means(values: np.ndarray, batches: int):
    """Median of `batches` batch means along the last axis, one per row of a
    table; the remainder folds into the last batch."""
    values = np.asarray(values)
    count = values.shape[-1]
    if batches < 1:
        raise ValueError("need at least one batch")
    if batches > count:
        raise ValueError(f"cannot split {count} records into {batches} batches")
    size = count // batches
    head = (batches - 1) * size
    means = values[..., :head].reshape(*values.shape[:-1], batches - 1, size).mean(axis=-1)
    last = values[..., head:].mean(axis=-1, keepdims=True)
    return np.median(np.concatenate([means, last], axis=-1), axis=-1)


@dataclass
class EstimateReport:
    """Sample statistics of one observable's per-shot estimates, with the
    exact variance of one shot's estimate on the simulated state and whether
    the observable has components outside the visible space."""

    observable_id: str
    mean: float
    median_of_means: float
    empirical_variance: float
    shots: int
    predicted_variance: float
    bias_warning: bool


def _reports(table: np.ndarray, batches: int, rows) -> list[EstimateReport]:
    """One report per row of an (N, S) per-shot table and per (id, flag,
    prediction) of `rows`: the mean, the median of `batches` batch means and
    the ddof = 1 variance (0 for a single shot), each one numpy reduction
    along the rows."""
    shots = table.shape[1]
    moms = median_of_means(table, batches)
    means = table.mean(axis=1)
    variances = np.var(table, axis=1, ddof=1) if shots >= 2 else np.zeros(len(table))
    return [
        EstimateReport(oid, float(mean), float(mom), float(var), shots, float(pred), bool(flag))
        for (oid, flag, pred), mean, mom, var in zip(rows, means, moms, variances, strict=True)
    ]


# ---------------------------------------------------------------------------
# Experiment configuration and the runnable front end.

_STATE_LABELS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "+i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "-i": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


def state_factor(state: dict, n: int) -> np.ndarray:
    """The (d, r) factor Psi of a configured state, rho = Psi Psi^dag, in
    closed form: I/sqrt(d) for the maximally mixed state, e_i for a
    computational one, the Haar vector of its seed for a random pure one and
    the Kronecker product of its labels for a product one."""
    check_qubit_count(n)
    d = 2**n
    kind = state.get("kind")
    if kind == "maximally_mixed":
        return identity(d) * np.sqrt(1.0 / d)
    if kind == "computational":
        if "bits" in state:
            bits = state["bits"]
            if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
                raise ConfigError(f"bits must be a string of {n} binary digits, got {bits!r}")
            state = dict(state, index=int(bits, 2))
        psi = np.zeros((d, 1), dtype=complex)
        psi[_integer(state, "index", 0, d - 1, 0)] = 1.0
        return psi
    if kind == "random_pure":
        return haar_state_vector(RngStream(_integer(state, "seed", 0, MAX_SEED, 0)), d)[:, None]
    if kind == "product":
        factors = state.get("factors")
        if not isinstance(factors, list) or len(factors) != n:
            raise ConfigError("product state needs one factor label per qubit")
        try:
            vecs = [_STATE_LABELS[str(f)] for f in factors]
        except KeyError as exc:
            raise ConfigError(f"unknown single-qubit state label {exc}") from exc
        return kron(*vecs)[:, None]
    raise ConfigError(f"unknown state kind {kind!r}")


def build_state(state: dict, n: int) -> np.ndarray:
    """The dense density matrix Psi Psi^dag of a configured state, with I/d
    in closed form."""
    if state.get("kind") == "maximally_mixed":
        check_qubit_count(n)
        return identity(2**n) / 2**n
    psi = state_factor(state, n)
    return psi @ psi.conj().T


def _parse_observable(obs: dict, n: int) -> tuple[str, str, PauliString | int | None]:
    """(kind, id, key) of one configured observable, checked without anything
    of dimension 2^n: the key is the Pauli string, the seed or the basis index
    (None for a matrix), and the id is "id" or a default from the kind and
    key.  An id may not hold a comma, a quote or a line break, which would
    break its CSV row, nor read as a non-finite number (NaN, inf or 1e999, in
    any case and with spaces), which CSV readers parse as a float."""
    kind = obs.get("kind", "pauli")
    if kind == "pauli":
        string = obs.get("string")
        if not isinstance(string, str) or len(string) != n or set(string.upper()) - set(PAULIS):
            raise ConfigError(f"pauli observable needs a length-{n} string of I, X, Y and Z")
        coefficient = _number(obs.get("coefficient", 1.0), "coefficient")
        key, default = PauliString.from_string(string, coefficient), string
    elif kind == "random_symmetric":
        key = _integer(obs, "seed", 0, MAX_SEED, 0)
        default = f"random_symmetric:{key}"
    elif kind == "basis_projector":
        key = _integer(obs, "index", 0, 2**n - 1, 0)
        default = f"projector:{key}"
    elif kind == "matrix":
        key, default = None, "matrix"
    else:
        raise ConfigError(f"unknown observable kind {kind!r}")
    oid = str(obs.get("id", default))
    if set(oid) & set(',"\r\n'):
        raise ConfigError(f"observable id {oid!r} holds a comma, a quote or a line break")
    if _non_finite_number(oid):
        raise ConfigError(f"observable id {oid!r} reads as a non-finite number")
    return kind, oid, key


def _non_finite_number(text: str) -> bool:
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


def build_observable(obs: dict, n: int) -> tuple[str, PauliString | BasisProjector | np.ndarray]:
    """(id, operator) of one configured observable: a `PauliString`, a
    `BasisProjector` or a dense operator, which is float64 when it is real (a
    random symmetric draw, a matrix without an imaginary part) and complex
    otherwise."""
    check_qubit_count(n)
    d = 2**n
    kind, oid, key = _parse_observable(obs, n)
    if kind == "pauli":
        return oid, key
    if kind == "random_symmetric":
        return oid, random_symmetric_observable(RngStream(key), d)
    if kind == "basis_projector":
        return oid, BasisProjector.from_index(key, n)
    parts = obs.get("real"), obs.get("imag", 0.0)
    try:
        if _holds_bool(parts):  # numpy reads true and false as 1.0 and 0.0
            raise ValueError
        real, imag = (np.asarray(part, dtype=float) for part in parts)
        op = real + 1j * imag if imag.any() else real + imag  # an all-zero imag keeps A real
    except (TypeError, ValueError):
        raise ConfigError("matrix observable needs numeric real and imag parts") from None
    if op.shape != (d, d) or not (np.all(np.abs(op) <= _MAX_MAGNITUDE) and is_hermitian(op)):
        raise ConfigError(f"matrix observable must be Hermitian, {d} x {d}, entries <= 1e100")
    return oid, 0.5 * (op + op.conj().T)  # its Hermitian part: A itself when A is exactly Hermitian


def _holds_bool(value) -> bool:
    """Whether a JSON value is true or false, or holds one in its lists at any depth."""
    level = [value]
    while level:
        if any(isinstance(v, bool) for v in level):
            return True
        level = [x for v in level if isinstance(v, (list, tuple)) for x in v]
    return False


def _integer(cfg: dict, key: str, low: int, high: int | None = None, default=None) -> int:
    """cfg[key] as an int in [low, high], or ConfigError naming the key."""
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if number < low or (high is not None and number > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{key} must be {bounds}, got {number}")
    return number


def _number(value, key: str) -> float:
    """`value` as a real number of magnitude at most _MAX_MAGNITUDE, or
    ConfigError naming the key; a complex value such as "1j" is refused."""
    try:
        if isinstance(value, bool):
            raise ValueError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a real number, got {value!r}") from None
    if not abs(number) <= _MAX_MAGNITUDE:  # NaN fails too
        raise ConfigError(f"{key} must be a number of magnitude at most 1e100, got {value!r}")
    return number


def _epsilon(value) -> float | None:
    if value is None:
        return None
    number = _number(value, "epsilon")
    if not number > 0.0:
        raise ConfigError(f"epsilon must be a finite positive number, got {value!r}")
    return number


@dataclass
class ExperimentConfig:
    """A validated experiment, holding the ensemble that `from_dict` builds."""

    seed: int
    ensemble: EnsembleSpec
    state: dict
    shots: int
    observables: list[dict]
    batches: int = 1
    out_csv: str | None = None
    allow_bias: bool = False
    epsilon: float | None = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("configuration must be a JSON object")
        required = ("seed", "n", "ensemble", "state", "shots", "observables")
        missing = [k for k in required if k not in cfg]
        if missing:
            raise ConfigError(f"missing configuration keys: {missing}")
        ens = cfg["ensemble"]
        if not isinstance(ens, dict) or "scope" not in ens:
            raise ConfigError("ensemble must be an object with a scope")
        scope = ens["scope"]
        groups = ens.get("groups", ["orthogonal"])
        if isinstance(groups, str):
            groups = [groups]
        if not isinstance(groups, list):
            raise ConfigError(f"groups must be a group name or a list of them, got {groups!r}")
        seed = _integer(cfg, "seed", 0, MAX_SEED)
        n = _integer(cfg, "n", 1)
        check_qubit_count(n)
        shots = _integer(cfg, "shots", 1)
        # A local shot draws n 2x2 factors, a global one a d-vector.
        check_entries(shots * (4 * n if scope == "local" else 2**n), f"{shots} shots at n = {n}")
        batches = _integer(cfg, "batches", 1, shots, default=1)
        observables = cfg["observables"]
        if not isinstance(observables, list) or not observables:
            raise ConfigError("observables must be a non-empty list")
        if not all(isinstance(o, dict) for o in [cfg["state"], *observables]):
            raise ConfigError("the state and every observable must be JSON objects")
        ids = set()
        for o in observables:
            oid = _parse_observable(o, n)[1]
            if oid in ids:  # the CSV would hold two rows of that id
                raise ConfigError(f"observable id {oid!r} names more than one observable")
            ids.add(oid)
        emit = {} if cfg.get("emit") is None else cfg["emit"]
        if not isinstance(emit, dict) or set(emit) - {"csv"}:
            raise ConfigError(f"emit must be an object that takes only a csv path, got {emit!r}")
        csv = emit.get("csv")
        # open() takes an int as a file descriptor, and "" would mean no CSV.
        if csv is not None and not (isinstance(csv, str) and csv):
            raise ConfigError(f"emit.csv must be a non-empty path, got {csv!r}")
        allow_bias = cfg.get("allow_bias", False)
        if not isinstance(allow_bias, bool):  # bool("false") is True
            raise ConfigError(f"allow_bias must be true or false, got {allow_bias!r}")
        groups, basis_tag = tuple(str(g) for g in groups), str(ens.get("basis", "computational"))
        try:
            ensemble = ensemble_from_tag(str(scope), groups, basis_tag, n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(
            seed=seed,
            ensemble=ensemble,
            state=dict(cfg["state"]),
            shots=shots,
            observables=[dict(o) for o in observables],
            batches=batches,
            out_csv=emit.get("csv"),
            allow_bias=allow_bias,
            epsilon=_epsilon(cfg.get("epsilon")),
            raw=dict(cfg),
        )

    @property
    def n(self) -> int:
        return self.ensemble.n

    def ensemble_spec(self) -> EnsembleSpec:
        return self.ensemble


def write_reports_csv(path: str, reports: list[EstimateReport]) -> None:
    lines = ["observable_id,mean,mom,emp_var,pred_var,shots,bias_warning"]
    for r in reports:
        numbers = (r.mean, r.median_of_means, r.empirical_variance, r.predicted_variance)
        flag = "true" if r.bias_warning else "false"
        cells = [repr(float(x)) for x in numbers]
        lines.append(",".join([r.observable_id, *cells, str(r.shots), flag]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _operand_blocks(config: ExperimentConfig):
    """Yield (ids, operand) over a config's observables in config order: each
    Pauli string and each basis projector alone, and dense observables built
    as needed and stacked in blocks of consecutive ones of one dtype (a real
    A stays real), so that a block's checks, pseudo-inverses and predictions
    take one pass."""
    block = []
    for obs in config.observables:
        oid, op = build_observable(obs, config.n)
        if _is_product(op):
            if block:
                yield _stacked(block)
            yield [oid], op
            continue
        # A block's stack, the passes over it and its inverses hold about four
        # arrays of each operator's size.
        if block and (op.dtype != block[0][1].dtype or len(block) == chunk_items(4 * op.nbytes)):
            yield _stacked(block)
        block.append((oid, op))
    if block:
        yield _stacked(block)


def _stacked(block: list) -> tuple[list, np.ndarray]:
    """(ids, stack) of a block of (id, operator), which is emptied, so only
    the stack holds its operators."""
    ids, ops = zip(*block)
    block.clear()
    return list(ids), np.stack(ops)


def run_experiment(config: ExperimentConfig) -> list[EstimateReport]:
    """Run the full pipeline; deterministic given (seed, config).

    All observables are estimated from one shared record set, and each stage
    is one pass over them: Pauli strings and basis projectors keep their
    closed forms, and dense
    observables come in the blocks of `_operand_blocks`, each with one
    visibility check, one pseudo-inverse and, under a global ensemble, one
    variance prediction.  Before any shot is drawn, every variance is
    predicted for the simulated state, and an observable with components
    outside the ensemble's visible space raises ConfigError unless the
    config allows bias (the first such one is named).  Every stage sees the
    observables in config order: the per-shot estimates fill one (N, shots)
    table, and each of its rows gives one report, built with its prediction
    and its invisible flag.
    """
    t0 = time.perf_counter()
    spec = config.ensemble
    # Before the state and any dense observable; the product kinds need no cubature.
    if spec.scope == "local" and any(
        o.get("kind", "pauli") not in ("pauli", "basis_projector") for o in config.observables
    ):
        check_local_cubature(spec.groups)
    factor = check_factor(state_factor(config.state, config.n), spec.d)
    desc = channel_for(spec)
    operands, rows = [], []  # rows: (id, flag, prediction) per table row
    # A dense block's working arrays fit in one CHUNK_BYTES; only its inverses are kept.
    for ids, obs in _operand_blocks(config):
        flags = has_invisible_part(desc, obs)
        obs = _operand(desc, obs)  # one pseudo-inverse for the predictions and the estimates
        predicted = predict_variance(spec, obs, factor)
        rows += zip(ids, np.atleast_1d(flags), np.atleast_1d(predicted))
        operands.append(obs)
    flagged = [oid for oid, flag, _ in rows if flag]
    if flagged and not config.allow_bias:
        raise ConfigError(
            f"observable {flagged[0]!r} has components outside the visible space "
            "of this ensemble; rerun with --allow-bias to estimate its visible part"
        )
    records = collect_records(RngStream(config.seed), factor, spec, config.shots)
    reports = _reports(per_shot_table(records, operands), config.batches, rows)
    if config.out_csv:
        meta = {
            "seed": config.seed,
            "rng_algorithm": RNG_ALGORITHM,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "ensemble": spec.label(),
            "config": config.raw,
            "wall_time_s": time.perf_counter() - t0,
        }
        if config.epsilon is not None:
            max_var = max(r.predicted_variance for r in reports)
            # In Python floats a quotient beyond float64 is inf, with no warning.
            argument = math.log(len(reports)) / config.epsilon / config.epsilon * max_var
            if not math.isfinite(argument):
                raise ConfigError(f"epsilon {config.epsilon!r} puts the order beyond float64")
            meta["sample_complexity"] = {
                "form": "S = O(log(M) / epsilon^2 * max_i Var[o_i])",
                "m_observables": len(reports),
                "log_m": float(np.log(len(reports))),
                "epsilon": config.epsilon,
                "max_predicted_variance": max_var,
                "order_argument": argument,
                "note": "order bound only; the constant is unspecified",
            }
        write_reports_csv(config.out_csv, reports)
        with open(config.out_csv + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return reports
