"""The sample -> measure -> invert -> estimate pipeline with median-of-means.

A shot is stored as its measured vector v = U^dag|w>, which is all any
estimator reads: Tr[O M^-1(|v><v|)] = v^dag M^-1(O) v.  ShadowRecords holds
(S, d) vectors for global ensembles and (S, n, 2) per-qubit vectors for local
ones, whose Kronecker product is the full v.  Shots are drawn from the factor
Psi of rho = Psi Psi^dag: local ones by a factor-wise Born function, global
ones by an exact direct sampler that needs no d x d Haar matrix.  Global
orthogonal shots in a real basis are real, and are stored as float64.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bases import basis_from_tag
from .channels import (
    EnsembleSpec,
    channel_for,
    has_invisible_part,
    invert,
    pauli_string_inverse_eigenvalue,
)
from .linalg import (
    batched_kron,
    check_entries,
    check_qubit_count,
    check_state,
    identity,
    is_hermitian,
)
from .pauli import PAULIS, PauliString
from .sampling import (
    MAX_SEED,
    RNG_ALGORITHM,
    RngStream,
    haar_frames,
    random_pure_state,
    sample_transform_arrays,
)
from .variance import predict_variance, random_symmetric_observable

_PROB_SUM_TOL = 1e-6

#: Largest magnitude of a configured number, which keeps every second
#: moment of an estimate (at most about |c|^2 4^n) inside float64.
_MAX_MAGNITUDE = 1e100

#: Eigenvalues of rho at or below this are rounding noise of a lower-rank
#: state; dropping them keeps the factor Psi one column wide for pure states.
_RANK_TOL = 1e-12

#: Element budget per chunk of amplitude or full-vector arrays.
_CHUNK_ELEMENTS = 1 << 22


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


def validate_state(rho, d: int | None = None) -> np.ndarray:
    """Check that `rho` is a density matrix and return its factor Psi.

    Psi has shape (d, r) with rho = Psi Psi^dag; its columns are the
    eigenvectors of rho scaled by the square roots of their eigenvalues.
    """
    m = check_state(rho, d)
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    if np.min(eigenvalues) < -1e-8:
        raise ValueError("state must be positive semidefinite (within 1e-8)")
    keep = eigenvalues > _RANK_TOL
    return eigenvectors[:, keep] * np.sqrt(eigenvalues[keep])


def _checked(p: np.ndarray) -> np.ndarray:
    sums = p.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _PROB_SUM_TOL):
        raise ValueError("Born probabilities do not sum to one; upstream corruption")
    return p / sums[:, None]


def _born_probabilities(
    factor: np.ndarray, transforms: np.ndarray, spec: EnsembleSpec
) -> np.ndarray:
    """p[s, w] = sum_k |<w| U_s |psi_k>|^2 for a chunk of local transforms.

    `factor` is Psi (d, r) with rho = Psi Psi^dag.  The transforms
    (S, n, 2, 2) act one 2x2 factor at a time, so no product matrix is
    formed.  Each site is one matmul that takes the trailing site axis of the
    amplitudes to the front, mapped: one (2 x 2)(2 x d r / 2) product per
    shot.  Qubit n - 1 goes first, on the Psi^T that every shot shares, as a
    single (2S x 2)(2 x d r / 2) product for the whole chunk, so a chunk takes
    S (n - 1) + 1 products.  The rank axis leads the site axes of Psi^T and
    trails them after qubit 0, so amp ends as (S, d, r).
    """
    s = transforms.shape[0]
    amp = transforms[:, -1].reshape(2 * s, 2) @ factor.T.reshape(-1, 2).T
    for j in range(spec.n - 2, -1, -1):
        amp = transforms[:, j] @ amp.reshape(s, -1, 2).swapaxes(1, 2)
    amp = amp.reshape(s, spec.d, -1)
    return _checked((amp.real**2 + amp.imag**2).sum(axis=2))


def _sample_outcomes(rng: RngStream, p: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    r = rng.generator.random(p.shape[0])[:, None] * cum[:, -1:]
    return np.minimum((cum < r).sum(axis=1), p.shape[1] - 1)


def _measured_vectors(
    spec: EnsembleSpec, transforms: np.ndarray, outcomes: np.ndarray
) -> np.ndarray:
    """v = U^dag|w> per local shot as (S, n, 2) per-qubit vectors.

    Outcome indices put qubit 0 in the most-significant bit.
    """
    bits = (outcomes[:, None] >> np.arange(spec.n - 1, -1, -1)) & 1
    shots = np.arange(outcomes.shape[0])[:, None]
    return transforms[shots, np.arange(spec.n), bits].conj()


def _frames(vectors: np.ndarray, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """The frame F (S, d, r0) spanning each vector, and c with vector = F c.

    Over R (orthogonal groups) F = [Re x, Im x] and c = (1, i); over C
    (unitary groups) F = [x] and c = (1,).
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
    rng.child(0..3), so the draws do not depend on the chunk size.  With
    O(d) in a real basis, G, x, Q_k, H and M are real, so v is real and only
    its real part is kept.
    """
    real = spec.groups[0] == "orthogonal"
    weights, q_mix, a_mix = _mixture_frames(factor, real)
    width = q_mix.shape[2]
    cum = np.cumsum(weights)
    column_rng, frame_rng, outcome_rng, complement_rng = (rng.child(i) for i in range(4))
    real_records = _real_records(spec)
    vectors = np.empty((shots, spec.d), dtype=float if real_records else complex)
    # About a dozen (S, d, r0) work arrays are live per chunk.
    chunk = max(1, _CHUNK_ELEMENTS // (16 * spec.d))
    for start in range(0, shots, chunk):
        s = min(chunk, shots - start)
        k = np.minimum(np.searchsorted(cum, column_rng.generator.random(s)), len(cum) - 1)
        q = q_mix[k]
        g = haar_frames(frame_rng, spec.d, width, s, real)
        phi = (g @ a_mix[k][:, :, None])[:, :, 0]
        w = _sample_outcomes(outcome_rng, _global_probabilities(spec, phi))
        x = spec.basis.vectors[:, w].T[:, :, None]
        y = g.conj().swapaxes(1, 2) @ x
        v = q @ y
        # Under O(2) the frame G spans the space and x_perp is zero.
        if spec.d >= 2 * width:
            frame, c = _frames((x - g @ y)[:, :, 0], real)
            h = haar_frames(complement_rng, spec.d, width, s, real, orthogonal_to=q)
            v += h @ (np.linalg.qr(frame, mode="r") @ c)[:, :, None]
        vectors[start : start + s] = v[:, :, 0].real if real_records else v[:, :, 0]
    return vectors


def full_vectors(spec: EnsembleSpec, vectors: np.ndarray) -> np.ndarray:
    """(S, d) measured vectors; local shots join their per-qubit vectors by
    Kronecker product, qubit 0 leftmost."""
    if spec.scope == "global":
        return vectors
    return batched_kron([vectors[:, j, :, None] for j in range(spec.n)])[:, :, 0]


def collect_records(rng: RngStream, rho, spec: EnsembleSpec, shots: int) -> ShadowRecords:
    """Draw `shots` shots on the state `rho` and keep each shot's measured vector.

    Global shots come from the direct sampler `_global_vectors`, which never
    forms a d x d transform.  Local shots draw their 2x2 factors from
    rng.child(0) and their outcomes from rng.child(1).  Every draw has its own
    sub-stream, so the whole run is reproducible.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    factor = validate_state(rho, spec.d)
    if spec.scope == "global":
        return ShadowRecords(spec, _global_vectors(rng, factor, spec, shots))
    transforms = sample_transform_arrays(rng.child(0), spec, shots)
    outcome_rng = rng.child(1)
    vectors = np.empty((shots, spec.n, 2), dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // (spec.d * factor.shape[1]))
    for start in range(0, shots, chunk):
        u = transforms[start : start + chunk]
        outcomes = _sample_outcomes(outcome_rng, _born_probabilities(factor, u, spec))
        vectors[start : start + chunk] = _measured_vectors(spec, u, outcomes)
    return ShadowRecords(spec, vectors)


def per_shot_estimates(records: ShadowRecords, observable) -> np.ndarray:
    """o_s = v_s^dag M^-1(O) v_s for every shot, without materializing shadows.

    A Pauli string c P takes one rule in every ensemble: o_s = Re(c) mu
    <v_s|P|v_s>, with mu its M^-1 eigenvalue (see `_pauli_estimates`).  A dense
    observable (or an `InvertedObservable`) contracts its pseudo-inverse
    against the full measured vectors.  Real records take the real part of
    the operator, which is exact for real v.
    """
    spec = records.spec
    if isinstance(observable, PauliString):
        if observable.n != spec.n:
            raise ValueError("observable qubit count does not match the ensemble")
        return _pauli_estimates(records, observable)
    tilde = invert(channel_for(spec), observable).inverse
    if not np.iscomplexobj(records.vectors):
        tilde = tilde.real
    values = np.empty(len(records))
    chunk = max(1, _CHUNK_ELEMENTS // spec.d)
    for start in range(0, len(records), chunk):
        v = full_vectors(spec, records.vectors[start : start + chunk])
        values[start : start + chunk] = (v @ tilde.T * v.conj()).sum(axis=1).real
    return values


def _letter_values(v: np.ndarray, letter: str) -> np.ndarray:
    """<v|P|v> per site vector v = (a, b): |a|^2 - |b|^2 for Z, and 2 Re(a* b)
    and 2 Im(a* b) for X and Y."""
    a, b = v[:, 0], v[:, 1]
    if letter == "Z":
        return a.real**2 + a.imag**2 - b.real**2 - b.imag**2
    overlap = a.conj() * b
    return 2.0 * (overlap.real if letter == "X" else overlap.imag)


def _pauli_estimates(records: ShadowRecords, p: PauliString) -> np.ndarray:
    """o_s = Re(c) mu <v_s|P|v_s> for a string c P, zeros when mu = 0.

    <v|P|v> is real, so Re(c P) reads Re(c).  A local shot's <v|P|v> is the
    product of its sites' letter values; a global one's is
    sum_j conj(v[j ^ flip]) phase[j] v[j] from the string's action, O(d)."""
    spec = records.spec
    scale = pauli_string_inverse_eigenvalue(channel_for(spec), p) * complex(p.coefficient).real
    if scale == 0.0:
        return np.zeros(len(records))
    if spec.scope == "local":
        values = np.full(len(records), scale)
        for j, letter in enumerate(p.letters):
            if letter != "I":
                values *= _letter_values(records.vectors[:, j], letter)
        return values
    flip, phase = PauliString(p.letters).action()
    phase = scale * (phase if np.iscomplexobj(records.vectors) else phase.real)
    partner = np.arange(spec.d) ^ flip
    values = np.empty(len(records))
    chunk = max(1, _CHUNK_ELEMENTS // spec.d)
    for start in range(0, len(records), chunk):
        v = records.vectors[start : start + chunk]
        values[start : start + chunk] = ((v[:, partner].conj() * v) @ phase).real
    return values


def median_of_means(values: np.ndarray, batches: int) -> float:
    """Median of `batches` batch means; the remainder folds into the last batch."""
    values = np.asarray(values)
    count = values.shape[0]
    if batches < 1:
        raise ValueError("need at least one batch")
    if batches > count:
        raise ValueError(f"cannot split {count} records into {batches} batches")
    size = count // batches
    head = (batches - 1) * size
    means = values[:head].reshape(batches - 1, size).mean(axis=1)
    return float(np.median(np.append(means, values[head:].mean())))


@dataclass
class EstimateReport:
    """Sample statistics of one observable's per-shot estimates.

    `predicted_variance` (the exact variance of one shot's estimate) and
    `bias_warning` stay None until a caller that knows the simulated state
    fills them, as `run_experiment` does.
    """

    observable_id: str
    mean: float
    median_of_means: float
    empirical_variance: float
    shots: int
    predicted_variance: float | None = None
    bias_warning: bool | None = None


def estimate(
    records: ShadowRecords, observable, batches: int = 1, observable_id: str | None = None
) -> EstimateReport:
    """Aggregate per-shot estimates into a report; reads nothing but the records."""
    values = per_shot_estimates(records, observable)
    count = values.shape[0]
    mom = median_of_means(values, batches)
    if observable_id is None:
        observable_id = str(observable) if isinstance(observable, PauliString) else "operator"
    return EstimateReport(
        observable_id=observable_id,
        mean=float(values.mean()),
        median_of_means=mom,
        empirical_variance=float(np.var(values, ddof=1)) if count >= 2 else 0.0,
        shots=count,
    )


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


def build_state(state: dict, n: int) -> np.ndarray:
    check_qubit_count(n)
    d = 2**n
    kind = state.get("kind")
    if kind == "maximally_mixed":
        return identity(d) / d
    if kind == "computational":
        if "bits" in state:
            bits = state["bits"]
            if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
                raise ConfigError(f"bits must be a string of {n} binary digits, got {bits!r}")
            state = dict(state, index=int(bits, 2))
        idx = _integer(state, "index", 0, d - 1, 0)
        rho = np.zeros((d, d), dtype=complex)
        rho[idx, idx] = 1.0
        return rho
    if kind == "random_pure":
        return random_pure_state(RngStream(_integer(state, "seed", 0, MAX_SEED, 0)), d)
    if kind == "product":
        factors = state.get("factors")
        if not isinstance(factors, list) or len(factors) != n:
            raise ConfigError("product state needs one factor label per qubit")
        try:
            vecs = [_STATE_LABELS[str(f)] for f in factors]
        except KeyError as exc:
            raise ConfigError(f"unknown single-qubit state label {exc}") from exc
        v = vecs[0]
        for w in vecs[1:]:
            v = np.kron(v, w)
        return np.outer(v, v.conj())
    raise ConfigError(f"unknown state kind {kind!r}")


def build_observable(obs: dict, n: int) -> tuple[str, PauliString | np.ndarray]:
    """(id, operator) of one configured observable.  An id may not hold a
    comma, a quote or a line break, which would break its CSV row."""
    check_qubit_count(n)
    d = 2**n
    kind = obs.get("kind", "pauli")
    if kind == "pauli":
        string = obs.get("string")
        if not isinstance(string, str) or len(string) != n or set(string.upper()) - set(PAULIS):
            raise ConfigError(f"pauli observable needs a length-{n} string of I, X, Y and Z")
        coefficient = _number(obs.get("coefficient", 1.0), "coefficient")
        op = PauliString.from_string(string, coefficient)
        default = string
    elif kind == "random_symmetric":
        seed = _integer(obs, "seed", 0, MAX_SEED, 0)
        op = random_symmetric_observable(RngStream(seed), d)
        default = f"random_symmetric:{seed}"
    elif kind == "basis_projector":
        idx = _integer(obs, "index", 0, d - 1, 0)
        op = np.zeros((d, d), dtype=complex)
        op[idx, idx] = 1.0
        default = f"projector:{idx}"
    elif kind == "matrix":
        try:
            real = np.asarray(obs.get("real"), dtype=float)
            op = real + 1j * np.asarray(obs.get("imag", 0.0), dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("matrix observable needs numeric real and imag parts") from None
        if op.shape != (d, d) or not (np.all(np.abs(op) <= _MAX_MAGNITUDE) and is_hermitian(op)):
            raise ConfigError(f"matrix observable must be Hermitian, {d} x {d}, entries <= 1e100")
        default = "matrix"
    else:
        raise ConfigError(f"unknown observable kind {kind!r}")
    oid = str(obs.get("id", default))
    if set(oid) & set(',"\r\n'):
        raise ConfigError(f"observable id {oid!r} holds a comma, a quote or a line break")
    return oid, op


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
    seed: int
    n: int
    scope: str
    groups: tuple[str, ...]
    basis_tag: str
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
        if scope == "local" and len(groups) == 1:
            groups = groups * n
        shots = _integer(cfg, "shots", 1)
        # A local shot draws n 2x2 factors, a global one a d-vector.
        check_entries(shots * (4 * n if scope == "local" else 2**n), f"{shots} shots at n = {n}")
        batches = _integer(cfg, "batches", 1, shots, default=1)
        observables = cfg["observables"]
        if not isinstance(observables, list) or not observables:
            raise ConfigError("observables must be a non-empty list")
        if not all(isinstance(o, dict) for o in [cfg["state"], *observables]):
            raise ConfigError("the state and every observable must be JSON objects")
        emit = cfg.get("emit", {}) or {}
        if not isinstance(emit, dict) or set(emit) - {"csv"}:
            raise ConfigError(f"emit takes only a csv path, got {emit!r}")
        if not isinstance(emit.get("csv") or "", str):  # open() takes an int as a file descriptor
            raise ConfigError(f"emit.csv must be a path, got {emit['csv']!r}")
        allow_bias = cfg.get("allow_bias", False)
        if not isinstance(allow_bias, bool):  # bool("false") is True
            raise ConfigError(f"allow_bias must be true or false, got {allow_bias!r}")
        return cls(
            seed=seed,
            n=n,
            scope=str(scope),
            groups=tuple(str(g) for g in groups),
            basis_tag=str(ens.get("basis", "computational")),
            state=dict(cfg["state"]),
            shots=shots,
            observables=[dict(o) for o in observables],
            batches=batches,
            out_csv=emit.get("csv"),
            allow_bias=allow_bias,
            epsilon=_epsilon(cfg.get("epsilon")),
            raw=dict(cfg),
        )

    def ensemble_spec(self) -> EnsembleSpec:
        try:
            # A local ensemble holds no basis; any other tag is refused by the spec.
            local = self.scope == "local" and self.basis_tag == "computational"
            basis = None if local else basis_from_tag(self.basis_tag, self.n)
            return EnsembleSpec(self.scope, self.groups, basis, self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def write_reports_csv(path: str, reports: list[EstimateReport]) -> None:
    lines = ["observable_id,mean,mom,emp_var,pred_var,shots,bias_warning"]
    for r in reports:
        numbers = (r.mean, r.median_of_means, r.empirical_variance, r.predicted_variance)
        flag = "true" if r.bias_warning else "false"
        cells = [repr(float(x)) for x in numbers]
        lines.append(",".join([r.observable_id, *cells, str(r.shots), flag]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig) -> list[EstimateReport]:
    """Run the full pipeline; deterministic given (seed, config).

    All observables are estimated from one shared record set.  Before any
    shot is drawn, an observable with components outside the ensemble's
    visible space raises ConfigError unless the config allows bias, and each
    variance is predicted for the simulated state, so a prediction beyond the
    size limit fails first.  Each report carries it and the invisible flag.
    """
    t0 = time.perf_counter()
    spec = config.ensemble_spec()
    rho = build_state(config.state, config.n)
    desc = channel_for(spec)
    prepared = []
    # Only the inverses are kept, so at most one dense A is alive at a time.
    for oid, obs in (build_observable(o, config.n) for o in config.observables):
        flagged = has_invisible_part(desc, obs)
        if flagged and not config.allow_bias:
            raise ConfigError(
                f"observable {oid!r} has components outside the visible space "
                "of this ensemble; rerun with --allow-bias to estimate its visible part"
            )
        if not isinstance(obs, PauliString):
            obs = invert(desc, obs)  # one pseudo-inverse for the prediction and the estimate
        prepared.append((oid, obs, flagged, predict_variance(spec, obs, rho)))
    records = collect_records(RngStream(config.seed), rho, spec, config.shots)
    reports = []
    for oid, obs, flagged, predicted in prepared:
        report = estimate(records, obs, config.batches, oid)
        report.predicted_variance, report.bias_warning = predicted, flagged
        reports.append(report)
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
            order = math.log(len(reports)) / config.epsilon / config.epsilon * max_var
            if not math.isfinite(order):
                raise ConfigError(f"epsilon {config.epsilon!r} puts the order beyond float64")
            meta["sample_complexity"] = {
                "form": "S = O(log(M) / epsilon^2 * max_i Var[o_i])",
                "m_observables": len(reports),
                "log_m": float(np.log(len(reports))),
                "epsilon": config.epsilon,
                "max_predicted_variance": max_var,
                "order_argument": order,
                "note": "order bound only; the constant is unspecified",
            }
        write_reports_csv(config.out_csv, reports)
        with open(config.out_csv + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return reports
