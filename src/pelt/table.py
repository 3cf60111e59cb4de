"""Pluggable entity lookup table.

An entity embedding is the constant-norm rescaling of the summed output
representations of its masked occurrences: only the direction of the sum
survives, so any positive scaling factor applied before rescaling leaves the
stored vector unchanged. Tables carry the fingerprint of the checkpoint
that produced them and refuse to be used with any other: load_table and
probe.run_probe check the pairing, once each.

Table file layout (little-endian): magic "PELTTBL1", u32 version, 32-byte
checkpoint fingerprint, u32 D, f32 norm constant L, u32 entry count, then
per entry: u32 id length, UTF-8 id bytes, u32 occurrence count, D f32 values.
"""

import struct
from dataclasses import dataclass

import numpy as np

from pelt.checkpoint import _Reader, fingerprint
from pelt.corpus import OCCURRENCE_CAP, index_occurrences
from pelt.errors import (ConfigError, ContractError, DegenerateDirectionError,
                         FingerprintError, FormatError, NoOccurrencesError)
from pelt.model import masked_outputs

TABLE_MAGIC = b"PELTTBL1"
TABLE_VERSION = 1


@dataclass(frozen=True)
class TableEntry:
    vector: np.ndarray  # (D,) float32, norm L
    count: int


@dataclass
class EntityEmbeddingTable:
    fingerprint: bytes
    dim: int
    norm_l: float
    entries: dict  # entity id -> TableEntry, in sorted id order

    def __contains__(self, entity_id):
        return entity_id in self.entries

    def __len__(self):
        return len(self.entries)

    def vector(self, entity_id):
        return self.entries[entity_id].vector


def verify_table(table, ckpt):
    """A table is only pluggable into the model that produced it; returns
    the checkpoint fingerprint it checked against."""
    fp = fingerprint(ckpt)
    if table.fingerprint != fp:
        raise FingerprintError(
            "table fingerprint does not match checkpoint: "
            f"table={table.fingerprint.hex()} checkpoint={fp.hex()}")
    if table.dim != ckpt.config.dim:
        raise ConfigError(f"table D={table.dim} but checkpoint D={ckpt.config.dim}")
    return fp


def check_norm_l(norm_l):
    """ConfigError unless the norm constant L is finite and positive."""
    if not (np.isfinite(norm_l) and norm_l > 0):
        raise ConfigError(f"norm constant L={norm_l:g} is not finite and positive")


def sum_direction(r_vectors):
    """Unit direction of the vector sum, accumulated in float64."""
    r = np.asarray(r_vectors, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] < 1:
        raise ContractError(f"need a non-empty (m, D) stack, got shape {r.shape}")
    s = r.sum(axis=0)
    norm = float(np.linalg.norm(s))
    if norm == 0.0:
        raise DegenerateDirectionError("summed output representations have zero norm")
    return s / norm


@dataclass
class DirectionSet:
    """Per-entity unit directions; rescaling them is how the norm sweep
    reuses one collection pass across every L."""
    fingerprint: bytes
    dim: int
    directions: dict  # entity id -> (unit f64 vector, occurrence count)
    skipped: list  # entity ids with no occurrences


def collect_directions(entity_ids, sentences, ckpt, cap=OCCURRENCE_CAP):
    """Index every entity in one pass, encode each distinct occurrence once
    in one call (entities share masked sentence shapes, so one occurrence
    can serve several), then sum each entity's masked outputs."""
    indexed = index_occurrences(sorted(set(entity_ids)), sentences, cap=cap)
    row = {}  # distinct occurrence -> its row of r, in first-encounter order
    rows = {eid: [row.setdefault(o, len(row)) for o in occ] for eid, occ in indexed.items()}
    r = masked_outputs(ckpt, [o.tokens for o in row], [o.mask_pos for o in row])
    directions = {eid: (sum_direction(r[i]), len(i)) for eid, i in rows.items() if i}
    skipped = [eid for eid, i in rows.items() if not i]
    return DirectionSet(fingerprint(ckpt), ckpt.config.dim, directions, skipped)


def table_from_directions(dirset, norm_l):
    """Each entry is L times its entity's unit direction, stored as float32."""
    check_norm_l(norm_l)
    entries = {}
    for eid in sorted(dirset.directions):
        direction, count = dirset.directions[eid]
        vec = (norm_l * direction).astype(np.float32)
        entries[eid] = TableEntry(vec, count)
    return EntityEmbeddingTable(dirset.fingerprint, dirset.dim, float(norm_l), entries)


def build_table(entity_ids, sentences, ckpt, norm_l, cap=OCCURRENCE_CAP):
    """Check L, index, collect, aggregate; returns (table, skipped entity ids)."""
    check_norm_l(norm_l)
    dirset = collect_directions(entity_ids, sentences, ckpt, cap=cap)
    return table_from_directions(dirset, norm_l), dirset.skipped


# ---------------------------------------------------------------------------
# Analytic oracle for the loss-decomposition claim
# ---------------------------------------------------------------------------

_PROBE_POINTS = 3  # random embeddings at which the surrogate gradient is checked


@dataclass(frozen=True)
class DirectionOracleReport:
    surrogate_max_deviation: float
    full_step_cosine: float
    partition_size: int
    occurrence_count: int


def surrogate_gradient_deviation(r_vectors, emb_rows, seed=0):
    """Max |grad + sum(r)| of the frozen-partition loss over random points.

    With the partition function frozen (the new entity excluded from it) the
    loss is linear in the entity embedding, so its gradient equals minus the
    summed output representations exactly; the tape's gradient is compared
    against that closed form at several random embeddings.
    """
    from scipy.special import logsumexp

    from pelt.tensor import Tensor, linear

    r = np.asarray(r_vectors, dtype=np.float64)
    emb = np.asarray(emb_rows, dtype=np.float64)
    target = -r.sum(axis=0)
    log_z = logsumexp(emb @ r.T, axis=0)  # (m,) constants: entity excluded
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_PROBE_POINTS):
        point = Tensor(rng.normal(0.0, 1.0, (1, r.shape[1])), requires_grad=True)
        terms = linear(point, Tensor(-r.T), Tensor(log_z))  # (1, m) per-occurrence losses
        linear(terms, Tensor(np.ones((r.shape[0], 1))), Tensor(np.zeros(1))).backward()
        worst = max(worst, float(np.max(np.abs(point.grad - target))))
    return worst


def full_step_cosine(r_vectors, emb_rows):
    """Cosine between the first full-loss gradient step from E(e)=0 and sum(r).

    The full loss keeps the new entity inside the partition function; with a
    large partition vocabulary the per-occurrence reweighting is nearly
    uniform and the step direction aligns with the summed representations.
    """
    from scipy.special import expit, logsumexp

    r = np.asarray(r_vectors, dtype=np.float64)
    emb = np.asarray(emb_rows, dtype=np.float64)
    log_z = logsumexp(emb @ r.T, axis=0)  # (m,) partition without the entity
    p = expit(-log_z)  # entity probability at E(e)=0: 1 / (1 + Z)
    step = ((1.0 - p)[:, None] * r).sum(axis=0)  # -gradient of the full loss
    s = r.sum(axis=0)
    denom = np.linalg.norm(step) * np.linalg.norm(s)
    if denom == 0.0:
        raise DegenerateDirectionError("zero-norm direction in oracle")
    return float(step @ s / denom)


def gradient_direction_oracle(entity_id, occurrences, ckpt, partition_rows=None, seed=0):
    """Run both checks for one entity against a checkpoint.

    ``partition_rows`` overrides the embedding rows used as the partition
    vocabulary (defaults to the checkpoint's full embedding matrix), which is
    how the vocabulary-size dependence of the approximation is demonstrated.
    """
    if not occurrences:
        raise NoOccurrencesError(entity_id)
    r = masked_outputs(ckpt, [o.tokens for o in occurrences],
                       [o.mask_pos for o in occurrences]).astype(np.float64)
    emb = ckpt.params["emb.word"].data.astype(np.float64) \
        if partition_rows is None else np.asarray(partition_rows, dtype=np.float64)
    return DirectionOracleReport(
        surrogate_max_deviation=surrogate_gradient_deviation(r, emb, seed=seed),
        full_step_cosine=full_step_cosine(r, emb),
        partition_size=emb.shape[0],
        occurrence_count=len(occurrences),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_table(table):
    import io
    buf = io.BytesIO()
    buf.write(TABLE_MAGIC)
    buf.write(struct.pack("<I", TABLE_VERSION))
    if len(table.fingerprint) != 32:
        raise FormatError("table fingerprint must be 32 bytes")
    buf.write(table.fingerprint)
    buf.write(struct.pack("<I", table.dim))
    buf.write(struct.pack("<f", table.norm_l))
    buf.write(struct.pack("<I", len(table.entries)))
    for eid in sorted(table.entries):
        entry = table.entries[eid]
        raw = eid.encode("utf-8")
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<I", entry.count))
        buf.write(np.ascontiguousarray(entry.vector, dtype="<f4").tobytes())
    return buf.getvalue()


def save_table(table, path):
    data = serialize_table(table)
    with open(path, "wb") as f:
        f.write(data)


def load_table(path, ckpt):
    """Load a table; FingerprintError unless ``ckpt`` is the one that built it."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, str(path))
    if r.take(len(TABLE_MAGIC)) != TABLE_MAGIC:
        raise FormatError(f"{path}: bad magic, not an entity table file")
    (version,) = r.unpack("<I")
    if version != TABLE_VERSION:
        raise FormatError(f"{path}: unsupported table version {version}")
    fp = r.take(32)
    (dim,) = r.unpack("<I")
    (norm_l,) = r.unpack("<f")
    try:
        check_norm_l(norm_l)
    except ConfigError as err:
        raise FormatError(f"{path}: {err}") from None
    (count,) = r.unpack("<I")
    entries = {}
    for _ in range(count):
        eid = r.text()
        if eid in entries:
            raise FormatError(f"{path}: entity {eid!r} appears twice")
        (occ,) = r.unpack("<I")
        vec = np.frombuffer(r.take(4 * dim), dtype="<f4").copy()
        norm = float(np.linalg.norm(vec.astype(np.float64)))
        if abs(norm - norm_l) > 4 * np.finfo(np.float32).eps * norm_l:  # f32 rounding
            raise FormatError(f"{path}: entity {eid!r} has norm {norm}, not L={norm_l}")
        entries[eid] = TableEntry(vec, occ)
    r.done()
    table = EntityEmbeddingTable(fp, dim, float(norm_l), entries)
    verify_table(table, ckpt)
    return table
