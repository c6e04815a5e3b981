"""NSL-KDD record parsing, feature schema construction and [0,1] encoding.

NSL-KDD rows are comma-separated with 43 fields: 41 traffic features, the
attack label, and a difficulty score. The 41 features split into four sets
(intrinsic 1-9, content 10-22, time-based 23-31, host-based 32-41) and into
three kinds: 3 symbolic multi-valued features (protocol_type, service, flag),
6 binary flags, and 32 continuous values.

Encoding converts symbolic tokens to 1-based vocabulary indices, then
min-max normalizes every feature into [0,1] using ranges measured on the
detector training half only. Test-time values outside the training range
(including never-seen service tokens) are clamped by default.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

N_FEATURES = 41

CONTINUOUS = "continuous"
DISCRETE_MULTI = "discrete_multi"
DISCRETE_BINARY = "discrete_binary"

INTRINSIC = "intrinsic"
CONTENT = "content"
TIME_BASED = "time_based"
HOST_BASED = "host_based"

# (name, kind, set) for each of the 41 features, in file order.
FEATURE_TABLE = (
    ("duration", CONTINUOUS, INTRINSIC),
    ("protocol_type", DISCRETE_MULTI, INTRINSIC),
    ("service", DISCRETE_MULTI, INTRINSIC),
    ("flag", DISCRETE_MULTI, INTRINSIC),
    ("src_bytes", CONTINUOUS, INTRINSIC),
    ("dst_bytes", CONTINUOUS, INTRINSIC),
    ("land", DISCRETE_BINARY, INTRINSIC),
    ("wrong_fragment", CONTINUOUS, INTRINSIC),
    ("urgent", CONTINUOUS, INTRINSIC),
    ("hot", CONTINUOUS, CONTENT),
    ("num_failed_logins", CONTINUOUS, CONTENT),
    ("logged_in", DISCRETE_BINARY, CONTENT),
    ("num_compromised", CONTINUOUS, CONTENT),
    ("root_shell", DISCRETE_BINARY, CONTENT),
    ("su_attempted", DISCRETE_BINARY, CONTENT),
    ("num_root", CONTINUOUS, CONTENT),
    ("num_file_creations", CONTINUOUS, CONTENT),
    ("num_shells", CONTINUOUS, CONTENT),
    ("num_access_files", CONTINUOUS, CONTENT),
    ("num_outbound_cmds", CONTINUOUS, CONTENT),
    ("is_host_login", DISCRETE_BINARY, CONTENT),
    ("is_guest_login", DISCRETE_BINARY, CONTENT),
    ("count", CONTINUOUS, TIME_BASED),
    ("srv_count", CONTINUOUS, TIME_BASED),
    ("serror_rate", CONTINUOUS, TIME_BASED),
    ("srv_serror_rate", CONTINUOUS, TIME_BASED),
    ("rerror_rate", CONTINUOUS, TIME_BASED),
    ("srv_rerror_rate", CONTINUOUS, TIME_BASED),
    ("same_srv_rate", CONTINUOUS, TIME_BASED),
    ("diff_srv_rate", CONTINUOUS, TIME_BASED),
    ("srv_diff_host_rate", CONTINUOUS, TIME_BASED),
    ("dst_host_count", CONTINUOUS, HOST_BASED),
    ("dst_host_srv_count", CONTINUOUS, HOST_BASED),
    ("dst_host_same_srv_rate", CONTINUOUS, HOST_BASED),
    ("dst_host_diff_srv_rate", CONTINUOUS, HOST_BASED),
    ("dst_host_same_src_port_rate", CONTINUOUS, HOST_BASED),
    ("dst_host_srv_diff_host_rate", CONTINUOUS, HOST_BASED),
    ("dst_host_serror_rate", CONTINUOUS, HOST_BASED),
    ("dst_host_srv_serror_rate", CONTINUOUS, HOST_BASED),
    ("dst_host_rerror_rate", CONTINUOUS, HOST_BASED),
    ("dst_host_srv_rerror_rate", CONTINUOUS, HOST_BASED),
)

FEATURE_NAMES = tuple(name for name, _, _ in FEATURE_TABLE)
FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

# protocol_type order is fixed so tcp/udp/icmp always encode as 1/2/3.
PROTOCOL_SEED = ("tcp", "udp", "icmp")


class AttackCategory(Enum):
    NORMAL = "normal"
    PROBE = "probe"
    DOS = "dos"
    U2R = "u2r"
    R2L = "r2l"


# Attack-name taxonomy covering both KDDTrain+ and KDDTest+ labels,
# following the original KDD'99 contest categorization.
ATTACK_TAXONOMY = {
    "normal": AttackCategory.NORMAL,
    # DoS
    "apache2": AttackCategory.DOS,
    "back": AttackCategory.DOS,
    "land": AttackCategory.DOS,
    "mailbomb": AttackCategory.DOS,
    "neptune": AttackCategory.DOS,
    "pod": AttackCategory.DOS,
    "processtable": AttackCategory.DOS,
    "smurf": AttackCategory.DOS,
    "teardrop": AttackCategory.DOS,
    "udpstorm": AttackCategory.DOS,
    # Probe
    "ipsweep": AttackCategory.PROBE,
    "mscan": AttackCategory.PROBE,
    "nmap": AttackCategory.PROBE,
    "portsweep": AttackCategory.PROBE,
    "saint": AttackCategory.PROBE,
    "satan": AttackCategory.PROBE,
    # U2R
    "buffer_overflow": AttackCategory.U2R,
    "httptunnel": AttackCategory.U2R,
    "loadmodule": AttackCategory.U2R,
    "perl": AttackCategory.U2R,
    "ps": AttackCategory.U2R,
    "rootkit": AttackCategory.U2R,
    "sqlattack": AttackCategory.U2R,
    "xterm": AttackCategory.U2R,
    # R2L
    "ftp_write": AttackCategory.R2L,
    "guess_passwd": AttackCategory.R2L,
    "imap": AttackCategory.R2L,
    "multihop": AttackCategory.R2L,
    "named": AttackCategory.R2L,
    "phf": AttackCategory.R2L,
    "sendmail": AttackCategory.R2L,
    "snmpgetattack": AttackCategory.R2L,
    "snmpguess": AttackCategory.R2L,
    "spy": AttackCategory.R2L,
    "warezclient": AttackCategory.R2L,
    "warezmaster": AttackCategory.R2L,
    "worm": AttackCategory.R2L,
    "xlock": AttackCategory.R2L,
    "xsnoop": AttackCategory.R2L,
}

SCHEMA_FORMAT_VERSION = 1


class MalformedRecord(ValueError):
    """Raised when a line does not parse as a 43-field NSL-KDD row."""


class UnknownAttack(KeyError):
    """Raised for attack labels absent from the embedded taxonomy."""


class EmptyDataset(ValueError):
    """Raised when schema construction receives no records."""


class UnknownToken(KeyError):
    """Raised for out-of-vocabulary symbolic tokens when clamping is off."""


@dataclass(frozen=True)
class RawRecord:
    """One parsed NSL-KDD line: 41 feature tokens + label + difficulty."""

    features: tuple
    attack_name: str
    difficulty: int

    @property
    def category(self) -> AttackCategory:
        return map_attack(self.attack_name)


@dataclass(frozen=True)
class EncodedVector:
    """A 41-dim traffic vector with every element in [0,1]."""

    values: np.ndarray
    category: AttackCategory


def map_attack(attack_name: str) -> AttackCategory:
    """Map an NSL-KDD attack label to its category."""
    try:
        return ATTACK_TAXONOMY[attack_name.strip().lower()]
    except KeyError:
        raise UnknownAttack(f"attack name not in taxonomy: {attack_name!r}") from None


def parse_record(line: str, lineno: int | None = None) -> RawRecord:
    """Parse one comma-separated NSL-KDD row (41 features + label + difficulty)."""
    where = f" (line {lineno})" if lineno is not None else ""
    fields = [f.strip() for f in line.strip().split(",")]
    if len(fields) != N_FEATURES + 2:
        raise MalformedRecord(
            f"expected {N_FEATURES + 2} fields, got {len(fields)}{where}"
        )
    try:
        difficulty = int(fields[-1])
    except ValueError:
        raise MalformedRecord(
            f"difficulty is not an integer: {fields[-1]!r}{where}"
        ) from None
    return RawRecord(
        features=tuple(fields[:N_FEATURES]),
        attack_name=fields[-2],
        difficulty=difficulty,
    )


def load_file(path) -> list[RawRecord]:
    """Read an NSL-KDD text file; parse errors carry the 1-based line number."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            records.append(parse_record(line, lineno=lineno))
    return records


@dataclass
class FeatureSchema:
    """Per-feature kind/set metadata, symbolic vocabularies and train ranges.

    ``vocabs`` maps each discrete_multi feature index to its ordered token
    list; a token's encoded value is its 1-based position. ``fmin``/``fmax``
    are measured after symbolic conversion, on the detector training half.
    """

    vocabs: dict = field(default_factory=dict)
    fmin: np.ndarray = None
    fmax: np.ndarray = None

    names = FEATURE_NAMES

    @staticmethod
    def kind(i: int) -> str:
        return FEATURE_TABLE[i][1]

    @staticmethod
    def feature_set(i: int) -> str:
        return FEATURE_TABLE[i][2]

    @staticmethod
    def indices_of_kind(kind: str) -> tuple:
        return tuple(i for i, (_, k, _) in enumerate(FEATURE_TABLE) if k == kind)

    @staticmethod
    def indices_of_set(fset: str) -> tuple:
        return tuple(i for i, (_, _, s) in enumerate(FEATURE_TABLE) if s == fset)

    @property
    def binary_indices(self) -> tuple:
        return self.indices_of_kind(DISCRETE_BINARY)

    def to_text(self) -> str:
        """Render the schema as a line-oriented text artifact (round-trips)."""
        lines = [f"# nslkdd-schema v{SCHEMA_FORMAT_VERSION}"]
        for i, (name, kind, fset) in enumerate(FEATURE_TABLE):
            vocab = ",".join(self.vocabs.get(i, ()))
            lines.append(
                f"{name}\t{kind}\t{fset}\t{vocab}\t"
                f"{float(self.fmin[i])!r}\t{float(self.fmax[i])!r}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FeatureSchema":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0]
        if not header.startswith("# nslkdd-schema"):
            raise ValueError("not a schema artifact")
        body = lines[1:]
        if len(body) != N_FEATURES:
            raise ValueError(f"schema artifact has {len(body)} feature lines")
        vocabs = {}
        fmin = np.zeros(N_FEATURES)
        fmax = np.zeros(N_FEATURES)
        for i, ln in enumerate(body):
            name, kind, fset, vocab, lo, hi = ln.split("\t")
            if name != FEATURE_NAMES[i] or kind != FEATURE_TABLE[i][1]:
                raise ValueError(f"schema line {i} does not match feature table")
            if vocab:
                vocabs[i] = vocab.split(",")
            fmin[i] = float(lo)
            fmax[i] = float(hi)
        return cls(vocabs=vocabs, fmin=fmin, fmax=fmax)

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "FeatureSchema":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def _numeric_value(schema: FeatureSchema, i: int, token: str, clamp: bool) -> float:
    """Convert one raw token to its pre-normalization numeric value."""
    kind = FEATURE_TABLE[i][1]
    if kind == DISCRETE_MULTI:
        vocab = schema.vocabs[i]
        try:
            return float(vocab.index(token) + 1)
        except ValueError:
            if not clamp:
                raise UnknownToken(
                    f"{FEATURE_NAMES[i]}: token {token!r} not in vocabulary"
                ) from None
            # Unknown tokens sit one past the known vocabulary, so the
            # range clamp below pins them to the top of the train range.
            return float(len(vocab) + 1)
    value = float(token)
    if FEATURE_NAMES[i] == "su_attempted" and value == 2.0:
        value = 0.0
    return value


def build_schema(train_records: list) -> FeatureSchema:
    """Build vocabularies and train min/max ranges from the training half."""
    if not train_records:
        raise EmptyDataset("no training records")

    vocabs = {}
    for i in FeatureSchema.indices_of_kind(DISCRETE_MULTI):
        seed = PROTOCOL_SEED if FEATURE_NAMES[i] == "protocol_type" else ()
        vocab = list(seed)
        seen = set(vocab)
        for rec in train_records:
            tok = rec.features[i]
            if tok not in seen:
                seen.add(tok)
                vocab.append(tok)
        vocabs[i] = vocab

    schema = FeatureSchema(vocabs=vocabs, fmin=np.zeros(N_FEATURES), fmax=np.zeros(N_FEATURES))
    raw = np.empty((len(train_records), N_FEATURES))
    for r, rec in enumerate(train_records):
        for i in range(N_FEATURES):
            raw[r, i] = _numeric_value(schema, i, rec.features[i], clamp=False)
    schema.fmin = raw.min(axis=0)
    schema.fmax = raw.max(axis=0)
    for i in FeatureSchema.indices_of_kind(DISCRETE_BINARY):
        schema.fmin[i] = 0.0
        schema.fmax[i] = 1.0
    return schema


def encode(record: RawRecord, schema: FeatureSchema, clamp: bool = True) -> EncodedVector:
    """Min-max normalize one record into [0,1]^41 under the given schema."""
    x = np.empty(N_FEATURES)
    for i in range(N_FEATURES):
        x[i] = _numeric_value(schema, i, record.features[i], clamp=clamp)
    if clamp:
        x = np.clip(x, schema.fmin, schema.fmax)
    span = schema.fmax - schema.fmin
    out = np.where(span > 0.0, (x - schema.fmin) / np.where(span > 0.0, span, 1.0), 0.0)
    return EncodedVector(values=out, category=record.category)


def encode_batch(records: list, schema: FeatureSchema, clamp: bool = True):
    """Encode records into an (n, 41) matrix plus the category list."""
    mat = np.empty((len(records), N_FEATURES))
    cats = []
    for r, rec in enumerate(records):
        enc = encode(rec, schema, clamp=clamp)
        mat[r] = enc.values
        cats.append(enc.category)
    return mat, cats


def decode_value(schema: FeatureSchema, i: int, normalized: float) -> float:
    """Invert the min-max map for one feature (constant features return fmin)."""
    return schema.fmin[i] + normalized * (schema.fmax[i] - schema.fmin[i])


def split_indices(records: list, seed: int):
    """Deterministic near-equal split of record positions into two halves.

    The shuffle is stratified per attack category and assignment alternates
    between halves, so every category with at least two records lands in
    both halves while the overall half sizes differ by at most one.
    """
    rng = np.random.default_rng(seed)
    by_cat = {}
    for idx, rec in enumerate(records):
        by_cat.setdefault(rec.category.value, []).append(idx)

    half_a, half_b = [], []
    turn = 0
    for cat in sorted(by_cat):
        idxs = np.array(by_cat[cat], dtype=int)
        rng.shuffle(idxs)
        for idx in idxs:
            (half_a if turn == 0 else half_b).append(int(idx))
            turn ^= 1

    a = np.array(half_a, dtype=int)
    b = np.array(half_b, dtype=int)
    rng.shuffle(a)
    rng.shuffle(b)
    return a.tolist(), b.tolist()


def split_train(records: list, seed: int):
    """Split records into the detector half and the generator half."""
    a, b = split_indices(records, seed)
    return [records[i] for i in a], [records[i] for i in b]
