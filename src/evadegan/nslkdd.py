"""NSL-KDD parsing, feature schema construction and [0,1] encoding, by column.

NSL-KDD rows are comma-separated with 43 fields: 41 traffic features, the
attack label, and a difficulty score. The 41 features split into four sets
(intrinsic 1-9, content 10-22, time-based 23-31, host-based 32-41) and into
three kinds: 3 symbolic multi-valued features (protocol_type, service, flag),
6 binary flags, and 32 continuous values.

`load_file` reads a whole file into one columnar `Records` set. Blank lines
are skipped; every other line must have 43 fields, an integer difficulty,
finite numeric fields >= 0, binary fields of 0 or 1 (su_attempted 2 reads
as 0) and a label in the attack taxonomy, or `MalformedRecord` (for the
label `UnknownAttack`) names its 1-based line number; the CLI exits 3.

Encoding converts symbolic tokens to 1-based vocabulary indices, then
min-max normalizes every feature into [0,1] using ranges measured on the
detector training half only. Test-time values outside the training range
(including never-seen service tokens) are clamped by default.
"""

from __future__ import annotations

import hashlib
import io
import re
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
SYMBOLIC_INDICES = tuple(i for i, (_, kind, _) in enumerate(FEATURE_TABLE) if kind == DISCRETE_MULTI)
BINARY_INDICES = tuple(i for i, (_, kind, _) in enumerate(FEATURE_TABLE) if kind == DISCRETE_BINARY)
NUMERIC_INDICES = tuple(i for i in range(N_FEATURES) if i not in SYMBOLIC_INDICES)

# protocol_type order is fixed so tcp/udp/icmp always encode as 1/2/3.
PROTOCOL_SEED = ("tcp", "udp", "icmp")


class AttackCategory(Enum):
    NORMAL = "normal"
    PROBE = "probe"
    DOS = "dos"
    U2R = "u2r"
    R2L = "r2l"


# Records.category holds positions in this tuple.
CATEGORIES = tuple(AttackCategory)


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
    """Raised when a line is not a valid 43-field NSL-KDD row."""


class UnknownAttack(KeyError):
    """Raised for attack labels absent from the embedded taxonomy."""


class EmptyDataset(ValueError):
    """Raised when schema construction receives no records."""


class UnknownToken(KeyError):
    """Raised for out-of-vocabulary symbolic tokens when clamping is off."""


@dataclass(frozen=True)
class Records:
    """Parsed NSL-KDD rows in file order, one array per column group.

    ``values`` is (n, 41) float64: every numeric and binary feature in its
    column, 0 in the symbolic columns. ``tokens`` is (n, 3): the stripped
    symbolic tokens in feature order. ``category`` holds positions in
    CATEGORIES; ``difficulty`` is int64.
    """

    values: np.ndarray
    tokens: np.ndarray
    category: np.ndarray
    difficulty: np.ndarray

    def __len__(self) -> int:
        return len(self.category)

    def take(self, index) -> "Records":
        """The rows at `index` (index array or boolean mask), in that order."""
        return Records(
            self.values[index], self.tokens[index], self.category[index], self.difficulty[index]
        )

    def is_in(self, categories) -> np.ndarray:
        """Boolean row mask of the records in any of `categories`."""
        return np.isin(self.category, [CATEGORIES.index(c) for c in categories])


def map_attack(attack_name: str) -> AttackCategory:
    """Map an NSL-KDD attack label to its category."""
    try:
        return ATTACK_TAXONOMY[attack_name.strip().lower()]
    except KeyError:
        raise UnknownAttack(f"attack name not in taxonomy: {attack_name!r}") from None


# One parsed row: the numeric and binary features, then the difficulty.
_ROW_DTYPE = np.dtype([("features", np.float64, (len(NUMERIC_INDICES),)), ("difficulty", np.int64)])
# Read as text: the symbolic features, then the label.
_TEXT_COLUMNS = (*SYMBOLIC_INDICES, N_FEATURES)
_SU_ATTEMPTED = FEATURE_INDEX["su_attempted"]
_ROW_ERRORS = (MalformedRecord, UnknownAttack)


def _parse(text: str) -> Records:
    """Parse and validate newline-separated rows; errors name no line."""
    if not text.strip():
        none = np.zeros(0, dtype=np.int64)
        return Records(np.zeros((0, N_FEATURES)), np.zeros((0, 3), dtype=str), none, none)
    read = dict(delimiter=",", comments=None)
    try:
        rows = np.loadtxt(
            io.StringIO(text), usecols=(*NUMERIC_INDICES, N_FEATURES + 1), dtype=_ROW_DTYPE,
            ndmin=1, **read,
        )
        fields = np.char.strip(
            np.loadtxt(io.StringIO(text), usecols=_TEXT_COLUMNS, dtype=str, ndmin=2, **read)
        )
    except ValueError as exc:
        raise MalformedRecord(re.sub(r"at row \d+, ", "in ", str(exc))) from None
    # loadtxt demands the columns it reads but ignores any past the last one.
    if text.count(",") != (N_FEATURES + 1) * len(rows):
        raise MalformedRecord(f"expected {N_FEATURES + 2} fields per row")

    # The symbolic columns are adjacent: slices copy around them several
    # times faster than a fancy-indexed column assignment.
    numeric, first = rows["features"], SYMBOLIC_INDICES[0]
    values = np.concatenate(
        [numeric[:, :first], np.zeros((len(rows), len(SYMBOLIC_INDICES))), numeric[:, first:]], axis=1
    )
    su_attempted = values[:, _SU_ATTEMPTED]
    su_attempted[su_attempted == 2.0] = 0.0
    valid = np.isfinite(values) & (values >= 0.0)
    binary = values[:, BINARY_INDICES]
    valid[:, BINARY_INDICES] = (binary == 0.0) | (binary == 1.0)
    if not valid.all():
        row, col = np.argwhere(~valid)[0]
        rule = "0 or 1" if col in BINARY_INDICES else "a finite number >= 0"
        raise MalformedRecord(f"{FEATURE_NAMES[col]} must be {rule}, got {float(values[row, col])!r}")

    labels, inverse = np.unique(fields[:, -1], return_inverse=True)
    codes = np.array([CATEGORIES.index(map_attack(name)) for name in labels.tolist()], dtype=np.int64)
    return Records(values, fields[:, :-1].copy(), codes[inverse], rows["difficulty"].copy())


def load_file(path) -> Records:
    """Read and validate an NSL-KDD text file; errors carry the 1-based line number."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # loadtxt warns on empty lines and rejects whitespace-only ones, so a
    # file with either is parsed below, where blank lines are dropped.
    if "\n\n" not in text and not text.startswith("\n"):
        try:
            return _parse(text)
        except _ROW_ERRORS:
            pass
    lines = [(lineno, line) for lineno, line in enumerate(text.split("\n"), 1) if line.strip()]

    def parse_lines(lo, hi):
        return _parse("\n".join(line for _, line in lines[lo:hi]))

    try:
        return parse_lines(0, len(lines))
    except _ROW_ERRORS as exc:
        error = exc
    # Rows parse independently, so a run of lines fails exactly when one of
    # them does: bisect to the first line that fails on its own.
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_lines(lo, mid)
            lo = mid
        except _ROW_ERRORS:
            hi = mid
    lineno, line = lines[lo]
    n_fields = line.count(",") + 1
    try:
        if n_fields != N_FEATURES + 2:
            raise MalformedRecord(f"expected {N_FEATURES + 2} fields, got {n_fields}")
        parse_lines(lo, lo + 1)
    except _ROW_ERRORS as exc:
        error = exc
    raise type(error)(f"{error.args[0]} (line {lineno})") from None


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


def _raw_matrix(records: Records, schema: FeatureSchema, clamp: bool) -> np.ndarray:
    """Feature values before normalization, symbolic tokens as 1-based vocabulary positions."""
    raw = records.values.copy()
    for j, i in enumerate(SYMBOLIC_INDICES):
        vocab = schema.vocabs[i]
        tokens, inverse = np.unique(records.tokens[:, j], return_inverse=True)
        position = {token: k for k, token in enumerate(vocab, 1)}
        # Unknown tokens sit one past the known vocabulary, so the range
        # clamp pins them to the top of the train range.
        codes = np.array([position.get(t, len(vocab) + 1) for t in tokens.tolist()], dtype=float)
        unknown = codes > len(vocab)
        if unknown.any() and not clamp:
            raise UnknownToken(f"{FEATURE_NAMES[i]}: token {tokens[unknown][0]!r} not in vocabulary")
        raw[:, i] = codes[inverse]
    return raw


def build_schema(train: Records) -> FeatureSchema:
    """Build vocabularies (first-seen order) and train min/max ranges from the training half."""
    if len(train) == 0:
        raise EmptyDataset("no training records")
    vocabs = {}
    for j, i in enumerate(SYMBOLIC_INDICES):
        tokens, first = np.unique(train.tokens[:, j], return_index=True)
        seed = PROTOCOL_SEED if FEATURE_NAMES[i] == "protocol_type" else ()
        vocabs[i] = list(seed) + [t for t in tokens[np.argsort(first)].tolist() if t not in seed]

    schema = FeatureSchema(vocabs=vocabs)
    raw = _raw_matrix(train, schema, clamp=False)
    schema.fmin = raw.min(axis=0)
    schema.fmax = raw.max(axis=0)
    schema.fmin[list(BINARY_INDICES)] = 0.0
    schema.fmax[list(BINARY_INDICES)] = 1.0
    return schema


def encode_batch(records: Records, schema: FeatureSchema, clamp: bool = True) -> np.ndarray:
    """Min-max normalize every record into [0,1]^41: an (n, 41) matrix."""
    x = _raw_matrix(records, schema, clamp)
    if clamp:
        np.clip(x, schema.fmin, schema.fmax, out=x)
    span = schema.fmax - schema.fmin
    x -= schema.fmin
    x /= np.where(span > 0.0, span, 1.0)
    np.copyto(x, 0.0, where=span <= 0.0)
    return x


def decode_value(schema: FeatureSchema, i: int, normalized: float) -> float:
    """Invert the min-max map for one feature (constant features return fmin)."""
    return schema.fmin[i] + normalized * (schema.fmax[i] - schema.fmin[i])


def split_indices(records: Records, seed: int):
    """Deterministic near-equal split of record positions into two index arrays.

    The shuffle is stratified per attack category and assignment alternates
    between halves, so every category with at least two records lands in
    both halves while the overall half sizes differ by at most one.
    """
    rng = np.random.default_rng(seed)
    order = [np.zeros(0, dtype=np.intp)]
    for code in sorted(np.unique(records.category).tolist(), key=lambda c: CATEGORIES[c].value):
        idxs = np.flatnonzero(records.category == code)
        rng.shuffle(idxs)
        order.append(idxs)
    order = np.concatenate(order)
    a, b = order[0::2].copy(), order[1::2].copy()
    rng.shuffle(a)
    rng.shuffle(b)
    return a, b


def split_train(records: Records, seed: int):
    """Split records into the detector half and the generator half."""
    a, b = split_indices(records, seed)
    return records.take(a), records.take(b)
