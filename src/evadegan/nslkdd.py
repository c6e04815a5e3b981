"""NSL-KDD parsing, feature schema construction and [0,1] encoding, by column.

NSL-KDD rows are comma-separated with 43 fields: 41 traffic features, the
attack label, and a difficulty score. The 41 features split into four sets
(intrinsic 1-9, content 10-22, time-based 23-31, host-based 32-41) and into
three kinds: 3 symbolic multi-valued features (protocol_type, service, flag),
6 binary flags, and 32 continuous values.

`load_file` reads a file, slice by slice, into one columnar `Records` set.
Blank lines are skipped; every other line must have 43 fields, an integer
difficulty, finite numeric fields >= 0, binary fields of 0 or 1
(su_attempted 2 reads as 0) and a label in the attack taxonomy, or
`MalformedRecord` (for the label `UnknownAttack`) names its 1-based line
number; the CLI exits 3.

Encoding converts symbolic tokens to 1-based vocabulary indices, then
min-max normalizes every feature into [0,1] using ranges measured on the
detector training half only. Test-time values outside the training range
(including never-seen service tokens) are clamped.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import re
from dataclasses import dataclass, field, replace
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


class UnreadableFile(ValueError):
    """Raised for an input that cannot be opened or read twice, or that grew in between."""


@dataclass(frozen=True)
class Records:
    """Parsed NSL-KDD rows in file order, one array per column group.

    ``values`` is (n, 41) float64: every numeric and binary feature in its
    column, 0 in the symbolic columns. The symbolic features are coded once
    at load: ``token_vocabs`` holds, per symbolic feature in feature order,
    the sorted distinct stripped tokens of the whole file, and
    ``token_codes`` (n, 3) each row's positions in them. ``category`` holds
    positions in CATEGORIES; ``difficulty`` is int64.
    """

    values: np.ndarray
    token_codes: np.ndarray
    token_vocabs: tuple
    category: np.ndarray
    difficulty: np.ndarray

    def __len__(self) -> int:
        return len(self.category)

    @property
    def tokens(self) -> np.ndarray:
        """(n, 3) stripped symbolic tokens in feature order."""
        return np.stack(
            [vocab[self.token_codes[:, j]] for j, vocab in enumerate(self.token_vocabs)], axis=1
        )

    def take(self, index) -> "Records":
        """The rows at `index` (index array, boolean mask or slice), in that order.

        A slice gives views into these arrays, as for any numpy array.
        """
        return Records(
            self.values[index],
            self.token_codes[index],
            self.token_vocabs,
            self.category[index],
            self.difficulty[index],
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


# One row in file-column order: the features before the (adjacent) symbolic
# ones, the symbolic tokens, the features after them, the label and the
# difficulty. A text field that fills _TOKEN_WIDTH may have been cut short,
# and the text columns are then read again at their full width; the longest
# NSL-KDD token, buffer_overflow, has 15 characters.
_TOKEN_WIDTH = 16
_FIRST_SYMBOLIC = SYMBOLIC_INDICES[0]
_ROW_DTYPE = np.dtype(
    [
        ("head", np.float64, (_FIRST_SYMBOLIC,)),
        ("symbolic", f"U{_TOKEN_WIDTH}", (len(SYMBOLIC_INDICES),)),
        ("tail", np.float64, (N_FEATURES - _FIRST_SYMBOLIC - len(SYMBOLIC_INDICES),)),
        ("label", f"U{_TOKEN_WIDTH}"),
        ("difficulty", np.int64),
    ]
)
# The text columns: the symbolic features, then the label.
_TEXT_COLUMNS = (*SYMBOLIC_INDICES, N_FEATURES)
_READ = dict(delimiter=",", comments=None, encoding="utf-8")
_SU_ATTEMPTED = FEATURE_INDEX["su_attempted"]
_ROW_ERRORS = (MalformedRecord, UnknownAttack)
# Lines read and parsed at a time: at most ~0.6 MB of structured rows, whatever the file's size.
_SLICE_LINES = 1024
# Bytes read at a time while the file's line ends are counted.
_COUNT_BYTES = 1 << 20


def _allocate(n: int) -> Records:
    """Records of `n` rows to parse into, without vocabularies yet."""
    return Records(
        np.zeros((n, N_FEATURES)),
        np.empty((n, len(SYMBOLIC_INDICES)), dtype=np.intp),
        (),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
    )


def _line_bound(fh) -> int:
    """A bound on the lines of the binary file `fh`, read to its end: its line ends, plus one."""
    n = 1
    while block := fh.read(_COUNT_BYTES):
        n += block.count(b"\n")
        if b"\r" in block:
            # A lone CR ends a line too. A CRLF split between two blocks
            # counts twice, and the bound still holds.
            n += block.count(b"\r") - block.count(b"\r\n")
    return n


def _numbered_rows(data: bytes, first: int) -> list:
    """(1-based line number, text) of each line of `data` that holds more than whitespace.

    `first` is the number of its first line. Invalid UTF-8 raises
    `MalformedRecord` naming the line that holds it.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = first + data.count(b"\n", 0, exc.start)
        raise MalformedRecord(f"not UTF-8 text: {exc.reason} (line {lineno})") from None
    return [(n, line) for n, line in enumerate(text.split("\n"), first) if line.strip()]


def _parse_lines(lines: list, first: int, records: Records, start: int) -> tuple:
    """Parse one slice of a file into `records` from row `start`.

    `lines` are the slice's lines as a Latin-1 read with universal newlines
    gives them, and `first` is the number of the first. Returns (the rows
    filled, those rows' sorted symbolic vocabularies).
    """
    # Latin-1 maps each byte to one character and back: these are the
    # file's bytes, with every line end read as LF.
    data = "".join(lines).encode("latin-1")
    # An empty line is its LF alone.
    if min(map(len, lines)) > 1:
        try:
            return len(lines), _parse_slice(data, records.take(slice(start, start + len(lines))))
        except _ROW_ERRORS:
            pass  # a line of whitespace, invalid UTF-8 or a bad row: look at the lines one by one
    numbered = _numbered_rows(data, first)
    if not numbered:
        return 0, ()
    rows = "\n".join(line for _, line in numbered).encode("utf-8")
    count = len(numbered)
    try:
        return count, _parse_slice(rows, records.take(slice(start, start + count)))
    except _ROW_ERRORS as exc:
        raise _line_error(exc, numbered) from None


def _parse_slice(data: bytes, out: Records) -> tuple:
    """Parse and validate `data`'s rows into `out`, whose arrays are views; errors name no line.

    ``out.token_codes`` receives positions in the slice's own sorted
    vocabularies, which are returned.
    """
    try:
        # Every row must have exactly as many fields as the dtype.
        rows = np.loadtxt(io.BytesIO(data), dtype=_ROW_DTYPE, ndmin=1, **_READ)
    except ValueError as exc:
        raise MalformedRecord(re.sub(r"at row \d+, ", "in ", str(exc))) from None

    values = out.values
    values[:, :_FIRST_SYMBOLIC] = rows["head"]
    values[:, _FIRST_SYMBOLIC + len(SYMBOLIC_INDICES) :] = rows["tail"]
    out.difficulty[...] = rows["difficulty"]
    su_attempted = values[:, _SU_ATTEMPTED]
    su_attempted[su_attempted == 2.0] = 0.0
    valid = np.isfinite(values) & (values >= 0.0)
    binary = values[:, BINARY_INDICES]
    valid[:, BINARY_INDICES] = (binary == 0.0) | (binary == 1.0)
    if not valid.all():
        row, col = np.argwhere(~valid)[0]
        rule = "0 or 1" if col in BINARY_INDICES else "a finite number >= 0"
        raise MalformedRecord(f"{FEATURE_NAMES[col]} must be {rule}, got {float(values[row, col])!r}")

    # Each text column is sorted once, here; every later step works on codes.
    distinct = [np.unique(c, return_inverse=True) for c in (*rows["symbolic"].T, rows["label"])]
    if any(np.char.str_len(raw).max() >= _TOKEN_WIDTH for raw, _ in distinct):
        wide = np.loadtxt(io.BytesIO(data), usecols=_TEXT_COLUMNS, dtype=str, ndmin=2, **_READ)
        distinct = [np.unique(c, return_inverse=True) for c in wide.T]
    coded = []
    for raw, inverse in distinct:
        tokens, merged = np.unique(np.char.strip(raw), return_inverse=True)
        coded.append((tokens, merged[inverse]))
    *symbolic, (labels, label_codes) = coded
    category = np.array([CATEGORIES.index(map_attack(n)) for n in labels.tolist()], dtype=np.int64)
    out.category[...] = category[label_codes]
    for j, (_, codes) in enumerate(symbolic):
        out.token_codes[:, j] = codes
    return tuple(tokens for tokens, _ in symbolic)


def _line_error(error: Exception, numbered: list) -> Exception:
    """`error`, raised by the `_numbered_rows` `numbered`, naming the first line that fails."""

    def parse_rows(lo, hi):
        rows = "\n".join(line for _, line in numbered[lo:hi]).encode("utf-8")
        _parse_slice(rows, _allocate(hi - lo))

    # Rows parse independently, so a run of lines fails exactly when one of
    # them does: bisect to the first line that fails on its own.
    lo, hi = 0, len(numbered)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_rows(lo, mid)
            lo = mid
        except _ROW_ERRORS:
            hi = mid
    lineno, line = numbered[lo]
    n_fields = line.count(",") + 1
    try:
        if n_fields != N_FEATURES + 2:
            raise MalformedRecord(f"expected {N_FEATURES + 2} fields, got {n_fields}")
        parse_rows(lo, lo + 1)
    except _ROW_ERRORS as exc:
        error = exc
    return type(error)(f"{error.args[0]} (line {lineno})")


def load_file(path) -> Records:
    """Read and validate an NSL-KDD text file; errors carry the 1-based line number.

    The file is read twice. A count of its line ends bounds its rows, and
    the arrays are allocated once for that bound; the file is then read
    again from its start and parsed `_SLICE_LINES` lines at a time into
    views of them, and the records are the rows filled. Memory past the
    records does not grow with the file. A path that cannot be opened, a
    file that cannot be read from its start again, such as a pipe, or one
    that grows between the two reads raises `UnreadableFile`.
    """
    try:
        fh = open(path, encoding="latin-1", newline=None)
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc.strerror or exc}") from None
    with fh:
        if not fh.seekable():
            raise UnreadableFile(f"{path}: cannot read a pipe or other unseekable file")
        bound = _line_bound(fh.buffer)
        fh.seek(0)
        records = _allocate(bound)
        # (row slice, that slice's sorted symbolic vocabularies) per slice
        slices = []
        start, first = 0, 1
        while lines := list(itertools.islice(fh, _SLICE_LINES)):
            if first - 1 + len(lines) > bound:
                raise UnreadableFile(f"{path}: the file grew while it was read")
            count, slice_vocabs = _parse_lines(lines, first, records, start)
            if count:
                slices.append((slice(start, start + count), slice_vocabs))
                start += count
            first += len(lines)
    records = records.take(slice(0, start))

    # Merge the slices' vocabularies into the file's and recode each slice.
    vocabs = []
    for j in range(len(SYMBOLIC_INDICES)):
        vocab = np.unique(np.concatenate([np.zeros(0, dtype=str), *(v[j] for _, v in slices)]))
        for rows, slice_vocabs in slices:
            codes = records.token_codes[rows, j]
            codes[...] = np.searchsorted(vocab, slice_vocabs[j])[codes]
        vocabs.append(vocab)
    return replace(records, token_vocabs=tuple(vocabs))


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

    @property
    def binary_indices(self) -> tuple:
        return BINARY_INDICES

    def to_text(self) -> str:
        """Render the schema as a line-oriented text artifact; its SHA-256 is the fingerprint."""
        lines = [f"# nslkdd-schema v{SCHEMA_FORMAT_VERSION}"]
        for i, (name, kind, fset) in enumerate(FEATURE_TABLE):
            vocab = ",".join(self.vocabs.get(i, ()))
            lines.append(
                f"{name}\t{kind}\t{fset}\t{vocab}\t"
                f"{float(self.fmin[i])!r}\t{float(self.fmax[i])!r}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def build_schema(train: Records) -> FeatureSchema:
    """Build vocabularies (first-seen order) and train min/max ranges from the training half."""
    if len(train) == 0:
        raise EmptyDataset("no training records")
    fmin, fmax = train.values.min(axis=0), train.values.max(axis=0)
    vocabs = {}
    for j, i in enumerate(SYMBOLIC_INDICES):
        present, first = np.unique(train.token_codes[:, j], return_index=True)
        tokens = train.token_vocabs[j][present[np.argsort(first)]].tolist()
        seed = PROTOCOL_SEED if FEATURE_NAMES[i] == "protocol_type" else ()
        vocabs[i] = list(seed) + [t for t in tokens if t not in seed]
        # the range of the 1-based vocabulary positions the records hold
        positions = [vocabs[i].index(t) + 1 for t in tokens]
        fmin[i], fmax[i] = min(positions), max(positions)
    fmin[list(BINARY_INDICES)] = 0.0
    fmax[list(BINARY_INDICES)] = 1.0
    return FeatureSchema(vocabs=vocabs, fmin=fmin, fmax=fmax)


def encode_batch(records: Records, schema: FeatureSchema) -> np.ndarray:
    """Min-max normalize every record into [0,1]^41, clamped to the train range: (n, 41).

    A symbolic token's value before normalization is its 1-based vocabulary position.
    """
    x = records.values.copy()
    for j, i in enumerate(SYMBOLIC_INDICES):
        vocab = schema.vocabs[i]
        position = {token: k for k, token in enumerate(vocab, 1)}
        # Unknown tokens sit one past the known vocabulary, so the range
        # clamp pins them to the top of the train range.
        tokens = records.token_vocabs[j].tolist()
        lookup = np.array([position.get(t, len(vocab) + 1) for t in tokens], dtype=float)
        x[:, i] = lookup[records.token_codes[:, j]]
    np.clip(x, schema.fmin, schema.fmax, out=x)
    span = schema.fmax - schema.fmin
    x -= schema.fmin
    x /= np.where(span > 0.0, span, 1.0)
    np.copyto(x, 0.0, where=span <= 0.0)
    return x


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


def split_and_schema(records: Records, seed: int):
    """(detector-half rows, generator-half rows, schema built from the detector half only)."""
    ids_rows, gan_rows = split_indices(records, seed)
    return ids_rows, gan_rows, build_schema(records.take(ids_rows))


def split_train(records: Records, seed: int):
    """Split records into the detector half and the generator half."""
    a, b = split_indices(records, seed)
    return records.take(a), records.take(b)
