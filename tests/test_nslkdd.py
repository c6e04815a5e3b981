"""Parsing, validation, taxonomy, schema construction and encoding."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evadegan import nslkdd
from evadegan.nslkdd import (
    ATTACK_TAXONOMY,
    BINARY_INDICES,
    CATEGORIES,
    DISCRETE_BINARY,
    DISCRETE_MULTI,
    FEATURE_NAMES,
    NUMERIC_INDICES,
    SYMBOLIC_INDICES,
    AttackCategory,
    EmptyDataset,
    FeatureSchema,
    MalformedRecord,
    Records,
    UnknownAttack,
    UnknownToken,
    build_schema,
    encode_batch,
    load_file,
    map_attack,
    split_indices,
    split_train,
)

HTTP_ROW = (
    "0,tcp,http,SF,181,5450,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,"
    "8,8,0.00,0.00,0.00,0.00,1.00,0.00,0.00,9,9,1.00,0.00,0.11,0.00,0.00,0.00,0.00,0.00,"
    "normal,21"
)


def make_row(values=None, label="normal", difficulty="21"):
    fields = ["0"] * 41 if values is None else list(values)
    fields[1:4] = ["tcp", "http", "SF"]
    return ",".join(fields + [label, str(difficulty)])


def with_field(name, token, row=None):
    fields = (row or make_row()).split(",")
    fields[nslkdd.FEATURE_INDEX[name]] = token
    return ",".join(fields)


def load_rows(directory, rows):
    path = directory / "rows.txt"
    path.write_text("\n".join(rows) + "\n")
    return load_file(path)


class TestParseRecord:
    def test_real_format_row(self, tmp_path):
        rec = load_rows(tmp_path, [HTTP_ROW])
        assert len(rec) == 1
        assert rec.values.shape == (1, 41)
        assert rec.tokens.tolist() == [["tcp", "http", "SF"]]
        assert rec.values[0, 0] == 0.0
        assert rec.values[0, 4] == 181.0
        assert rec.values[0, SYMBOLIC_INDICES].tolist() == [0.0, 0.0, 0.0]
        assert rec.difficulty.tolist() == [21]
        assert CATEGORIES[rec.category[0]] == AttackCategory.NORMAL

    def test_wrong_field_count_rejected(self, tmp_path):
        for line in (",".join(["0"] * 42), make_row() + ",0"):
            with pytest.raises(MalformedRecord, match="expected 43 fields"):
                load_rows(tmp_path, [line])

    def test_non_integer_difficulty_rejected(self, tmp_path):
        for difficulty in ("hard", "21.5"):
            with pytest.raises(MalformedRecord):
                load_rows(tmp_path, [make_row(difficulty=difficulty)])

    def test_line_number_in_error(self, tmp_path):
        rows = [make_row()] * 511 + ["a,b,c"] + [make_row()] * 20
        with pytest.raises(MalformedRecord, match=r"\(line 512\)"):
            load_rows(tmp_path, rows)

    def test_test_set_style_label(self, tmp_path):
        rec = load_rows(tmp_path, [make_row(label="snmpgetattack", difficulty="18")])
        assert rec.difficulty.tolist() == [18]
        assert rec.is_in((AttackCategory.R2L,)).tolist() == [True]


class TestValidation:
    @pytest.mark.parametrize(
        "name,token",
        [
            ("src_bytes", "abc"),
            ("src_bytes", ""),
            ("dst_bytes", "nan"),
            ("dst_bytes", "inf"),
            ("duration", "-1"),
            ("count", "1e400"),
            ("land", "2"),
            ("logged_in", "0.5"),
            ("su_attempted", "3"),
        ],
    )
    def test_bad_value_names_its_line(self, tmp_path, name, token):
        rows = [make_row(), make_row(), with_field(name, token), make_row()]
        with pytest.raises(MalformedRecord, match=r"\(line 3\)"):
            load_rows(tmp_path, rows)

    def test_su_attempted_two_reads_as_zero(self, tmp_path):
        rec = load_rows(tmp_path, [with_field("su_attempted", "2")])
        assert rec.values[0, nslkdd.FEATURE_INDEX["su_attempted"]] == 0.0

    def test_unknown_attack_names_its_line(self, tmp_path):
        with pytest.raises(UnknownAttack, match=r"\(line 2\)"):
            load_rows(tmp_path, [make_row(), make_row(label="not_an_attack")])

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        rows = ["", make_row(), "   ", "", make_row(label=" Neptune ")]
        rec = load_rows(tmp_path, rows)
        assert len(rec) == 2
        assert rec.is_in((AttackCategory.DOS,)).tolist() == [False, True]
        with pytest.raises(MalformedRecord, match=r"\(line 6\)"):
            load_rows(tmp_path, rows + [with_field("dst_bytes", "nan")])

    def test_tokens_and_fields_stripped(self, tmp_path):
        row = make_row().replace("tcp,http,SF", " udp , ftp ,S0 ").replace("normal,21", "normal, 21")
        rec = load_rows(tmp_path, [with_field("duration", " 7 ", row)])
        assert rec.tokens.tolist() == [["udp", "ftp", "S0"]]
        assert rec.values[0, 0] == 7.0
        assert rec.difficulty.tolist() == [21]

    def test_empty_file(self, tmp_path):
        rec = load_rows(tmp_path, [])
        assert len(rec) == 0
        assert rec.values.shape == (0, 41)

    def test_matches_line_by_line_reference(self, corpus_dir, train_records):
        lines = (corpus_dir / "train.txt").read_text().splitlines()
        assert len(train_records) == len(lines)
        for r, line in enumerate(lines):
            fields = line.split(",")
            for i in NUMERIC_INDICES:
                value = float(fields[i])
                if FEATURE_NAMES[i] == "su_attempted" and value == 2.0:
                    value = 0.0
                assert train_records.values[r, i] == value
            assert train_records.tokens[r].tolist() == [fields[i] for i in SYMBOLIC_INDICES]
            assert CATEGORIES[train_records.category[r]] == map_attack(fields[41])
            assert train_records.difficulty[r] == int(fields[42])


class TestMapAttack:
    def test_normal(self):
        assert map_attack("normal") == AttackCategory.NORMAL

    @pytest.mark.parametrize(
        "name,category",
        [
            ("neptune", AttackCategory.DOS),
            ("smurf", AttackCategory.DOS),
            ("apache2", AttackCategory.DOS),
            ("satan", AttackCategory.PROBE),
            ("mscan", AttackCategory.PROBE),
            ("buffer_overflow", AttackCategory.U2R),
            ("rootkit", AttackCategory.U2R),
            ("guess_passwd", AttackCategory.R2L),
            ("warezmaster", AttackCategory.R2L),
            ("snmpgetattack", AttackCategory.R2L),
        ],
    )
    def test_taxonomy_spot_checks(self, name, category):
        assert map_attack(name) == category

    def test_unknown_attack_raises(self):
        with pytest.raises(UnknownAttack):
            map_attack("not_an_attack")

    def test_taxonomy_is_total_and_disjoint(self):
        # 39 attack names + normal, every one in exactly one category
        assert len(ATTACK_TAXONOMY) == 40
        by_cat = {}
        for name, cat in ATTACK_TAXONOMY.items():
            by_cat.setdefault(cat, set()).add(name)
        assert len(by_cat[AttackCategory.DOS]) == 10
        assert len(by_cat[AttackCategory.PROBE]) == 6
        assert len(by_cat[AttackCategory.U2R]) == 8
        assert len(by_cat[AttackCategory.R2L]) == 15


class TestFeatureTable:
    def test_counts(self):
        # 9 discrete features total: 3 multi-valued and 6 binary
        assert len(FeatureSchema.indices_of_kind(DISCRETE_MULTI)) == 3
        assert len(FeatureSchema.indices_of_kind(DISCRETE_BINARY)) == 6
        assert len(FEATURE_NAMES) == 41
        assert FeatureSchema.indices_of_kind(DISCRETE_MULTI) == SYMBOLIC_INDICES
        assert FeatureSchema.indices_of_kind(DISCRETE_BINARY) == BINARY_INDICES

    def test_set_partition(self):
        assert FeatureSchema.indices_of_set(nslkdd.INTRINSIC) == tuple(range(0, 9))
        assert FeatureSchema.indices_of_set(nslkdd.CONTENT) == tuple(range(9, 22))
        assert FeatureSchema.indices_of_set(nslkdd.TIME_BASED) == tuple(range(22, 31))
        assert FeatureSchema.indices_of_set(nslkdd.HOST_BASED) == tuple(range(31, 41))


class TestBuildSchema:
    def test_empty_dataset(self, train_records):
        with pytest.raises(EmptyDataset):
            build_schema(train_records.take([]))

    def test_protocol_vocab_order_fixed(self, schema, tmp_path):
        i = nslkdd.FEATURE_INDEX["protocol_type"]
        assert schema.vocabs[i][:3] == ["tcp", "udp", "icmp"]
        # tcp/udp/icmp carry the numeric codes 1/2/3 before normalization
        rows = [make_row().replace("tcp", p) for p in ("tcp", "udp", "icmp")]
        encoded = encode_batch(load_rows(tmp_path, rows), schema)
        decoded = [nslkdd.decode_value(schema, i, v) for v in encoded[:, i]]
        assert decoded == pytest.approx([1.0, 2.0, 3.0], rel=1e-12)

    def test_vocab_in_first_seen_order(self, tmp_path):
        rows = [
            make_row().replace("tcp,http", f"{p},{s}")
            for p, s in (("icmp", "smtp"), ("gre", "http"), ("icmp", "smtp"), ("tcp", "ftp"))
        ]
        schema = build_schema(load_rows(tmp_path, rows))
        assert schema.vocabs[nslkdd.FEATURE_INDEX["protocol_type"]] == ["tcp", "udp", "icmp", "gre"]
        assert schema.vocabs[nslkdd.FEATURE_INDEX["service"]] == ["smtp", "http", "ftp"]

    def test_min_max_by_brute_force(self, tmp_path):
        # 5-record toy set; src_bytes range must equal a plain scan
        src_values = ["10", "250", "3", "99", "250"]
        records = load_rows(tmp_path, [make_row(["0"] * 4 + [v] + ["0"] * 36) for v in src_values])
        schema = build_schema(records)
        i = nslkdd.FEATURE_INDEX["src_bytes"]
        assert schema.fmin[i] == min(float(v) for v in src_values)
        assert schema.fmax[i] == max(float(v) for v in src_values)

    def test_constant_feature_degenerate_range(self, tmp_path):
        schema = build_schema(load_rows(tmp_path, [make_row()] * 3))
        i = nslkdd.FEATURE_INDEX["duration"]
        assert schema.fmin[i] == schema.fmax[i] == 0.0

    def test_binary_features_always_zero_one(self, schema):
        for i in schema.binary_indices:
            assert schema.fmin[i] == 0.0
            assert schema.fmax[i] == 1.0

    def test_order_independence(self, halves):
        ids_half = halves[0]
        s1 = build_schema(ids_half)
        s2 = build_schema(ids_half.take(np.arange(len(ids_half))[::-1]))
        assert np.array_equal(s1.fmin, s2.fmin)
        assert np.array_equal(s1.fmax, s2.fmax)

    def test_artifact_round_trip(self, schema, tmp_path):
        path = tmp_path / "schema.txt"
        schema.save(path)
        loaded = FeatureSchema.load(path)
        assert loaded.vocabs == schema.vocabs
        assert np.array_equal(loaded.fmin, schema.fmin)
        assert np.array_equal(loaded.fmax, schema.fmax)
        assert loaded.fingerprint() == schema.fingerprint()


@pytest.fixture(scope="module")
def toy_schema(tmp_path_factory):
    rows = [
        make_row(["0"] * 41),
        make_row(["120"] + ["0"] * 40),
        make_row(["60"] + ["0"] * 40).replace("http", "smtp"),
    ]
    return build_schema(load_rows(tmp_path_factory.mktemp("toy"), rows))


def encode_row(directory, row, schema, clamp=True):
    return encode_batch(load_rows(directory, [row]), schema, clamp=clamp)[0]


def reference_encode(records, schema, clamp=True):
    """Record-by-record, field-by-field encoding: the oracle for encode_batch."""
    out = np.empty((len(records), 41))
    for r in range(len(records)):
        x = records.values[r].copy()
        for j, i in enumerate(SYMBOLIC_INDICES):
            vocab = schema.vocabs[i]
            token = records.tokens[r, j]
            x[i] = vocab.index(token) + 1 if token in vocab else len(vocab) + 1
        if clamp:
            x = np.clip(x, schema.fmin, schema.fmax)
        span = schema.fmax - schema.fmin
        out[r] = np.where(span > 0.0, (x - schema.fmin) / np.where(span > 0.0, span, 1.0), 0.0)
    return out


class TestEncode:
    def test_endpoints(self, toy_schema, tmp_path):
        lo = encode_row(tmp_path, make_row(["0"] * 41), toy_schema)
        hi = encode_row(tmp_path, make_row(["120"] + ["0"] * 40), toy_schema)
        i = nslkdd.FEATURE_INDEX["duration"]
        assert lo[i] == 0.0
        assert hi[i] == 1.0

    def test_midpoint(self, toy_schema, tmp_path):
        mid = encode_row(tmp_path, make_row(["60"] + ["0"] * 40), toy_schema)
        assert mid[nslkdd.FEATURE_INDEX["duration"]] == 0.5

    def test_hand_value(self, toy_schema, tmp_path):
        # duration 30 over range [0, 120]
        enc = encode_row(tmp_path, make_row(["30"] + ["0"] * 40), toy_schema)
        assert enc[nslkdd.FEATURE_INDEX["duration"]] == pytest.approx(0.25)

    def test_all_in_unit_interval(self, halves, schema):
        X = encode_batch(halves[0], schema)
        assert X.min() >= 0.0
        assert X.max() <= 1.0

    def test_round_trip_recovers_raw(self, halves, schema):
        rec = halves[0].take([0])
        enc = encode_batch(rec, schema)[0]
        for i in range(41):
            if schema.fmax[i] == schema.fmin[i]:
                continue
            if i in SYMBOLIC_INDICES:
                raw = schema.vocabs[i].index(rec.tokens[0, SYMBOLIC_INDICES.index(i)]) + 1
            else:
                raw = rec.values[0, i]
            back = nslkdd.decode_value(schema, i, enc[i])
            assert back == pytest.approx(raw, rel=1e-9)

    def test_unseen_token_clamps_to_top(self, toy_schema, tmp_path):
        enc = encode_row(tmp_path, make_row().replace("http", "nosuchservice"), toy_schema)
        assert enc[nslkdd.FEATURE_INDEX["service"]] == 1.0

    def test_unseen_token_raises_when_clamp_off(self, toy_schema, tmp_path):
        with pytest.raises(UnknownToken):
            encode_row(tmp_path, make_row().replace("http", "nosuchservice"), toy_schema, clamp=False)

    def test_out_of_range_numeric_clamps(self, toy_schema, tmp_path):
        enc = encode_row(tmp_path, make_row(["999"] + ["0"] * 40), toy_schema)
        assert enc[nslkdd.FEATURE_INDEX["duration"]] == 1.0

    def test_su_attempted_two_maps_to_zero(self, toy_schema, tmp_path):
        i = nslkdd.FEATURE_INDEX["su_attempted"]
        fields = ["0"] * 41
        fields[i] = "2"
        assert encode_row(tmp_path, make_row(fields), toy_schema)[i] == 0.0

    def test_matches_record_by_record_reference(self, test_records, schema):
        # the test file carries unseen service tokens and su_attempted = 2
        assert np.array_equal(encode_batch(test_records, schema), reference_encode(test_records, schema))


class TestSplitTrain:
    def _records(self, directory, n):
        return load_rows(directory, [make_row(label="normal")] * n)

    def test_even_count(self, tmp_path):
        a, b = split_train(self._records(tmp_path, 10), seed=0)
        assert len(a) == 5 and len(b) == 5

    def test_odd_count(self, tmp_path):
        a, b = split_train(self._records(tmp_path, 11), seed=0)
        assert sorted([len(a), len(b)]) == [5, 6]

    def test_deterministic(self, train_records):
        a1, b1 = split_train(train_records, seed=9)
        a2, b2 = split_train(train_records, seed=9)
        assert np.array_equal(a1.values, a2.values)
        assert np.array_equal(b1.values, b2.values)
        assert np.array_equal(a1.tokens, a2.tokens)
        assert np.array_equal(b1.tokens, b2.tokens)

    def test_preserves_categories(self, train_records):
        present = set(train_records.category.tolist())
        a, b = split_train(train_records, seed=3)
        assert set(a.category.tolist()) == present
        assert set(b.category.tolist()) == present

    def test_sizes_differ_by_at_most_one(self, train_records):
        a, b = split_train(train_records, seed=3)
        assert abs(len(a) - len(b)) <= 1
        assert len(a) + len(b) == len(train_records)


# ---------------------------------------------------------------------------
# properties

_NAMES = sorted(ATTACK_TAXONOMY)
_TOKENS = ["tcp", "udp", "icmp", "http", "ftp", "SF", "S0", "REJ", "x"]
# field values that are valid, invalid, or only look valid
_FUZZ_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2", "0.5", "-0", "-1", "nan", "inf", "-inf", "1e400", "1e-5",
                     " 3 ", "", "abc", "0x10", "1_0", "#", "tcp", "normal", "neptune", "7"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@st.composite
def fuzzed_lines(draw):
    """Mostly-valid rows with some fields replaced, dropped or added, and junk lines."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    fields = make_row().split(",")
    fields[41] = draw(st.sampled_from(_NAMES))
    for _ in range(draw(st.integers(0, 3))):
        fields[draw(st.integers(0, 42))] = draw(_FUZZ_TOKENS)
    if draw(st.integers(0, 9)) == 0:
        del fields[draw(st.integers(0, 42))]
    if draw(st.integers(0, 9)) == 0:
        fields.append(draw(_FUZZ_TOKENS))
    return ",".join(fields)


@st.composite
def valid_rows(draw, max_rows=10):
    n = draw(st.integers(1, max_rows))
    values = draw(
        arrays(np.float64, (n, 41), elements=st.floats(0.0, 1e12), fill=st.sampled_from([0.0, 1.0]))
    )
    rows = []
    for r in range(n):
        fields = [repr(float(v)) for v in values[r]]
        for i in BINARY_INDICES:
            fields[i] = draw(st.sampled_from(["0", "1", "2"] if FEATURE_NAMES[i] == "su_attempted" else ["0", "1"]))
        for i in SYMBOLIC_INDICES:
            fields[i] = draw(st.sampled_from(_TOKENS))
        rows.append(",".join(fields + [draw(st.sampled_from(_NAMES)), str(draw(st.integers(0, 21)))]))
    return rows


_PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


class TestProperties:
    @_PROPERTY_SETTINGS
    @given(lines=st.lists(fuzzed_lines(), min_size=1, max_size=5))
    def test_fuzzed_lines_parse_to_valid_rows_or_a_row_error(self, scratch_dir, lines):
        path = scratch_dir / "fuzz.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            rec = load_file(path)
        except (MalformedRecord, UnknownAttack) as exc:
            assert "(line " in str(exc)
            return
        assert rec.values.shape == (len(rec), 41)
        assert np.isfinite(rec.values).all()
        assert (rec.values >= 0.0).all()
        assert np.isin(rec.values[:, BINARY_INDICES], (0.0, 1.0)).all()

    @_PROPERTY_SETTINGS
    @given(
train=valid_rows(), other=valid_rows())
    def test_encoded_rows_in_unit_interval(self, scratch_dir, train, other):
        schema = build_schema(load_rows(scratch_dir, train))
        X = encode_batch(load_rows(scratch_dir, train + other), schema)
        assert ((X >= 0.0) & (X <= 1.0)).all()
        assert np.isin(X[:, BINARY_INDICES], (0.0, 1.0)).all()

    @_PROPERTY_SETTINGS
    @given(
        codes=st.lists(st.integers(0, len(CATEGORIES) - 1), max_size=60),
        seed=st.integers(0, 2**32),
    )
    def test_split_halves_partition_rows(self, codes, seed):
        n = len(codes)
        records = Records(
            np.zeros((n, 41)), np.zeros((n, 3), dtype=str), np.array(codes, dtype=np.intp),
            np.zeros(n, dtype=np.int64),
        )
        a, b = split_indices(records, seed)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(n))
        assert abs(len(a) - len(b)) <= 1
        for code in set(codes):
            if codes.count(code) >= 2:
                assert code in records.category[a] and code in records.category[b]
