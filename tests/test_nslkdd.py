"""Parsing, validation, taxonomy, schema construction and encoding."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evadegan import nn, nslkdd
from evadegan.nslkdd import (
    ATTACK_TAXONOMY,
    BINARY_INDICES,
    CATEGORIES,
    DISCRETE_BINARY,
    DISCRETE_MULTI,
    FEATURE_NAMES,
    SYMBOLIC_INDICES,
    AttackCategory,
    EmptyDataset,
    FeatureSchema,
    MalformedRecord,
    Records,
    UnknownAttack,
    UnreadableFile,
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


def write_rows(directory, rows):
    path = directory / "rows.txt"
    path.write_text("\n".join(rows) + "\n")
    return path


def load_rows(directory, rows):
    return load_file(write_rows(directory, rows))


def reference_parse(path):
    """Line by line with Python's own parsers: the oracle for load_file on valid rows.

    Returns (values, tokens, categories, difficulties) as lists.
    """
    values, tokens, categories, difficulties = [], [], [], []
    with open(path, encoding="utf-8") as fh:  # universal newlines, as a text read
        lines = [line for line in fh.read().split("\n") if line.strip()]
    numeric = [i for i in range(41) if i not in SYMBOLIC_INDICES]
    for line in lines:
        fields = line.split(",")
        row = [0.0] * 41
        for i in numeric:
            row[i] = float(fields[i])
            if FEATURE_NAMES[i] == "su_attempted" and row[i] == 2.0:
                row[i] = 0.0
        values.append(row)
        tokens.append([fields[i].strip() for i in SYMBOLIC_INDICES])
        categories.append(map_attack(fields[41]))
        difficulties.append(int(fields[42]))
    return values, tokens, categories, difficulties


def assert_matches_reference(records, path):
    values, tokens, categories, difficulties = reference_parse(path)
    assert len(records) == len(values)
    assert np.array_equal(records.values, np.array(values).reshape(-1, 41))
    assert records.tokens.tolist() == tokens
    assert [CATEGORIES[c] for c in records.category] == categories
    assert records.difficulty.tolist() == difficulties


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

    @pytest.mark.parametrize("slice_lines", [1024, 2])
    def test_invalid_utf8_names_its_line(self, tmp_path, monkeypatch, slice_lines):
        """A data error naming the line, in the first slice or a later one."""
        monkeypatch.setattr(nslkdd, "_SLICE_LINES", slice_lines)
        path = tmp_path / "rows.txt"
        path.write_bytes("\n".join([make_row()] * 3 + ["x\xff"]).encode("latin-1"))
        with pytest.raises(MalformedRecord, match=r"^not UTF-8 text: .* \(line 4\)$"):
            load_file(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        rows = ["", make_row(), "   ", "", make_row(label=" Neptune ")]
        rec = load_rows(tmp_path, rows)
        assert len(rec) == 2
        assert rec.is_in((AttackCategory.DOS,)).tolist() == [False, True]
        with pytest.raises(MalformedRecord, match=r"\(line 6\)"):
            load_rows(tmp_path, rows + [with_field("dst_bytes", "nan")])

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_carriage_returns_end_lines(self, tmp_path, newline):
        rows = [make_row(), "", make_row(label="neptune"), with_field("dst_bytes", "nan")]
        path = tmp_path / "rows.txt"
        path.write_bytes(newline.join(rows[:3]).encode())
        assert load_file(path).is_in((AttackCategory.DOS,)).tolist() == [False, True]
        path.write_bytes(newline.join(rows).encode())
        with pytest.raises(MalformedRecord, match=r"\(line 4\)"):
            load_file(path)

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
        assert_matches_reference(train_records, corpus_dir / "train.txt")


class TestSlices:
    """`load_file` reads `_SLICE_LINES` lines at a time; the slice size never shows in the result."""

    SLICE = 3

    @staticmethod
    def assert_same_records(a, b):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.token_codes, b.token_codes)
        assert [v.tolist() for v in a.token_vocabs] == [v.tolist() for v in b.token_vocabs]
        assert np.array_equal(a.category, b.category)
        assert np.array_equal(a.difficulty, b.difficulty)

    def assert_slicing_invisible(self, path, monkeypatch):
        """load_file in slices of `SLICE` lines equals load_file in one slice and the reference."""
        whole = load_file(path)
        monkeypatch.setattr(nslkdd, "_SLICE_LINES", self.SLICE)
        sliced = load_file(path)
        self.assert_same_records(sliced, whole)
        assert_matches_reference(sliced, path)
        return sliced

    def test_token_first_seen_in_a_later_slice(self, tmp_path, monkeypatch):
        late = make_row(label="neptune").replace("tcp,http,SF", "udp,aaa_first,REJ")
        rows = [make_row()] * 7 + [late, make_row()]
        rec = self.assert_slicing_invisible(write_rows(tmp_path, rows), monkeypatch)
        assert rec.token_vocabs[1].tolist() == ["aaa_first", "http"]
        assert rec.tokens[7].tolist() == ["udp", "aaa_first", "REJ"]

    def test_wide_token_only_in_a_later_slice(self, tmp_path, monkeypatch):
        service = "s" * 20
        rows = [make_row()] * 4 + [make_row(label="buffer_overflow").replace("http", service)]
        rec = self.assert_slicing_invisible(write_rows(tmp_path, rows), monkeypatch)
        assert rec.tokens[4, 1] == service
        assert rec.is_in((AttackCategory.U2R,)).tolist() == [False] * 4 + [True]

    def test_su_attempted_two_in_a_later_slice(self, tmp_path, monkeypatch):
        rows = [make_row()] * 5 + [with_field("su_attempted", "2")]
        rec = self.assert_slicing_invisible(write_rows(tmp_path, rows), monkeypatch)
        assert not rec.values[:, nslkdd.FEATURE_INDEX["su_attempted"]].any()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
    def test_line_ends_and_blank_lines(self, tmp_path, monkeypatch, newline, final):
        rows = [make_row(), "", make_row(label="neptune"), "  ", make_row()] * 3
        path = tmp_path / "rows.txt"
        path.write_bytes((newline.join(rows) + (newline if final else "")).encode())
        assert len(self.assert_slicing_invisible(path, monkeypatch)) == 9

    @pytest.mark.parametrize("blank", [False, True], ids=["no-blank-lines", "blank-lines"])
    def test_bad_row_in_a_later_slice_names_its_line(self, tmp_path, monkeypatch, blank):
        monkeypatch.setattr(nslkdd, "_SLICE_LINES", self.SLICE)
        rows = [make_row()] * 7 + [with_field("dst_bytes", "-1"), make_row()]
        if blank:
            rows.insert(2, "")
        with pytest.raises(MalformedRecord, match=rf"\(line {9 if blank else 8}\)$"):
            load_rows(tmp_path, rows)
        rows[-1] = make_row(label="not_an_attack")
        rows[-2] = make_row()
        with pytest.raises(UnknownAttack, match=rf"\(line {10 if blank else 9}\)"):
            load_rows(tmp_path, rows)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("n_lines", [1023, 1024, 1025])
    def test_blank_lines_at_slice_boundaries(self, tmp_path, monkeypatch, newline, n_lines):
        """Files around one default slice and three slices of 341 lines, blank lines at the cuts.

        Both slice sizes give the same records, which match the reference;
        a bad row after the last cut still names its line.
        """
        blank = {0: "", 340: " \t", 341: "", 682: "  ", 1022: "", 1023: " "}
        rows = [make_row(["0"] * 4 + [str(i)] + ["0"] * 36, _NAMES[i % 40]) for i in range(n_lines)]
        lines = [blank.get(i, row) for i, row in enumerate(rows)]
        path = tmp_path / "rows.txt"
        path.write_bytes((newline.join(lines) + newline).encode())
        whole = load_file(path)
        monkeypatch.setattr(nslkdd, "_SLICE_LINES", 341)
        sliced = load_file(path)
        TestSlices.assert_same_records(sliced, whole)
        assert_matches_reference(sliced, path)
        assert len(sliced) == n_lines - sum(i < n_lines for i in blank)

        lines[1021] = with_field("dst_bytes", "-1")
        path.write_bytes((newline.join(lines) + newline).encode())
        for slice_lines in (341, 1024):
            monkeypatch.setattr(nslkdd, "_SLICE_LINES", slice_lines)
            with pytest.raises(MalformedRecord, match=r"\(line 1022\)$"):
                load_file(path)

    def test_parse_memory_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        """The tracemalloc peak past the records stays flat from 4 to 32 slices.

        Each file is read as it is, with a blank line prepended, which makes
        its first slice drop blank lines and must not read the rest of the
        file whole, and with every line ended by a lone CR, which must be
        cut into slices as well. Holding the file's bytes would add ~160
        bytes a line, and a whole-file parse ~570: 1.1 to 4 MB more at 8,192
        lines than at 1,024.
        """
        monkeypatch.setattr(nslkdd, "_SLICE_LINES", 256)
        for prefix, newline in (("", "\n"), ("\n", "\n"), ("", "\r")):
            extra = {}
            for n in (1024, 1024, 8192):  # the first load warms numpy's one-time caches
                path = tmp_path / f"rows{n}.txt"
                path.write_bytes((prefix + newline.join([HTTP_ROW] * n) + newline).encode())
                tracemalloc.start()
                try:
                    rec = load_file(path)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert len(rec) == n
                arrays = (rec.values, rec.token_codes, rec.category, rec.difficulty)
                extra[n] = peak - sum(a.nbytes for a in arrays)
            assert extra[8192] - extra[1024] < 100_000, (prefix, newline, extra)


class TestRereads:
    """`load_file` reads a file twice: once to bound its rows, then to parse them."""

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_refused(self):
        """A pipe cannot be read from its start again: refused, not read as empty."""
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write((HTTP_ROW + "\n").encode())
        try:
            with pytest.raises(UnreadableFile, match="unseekable"):
                load_file(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_file_that_grows_between_the_reads(self, tmp_path, monkeypatch):
        """More lines than the count found: refused, not a broadcast error."""
        path = write_rows(tmp_path, [make_row()] * 5)
        # as if the count had run before the last three rows were written
        monkeypatch.setattr(nslkdd, "_line_bound", lambda fh: 3)
        with pytest.raises(UnreadableFile, match="grew"):
            load_file(path)


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
        kinds = [kind for _, kind, _ in nslkdd.FEATURE_TABLE]
        assert len(SYMBOLIC_INDICES) == 3
        assert len(BINARY_INDICES) == 6
        assert len(FEATURE_NAMES) == 41
        assert SYMBOLIC_INDICES == tuple(i for i, k in enumerate(kinds) if k == DISCRETE_MULTI)
        assert BINARY_INDICES == tuple(i for i, k in enumerate(kinds) if k == DISCRETE_BINARY)
        assert FeatureSchema().binary_indices == BINARY_INDICES

    def test_set_partition(self):
        sets = [fset for _, _, fset in nslkdd.FEATURE_TABLE]
        assert sets == (
            [nslkdd.INTRINSIC] * 9 + [nslkdd.CONTENT] * 13
            + [nslkdd.TIME_BASED] * 9 + [nslkdd.HOST_BASED] * 10
        )


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
        decoded = [decode_value(schema, i, v) for v in encoded[:, i]]
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
        """The saved artifact's bytes are what the fingerprint hashes."""
        path = tmp_path / "schema.txt"
        schema.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == schema.fingerprint()


@pytest.fixture(scope="module")
def toy_schema(tmp_path_factory):
    rows = [
        make_row(["0"] * 41),
        make_row(["120"] + ["0"] * 40),
        make_row(["60"] + ["0"] * 40).replace("http", "smtp"),
    ]
    return build_schema(load_rows(tmp_path_factory.mktemp("toy"), rows))


def encode_row(directory, row, schema):
    return encode_batch(load_rows(directory, [row]), schema)[0]


def decode_value(schema, i, normalized):
    """Invert the min-max map for one feature."""
    return schema.fmin[i] + normalized * (schema.fmax[i] - schema.fmin[i])


def reference_encode(records, schema):
    """Record-by-record, field-by-field encoding: the oracle for encode_batch."""
    out = np.empty((len(records), 41))
    for r in range(len(records)):
        x = records.values[r].copy()
        for j, i in enumerate(SYMBOLIC_INDICES):
            vocab = schema.vocabs[i]
            token = records.tokens[r, j]
            x[i] = vocab.index(token) + 1 if token in vocab else len(vocab) + 1
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
            back = decode_value(schema, i, enc[i])
            assert back == pytest.approx(raw, rel=1e-9)

    def test_unseen_token_clamps_to_top(self, toy_schema, tmp_path):
        enc = encode_row(tmp_path, make_row().replace("http", "nosuchservice"), toy_schema)
        assert enc[nslkdd.FEATURE_INDEX["service"]] == 1.0

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

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
    def test_split_stream_is_numpys_default(self, seed):
        """The split draws from ``make_rng(seed)``: ``np.random.default_rng(seed)``'s stream."""
        state = nn.make_rng(seed).bit_generator.state
        assert state == np.random.default_rng(seed).bit_generator.state


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


# Padding a field must not change what it parses to.
_PAD = st.text(alphabet=" \t", max_size=3)
# Symbolic tokens of every length, up to well past the parse width.
_LONG_TOKENS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=60)


@st.composite
def padded_rows(draw, max_rows=8):
    """Valid rows with padded fields, su_attempted 2 and tokens of any length."""
    rows = draw(valid_rows(max_rows))
    out = []
    for row in rows:
        fields = row.split(",")
        for i in SYMBOLIC_INDICES:
            fields[i] = draw(st.one_of(st.sampled_from(_TOKENS), _LONG_TOKENS))
        if draw(st.booleans()):
            fields[nslkdd.FEATURE_INDEX["su_attempted"]] = "2"
        out.append(",".join(draw(_PAD) + f + draw(_PAD) for f in fields))
    return out


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
    @given(rows=padded_rows(), newline=st.sampled_from(["\n", "\r\n"]), final=st.booleans())
    def test_one_pass_parse_matches_line_by_line_reference(self, scratch_dir, rows, newline, final):
        path = scratch_dir / "padded.txt"
        path.write_bytes((newline.join(rows) + (newline if final else "")).encode("utf-8"))
        assert_matches_reference(load_file(path), path)

    def test_tokens_past_the_parse_width_come_back_whole(self, tmp_path):
        service, label = "s" * 54, " buffer_overflow" + " " * 20
        rows = [make_row().replace("http", service), make_row(label=label), make_row()]
        rec = load_rows(tmp_path, rows)
        assert rec.tokens[:, 1].tolist() == [service, "http", "http"]
        assert rec.is_in((AttackCategory.U2R,)).tolist() == [False, True, False]
        with pytest.raises(UnknownAttack, match=r"\(line 2\)"):
            load_rows(tmp_path, [make_row(), make_row(label="buffer_overflow" + "x" * 30)])

    @_PROPERTY_SETTINGS
    @given(
        codes=st.lists(st.integers(0, len(CATEGORIES) - 1), max_size=60),
        seed=st.integers(0, 2**32),
    )
    def test_split_halves_partition_rows(self, codes, seed):
        n = len(codes)
        records = Records(
            np.zeros((n, 41)), np.zeros((n, 3), dtype=np.intp), (np.array(["x"]),) * 3,
            np.array(codes, dtype=np.intp), np.zeros(n, dtype=np.int64),
        )
        a, b = split_indices(records, seed)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(n))
        assert abs(len(a) - len(b)) <= 1
        for code in set(codes):
            if codes.count(code) >= 2:
                assert code in records.category[a] and code in records.category[b]
