import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from dirtybench import data
from dirtybench.corrupt import ERROR_TYPES, CorruptionSpec, inject
from dirtybench.data import (
    CATEGORICAL,
    Column,
    FDRule,
    KEY,
    NUMERIC,
    Schema,
    dataset_from_rows,
    dataset_to_text,
    detect_error_rates,
    format_rows,
    load_dataset,
    parse_fd_rules,
    save_dataset,
)
from dirtybench.errors import (
    ConfigurationError,
    EmptyInputError,
    InjectionImpossibleError,
    ParseError,
    RuleError,
    SchemaError,
)
from oracles import content_hash


class TestLoad:
    def test_iris_shape(self, iris):
        assert iris.schema.n == 4
        assert iris.n_rows == 150
        assert iris.n_c == 3
        assert iris.schema.columns[0].kind == NUMERIC
        assert iris.schema.columns[4].role == "target"

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(EmptyInputError):
            load_dataset(p)

    def test_load_twice_identical(self, iris_path):
        d1 = load_dataset(iris_path, target="species")
        d2 = load_dataset(iris_path, target="species")
        assert d1.rows == d2.rows

    def test_arity_mismatch_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(p)

    def test_inference_mixed_column_is_categorical(self, tmp_path):
        p = tmp_path / "mix.csv"
        p.write_text("a,b\n1,x\n2,3\n")
        d = load_dataset(p)
        assert d.schema.columns[0].kind == NUMERIC
        assert d.schema.columns[1].kind == CATEGORICAL

    def test_empty_field_is_missing(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,b\n1,\n2,5\n")
        d = load_dataset(p)
        assert d.rows[0][1] is None
        assert d.schema.columns[1].kind == NUMERIC

    def test_round_trip(self, tmp_path, iris):
        out = tmp_path / "again.csv"
        save_dataset(iris, out)
        back = load_dataset(out, target="species")
        assert back.rows == iris.rows
        assert back.schema == iris.schema


@st.composite
def text_tables(draw):
    """A keyed table whose cells format in every way there is: both zeros,
    integral floats below, at and above 1e15, missing cells, and categorical
    tokens that read as numbers or hold a delimiter."""
    numbers = st.sampled_from([None, 0.0, -0.0, 3.0, 2.5, 0.1, 999999999999999.0,
                               1e15, -1e15, 1e16, 2.0 ** 60])
    tokens = st.sampled_from([None, "1", "1.0", "-0", "a", "b", "a,b", "x;y", "ab"])
    entities = st.sampled_from([None, "e0", "e1", "e2", "e3", "e4", "e5"])
    rows = draw(st.lists(st.tuples(entities, tokens, tokens, numbers, numbers).map(list),
                         min_size=1, max_size=20))
    columns = [Column("entity", CATEGORICAL, KEY), Column("c0", CATEGORICAL),
               Column("c1", CATEGORICAL), Column("x0", NUMERIC), Column("x1", NUMERIC)]
    return dataset_from_rows(columns, rows, rules=[FDRule(("c0",), "c1")])


class TestText:
    @settings(max_examples=200)
    @given(text_tables(), st.sampled_from(ERROR_TYPES), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 16), st.sampled_from([",", ";", "ab"]))
    def test_clean_lines_give_the_same_text(self, d, error_type, rate, seed, delimiter):
        """An injected copy written with its table's clean lines is the text
        written without them, byte for byte, and the canonical text."""
        spec = CorruptionSpec(
            error_type=error_type, rate=rate, seed=seed,
            rules=d.rules if error_type == "inconsistent" else (),
            entity_key=("entity",) if error_type == "conflicting" else (),
        )
        try:
            out, _ = inject(d, spec)
        except InjectionImpossibleError:
            out = d
        clean_lines = format_rows(d.clean_shadow, delimiter)
        text = dataset_to_text(out, delimiter, clean_lines=clean_lines)
        assert text == dataset_to_text(out, delimiter)
        canonical = hashlib.sha256(text[:-1].encode("utf-8")).hexdigest()
        assert canonical == content_hash(out.schema, out.rows, delimiter)

    def test_a_changed_row_whose_text_holds_the_delimiter(self):
        d = dataset_from_rows([Column("a", CATEGORICAL), Column("b", NUMERIC)],
                              [["x,y", 1.0], ["z;w", 2.0], ["v", 0.0]])
        out = d.copy()
        out.rows[0][1], out.rows[1][1], out.rows[2][1] = None, 1e15, -0.0
        for delimiter in (",", ";", "ab"):
            clean_lines = format_rows(d.clean_shadow, delimiter)
            assert dataset_to_text(out, delimiter, clean_lines=clean_lines) == \
                dataset_to_text(out, delimiter)

    def test_rows_appended_by_conflicting_take_their_source_line(self):
        cols = [Column("id", CATEGORICAL, KEY), Column("v", CATEGORICAL), Column("x", NUMERIC)]
        d = dataset_from_rows(cols, [[f"e{i}", f"v{i % 3}", -0.0 if i % 2 else 1e15]
                                     for i in range(10)])
        out, _ = inject(d, CorruptionSpec(error_type="conflicting", rate=0.4, seed=1,
                                       entity_key=("id",)))
        assert out.n_rows > d.n_rows
        assert dataset_to_text(out, clean_lines=format_rows(d.clean_shadow)) == \
            dataset_to_text(out)

    def test_clean_lines_of_another_table_are_refused(self):
        d = dataset_from_rows([Column("a", NUMERIC)], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="1 clean lines for 2 clean rows"):
            dataset_to_text(d, clean_lines=["1"])


class TestRules:
    def test_parse_single(self):
        rules = parse_fd_rules("StudentNo -> Name")
        assert rules == [FDRule(lhs=("StudentNo",), rhs="Name")]

    def test_composite_lhs(self):
        rules = parse_fd_rules("A,B -> C")
        assert rules[0].lhs == ("A", "B")

    def test_rhs_in_lhs_is_cycle(self):
        with pytest.raises(RuleError):
            parse_fd_rules("A,B -> A")

    def test_empty_text(self):
        assert parse_fd_rules("") == []

    def test_bind_unknown_column(self, student_table):
        rule = FDRule(lhs=("Nope",), rhs="Name")
        with pytest.raises(RuleError):
            student_table.attach_rules([rule])


class TestDetect:
    def test_clean_dataset_all_zero(self, iris):
        rates = detect_error_rates(iris)
        assert rates.as_dict() == {"missing": 0.0, "inconsistent": 0.0, "conflicting": 0.0}

    def test_student_table_example(self, student_table):
        rules = parse_fd_rules("StudentNo -> Name")
        rates = detect_error_rates(student_table, rules=rules, entity_key=("StudentNo", "Name"))
        # t1/t2 violate the FD, t3/t4 conflict on City, two cells are missing
        assert rates.inconsistent == pytest.approx(0.5)
        assert rates.conflicting == pytest.approx(0.5)
        assert rates.missing == pytest.approx(2 / 16)

    def test_after_missing_injection(self, iris):
        spec = CorruptionSpec(error_type="missing", rate=0.30, seed=7)
        dirty, _ = inject(iris, spec)
        cells = iris.schema.n * iris.n_rows
        assert abs(detect_error_rates(dirty).missing - 0.30) <= 1.0 / cells

    def test_inconsistent_requires_rules(self, student_table):
        with pytest.raises(ConfigurationError):
            data.inconsistent_row_rate(student_table, [])

    def test_conflicting_requires_key(self, student_table):
        with pytest.raises(ConfigurationError):
            data.conflicting_row_rate(student_table, [])


class TestDatasetInvariants:
    def test_clean_shadow_untouched_by_corruption(self, iris):
        before = iris.clean_shadow
        spec = CorruptionSpec(error_type="missing", rate=0.5, seed=1)
        dirty, _ = inject(iris, spec)
        assert dirty.clean_shadow is before
        assert iris.rows == [list(r) for r in before]

    def test_schema_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Schema((Column("a", NUMERIC), Column("a", NUMERIC)))

    def test_schema_requires_feature(self):
        with pytest.raises(SchemaError):
            Schema((Column("y", NUMERIC, "target"),))

    def test_from_rows_checks_arity(self):
        cols = [Column("a", NUMERIC), Column("b", NUMERIC)]
        with pytest.raises(SchemaError):
            dataset_from_rows(cols, [[1.0]])

    def test_labels_come_from_clean_shadow(self, iris):
        labels = iris.labels()
        assert labels[0] == "setosa"
        assert len(labels) == 150
        assert iris.label_values() == ["setosa", "versicolor", "virginica"]
