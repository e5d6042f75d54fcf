import pytest

from dirtybench import data
from dirtybench.corrupt import CorruptionSpec, inject_missing
from dirtybench.data import (
    CATEGORICAL,
    Column,
    FDRule,
    NUMERIC,
    Schema,
    dataset_from_rows,
    detect_error_rates,
    load_dataset,
    parse_fd_rules,
    save_dataset,
)
from dirtybench.errors import (
    ConfigurationError,
    EmptyInputError,
    ParseError,
    RuleError,
    SchemaError,
)


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
        dirty = inject_missing(iris, spec)
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
        dirty = inject_missing(iris, spec)
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
