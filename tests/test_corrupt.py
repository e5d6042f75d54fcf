import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirtybench import corrupt
from dirtybench.corrupt import (
    CorruptionSpec,
    derive_seed,
    impute,
    inject,
)
from dirtybench.data import (
    CATEGORICAL,
    Column,
    FEATURE,
    FDRule,
    KEY,
    NUMERIC,
    TARGET,
    ViolationIndex,
    conflicting_row_rate,
    conflicting_rows,
    count_missing,
    dataset_from_rows,
    detect_error_rates,
    inconsistent_row_rate,
    inconsistent_rows,
)
from dirtybench.errors import (
    ConfigurationError,
    ImputationImpossibleError,
    InjectionImpossibleError,
)
from dirtybench.synth import make_blobs, make_keyed_records
from oracles import content_hash, violation_index_by_rows


@st.composite
def masked_missing_cases(draw, holes=False):
    """A table over a random schema (numeric and categorical features, maybe
    a target and a key, in any order), clean or, with ``holes``, with some
    cells of any column missing, and a missing spec with a random rate,
    column mask and ``corrupt_target_in_train``."""
    kinds = draw(st.lists(st.sampled_from((NUMERIC, CATEGORICAL)), min_size=1, max_size=4))
    cols = [Column(f"x{j}", kind) for j, kind in enumerate(kinds)]
    if draw(st.booleans()):
        cols.append(Column("y", CATEGORICAL, TARGET))
    if draw(st.booleans()):
        cols.append(Column("id", CATEGORICAL, KEY))
    cols = draw(st.permutations(cols))
    n_rows = draw(st.integers(1, 25))
    rows = [[float(i + j) if c.kind == NUMERIC else f"v{(i * j) % 3}"
             for j, c in enumerate(cols)] for i in range(n_rows)]
    if holes:
        for i, j in draw(st.sets(st.tuples(st.integers(0, n_rows - 1),
                                           st.integers(0, len(cols) - 1)))):
            rows[i][j] = None
    mask = draw(st.none() | st.lists(st.sampled_from([c.name for c in cols]),
                                     unique=True).map(tuple))
    spec = CorruptionSpec(error_type="missing", rate=draw(st.floats(0.0, 1.0)),
                          seed=draw(st.integers(0, 2 ** 32)), column_mask=mask,
                          corrupt_target_in_train=draw(st.booleans()))
    return dataset_from_rows(cols, rows), spec


def grid_dataset(n_rows=10, n_cols=4):
    cols = [Column(f"x{j}", NUMERIC) for j in range(n_cols)]
    rows = [[float(i * n_cols + j) for j in range(n_cols)] for i in range(n_rows)]
    return dataset_from_rows(cols, rows)


class TestMissing:
    def test_rate_zero_identity(self, iris):
        spec = CorruptionSpec(error_type="missing", rate=0.0, seed=3)
        out, _ = inject(iris, spec)
        assert out.rows == iris.rows

    def test_exact_cell_count(self):
        d = grid_dataset(10, 4)
        spec = CorruptionSpec(error_type="missing", rate=0.25, seed=11)
        out, _ = inject(d, spec)
        holes = sum(1 for row in out.rows for c in row if c is None)
        assert holes == 10

    def test_seed_determinism(self, iris):
        spec = CorruptionSpec(error_type="missing", rate=0.3, seed=42)
        assert inject(iris, spec)[0].rows == inject(iris, spec)[0].rows

    def test_different_seeds_differ(self, iris):
        a, _ = inject(iris, CorruptionSpec(error_type="missing", rate=0.3, seed=1))
        b, _ = inject(iris, CorruptionSpec(error_type="missing", rate=0.3, seed=2))
        assert a.rows != b.rows

    def test_target_never_deleted(self, iris):
        spec = CorruptionSpec(error_type="missing", rate=0.5, seed=5)
        out, _ = inject(iris, spec)
        t = iris.schema.target_index
        assert all(row[t] is not None for row in out.rows)

    def test_column_mask_locality(self, iris):
        spec = CorruptionSpec(
            error_type="missing", rate=0.5, seed=5, column_mask=("sepal_length",)
        )
        out, _ = inject(iris, spec)
        for row in out.rows:
            assert all(row[j] is not None for j in (1, 2, 3, 4))
        holes = sum(1 for row in out.rows if row[0] is None)
        assert holes == 75

    @given(masked_missing_cases())
    def test_deletes_exactly_the_rate_of_eligible_cells_and_no_other(self, case):
        """A feature column, or the target when it may be corrupted, is
        eligible unless the mask leaves it out; exactly round(rate x
        eligible cells) of those cells become missing, and nothing else
        changes."""
        d, spec = case
        before = [list(row) for row in d.rows]
        eligible = [j for j, c in enumerate(d.schema.columns)
                    if (c.role == FEATURE or (c.role == TARGET and spec.corrupt_target_in_train))
                    and (spec.column_mask is None or c.name in spec.column_mask)]
        total = len(eligible) * d.n_rows
        if not total and spec.rate > 0:
            with pytest.raises(ConfigurationError):
                inject(d, spec)
            return
        out, _ = inject(d, spec)
        assert d.rows == before
        holes = [(i, j) for i, row in enumerate(out.rows) for j, c in enumerate(row)
                 if c is None]
        assert len(holes) == round(spec.rate * total)
        assert all(j in eligible for _, j in holes)
        assert all(out.rows[i][j] in (None, before[i][j])
                   for i in range(d.n_rows) for j in range(d.schema.arity))

    @given(masked_missing_cases(holes=True))
    def test_tops_up_the_eligible_cells_already_missing(self, case):
        """On a table that already has missing cells, the eligible ones that
        are missing count toward the rate: present eligible cells are
        deleted until round(rate x eligible cells) are missing.  A table
        already within one cell above that comes back as it is, and one
        further above is refused."""
        d, spec = case
        before = [list(row) for row in d.rows]
        eligible = [j for j, c in enumerate(d.schema.columns)
                    if (c.role == FEATURE or (c.role == TARGET and spec.corrupt_target_in_train))
                    and (spec.column_mask is None or c.name in spec.column_mask)]
        total = len(eligible) * d.n_rows
        already = sum(row[j] is None for row in before for j in eligible)
        target = round(spec.rate * total)
        if spec.rate > 0 and (not total or already > target + 1):
            with pytest.raises(ConfigurationError if not total else InjectionImpossibleError):
                inject(d, spec)
            return
        out, _ = inject(d, spec)
        assert d.rows == before
        holes = sum(row[j] is None for row in out.rows for j in eligible)
        assert holes == (already if spec.rate == 0 else max(already, target))
        assert all(out.rows[i][j] in (None, before[i][j])
                   for i in range(d.n_rows) for j in range(d.schema.arity))
        assert all(out.rows[i][j] == before[i][j]
                   for i in range(d.n_rows) for j in range(d.schema.arity) if j not in eligible)

    def test_a_holed_table_lands_on_the_rate(self):
        d = make_keyed_records(100, seed=0)
        holed, _ = inject(d, CorruptionSpec(error_type="missing", rate=0.3, seed=0))
        for rate in (0.3, 0.5):
            out, _ = inject(holed, CorruptionSpec(error_type="missing", rate=rate, seed=2))
            assert detect_error_rates(out).missing == rate
        with pytest.raises(InjectionImpossibleError,
                           match=r"already missing at 0\.3 \(180/600 cells\)"):
            inject(holed, CorruptionSpec(error_type="missing", rate=0.1, seed=2))

    def test_rate_without_eligible_cells(self):
        d = grid_dataset(4, 2)
        spec = CorruptionSpec(error_type="missing", rate=0.5, seed=0, column_mask=())
        with pytest.raises(ConfigurationError):
            inject(d, spec)


class TestInconsistent:
    def test_student_pair_violation(self, student_table):
        rule = FDRule(lhs=("StudentNo",), rhs="Name")
        spec = CorruptionSpec(error_type="inconsistent", rate=0.5, seed=0, rules=(rule,))
        out, _ = inject(student_table, spec)
        assert inconsistent_row_rate(out, [rule]) >= 0.5 - 1 / out.n_rows

    def test_rate_zero_identity(self, student_table):
        rule = FDRule(lhs=("StudentNo",), rhs="Name")
        spec = CorruptionSpec(error_type="inconsistent", rate=0.0, seed=0, rules=(rule,))
        assert inject(student_table, spec)[0].rows == student_table.rows

    def test_detector_meets_rate_on_100_rows(self):
        d = make_keyed_records(100, seed=3)
        spec = CorruptionSpec(
            error_type="inconsistent", rate=0.5, seed=9, rules=d.rules
        )
        out, _ = inject(d, spec)
        achieved = inconsistent_row_rate(out, d.rules)
        assert achieved >= 0.49
        assert abs(achieved - 0.5) <= 1 / out.n_rows

    def test_single_value_rhs_is_impossible(self):
        cols = [Column("a", CATEGORICAL), Column("b", CATEGORICAL)]
        rows = [["k1", "v"], ["k2", "v"], ["k3", "v"]]
        d = dataset_from_rows(cols, rows)
        rule = FDRule(lhs=("a",), rhs="b")
        spec = CorruptionSpec(error_type="inconsistent", rate=0.5, seed=0, rules=(rule,))
        with pytest.raises(InjectionImpossibleError):
            inject(d, spec)

    def test_overshoot_past_one_row_is_refused(self):
        # one row is asked for, but the fabricated partner joins a pair
        d = make_keyed_records(10, seed=0)
        spec = CorruptionSpec(error_type="inconsistent", rate=0.1, seed=0, rules=d.rules)
        with pytest.raises(InjectionImpossibleError, match="3/10 rows"):
            inject(d, spec)

    def test_requires_rules(self):
        with pytest.raises(ConfigurationError):
            CorruptionSpec(error_type="inconsistent", rate=0.1, seed=0)

    def test_determinism(self):
        d = make_keyed_records(60, seed=1)
        spec = CorruptionSpec(error_type="inconsistent", rate=0.3, seed=5, rules=d.rules)
        assert inject(d, spec)[0].rows == inject(d, spec)[0].rows


class TestConflicting:
    def test_bob_city_conflict(self, student_table):
        spec = CorruptionSpec(
            error_type="conflicting", rate=0.5, seed=2, entity_key=("StudentNo", "Name")
        )
        out, _ = inject(student_table, spec)
        achieved = conflicting_row_rate(out, ("StudentNo", "Name"))
        assert achieved >= 0.5 - 1 / len(out.rows)

    def test_rate_zero_identity(self, student_table):
        spec = CorruptionSpec(
            error_type="conflicting", rate=0.0, seed=2, entity_key=("StudentNo", "Name")
        )
        assert inject(student_table, spec)[0].rows == student_table.rows

    def test_detector_bound(self):
        d = make_keyed_records(200, seed=4)
        spec = CorruptionSpec(error_type="conflicting", rate=0.3, seed=6, entity_key=("entity",))
        out, _ = inject(d, spec)
        achieved = conflicting_row_rate(out, ("entity",))
        assert abs(achieved - 0.3) <= 1 / len(out.rows)

    def test_singleton_entities_are_duplicated(self):
        cols = [Column("id", CATEGORICAL, "key"), Column("v", CATEGORICAL)]
        rows = [[f"e{i}", f"v{i % 3}"] for i in range(10)]
        d = dataset_from_rows(cols, rows)
        spec = CorruptionSpec(error_type="conflicting", rate=0.4, seed=1, entity_key=("id",))
        out, _ = inject(d, spec)
        assert len(out.rows) > 10
        assert len(out.row_origin) == len(out.rows)
        achieved = conflicting_row_rate(out, ("id",))
        assert abs(achieved - 0.4) <= 1 / len(out.rows)

    def test_all_key_columns_rejected(self):
        cols = [Column("id", CATEGORICAL, "key"), Column("v", CATEGORICAL)]
        rows = [["a", "x"], ["b", "y"]]
        d = dataset_from_rows(cols, rows)
        spec = CorruptionSpec(error_type="conflicting", rate=0.5, seed=0, entity_key=("id", "v"))
        with pytest.raises(ConfigurationError):
            inject(d, spec)

    def test_determinism(self):
        d = make_keyed_records(80, seed=2)
        spec = CorruptionSpec(error_type="conflicting", rate=0.5, seed=8, entity_key=("entity",))
        a, _ = inject(d, spec)
        b, _ = inject(d, spec)
        assert a.rows == b.rows and a.row_origin == b.row_origin

    @staticmethod
    def listed_disagree_group(index, members, usable_cols, domains, rng):
        """The disagreeing draw as a list of the other values, one per call."""
        col = usable_cols[int(rng.integers(len(usable_cols)))]
        holders = [i for i in members if index.rows[i][col] is not None]
        dom = domains[col]
        if len(holders) >= 2:
            options = [v for v in dom if v != index.rows[holders[0]][col]]
            index.rows[holders[0]][col] = options[int(rng.integers(len(options)))]
        elif len(holders) == 1:
            victim = next(i for i in members if i != holders[0])
            options = [v for v in dom if v != index.rows[holders[0]][col]]
            index.rows[victim][col] = options[int(rng.integers(len(options)))]
        else:
            index.rows[members[0]][col] = dom[0]
            index.rows[members[1]][col] = dom[1]
        return True

    def test_positional_draw_equals_listed_draw(self, monkeypatch):
        keyed = make_keyed_records(120, seed=3)
        # missing cells first, so groups with one or no holder are drawn too
        holed, _ = inject(keyed, CorruptionSpec(error_type="missing", rate=0.3, seed=5))
        for d in (keyed, holed):
            for seed in (0, 1, 7):
                for rate in (0.05, 0.3, 0.6):
                    spec = CorruptionSpec(error_type="conflicting", rate=rate, seed=seed,
                                          entity_key=("entity",))
                    got, _ = inject(d, spec)
                    with monkeypatch.context() as m:
                        m.setattr(corrupt, "_disagree_group", self.listed_disagree_group)
                        expect, _ = inject(d, spec)
                    assert got.rows == expect.rows and got.row_origin == expect.row_origin
        dom = ["a", "b", "c", "d"]
        for current in dom + ["0", "bb", "z"]:
            options = [v for v in dom if v != current]
            got, expect = np.random.default_rng(4), np.random.default_rng(4)
            for _ in range(20):
                drawn = corrupt._other_value(dom, current, got)
                assert drawn == options[int(expect.integers(len(options)))]


@st.composite
def keyed_tables(draw, max_rules=2):
    """An entity-keyed table of small-domain categorical columns, with
    missing cells and whatever FD violations and conflicts the draw brings,
    plus one to ``max_rules`` FD rules over its attribute columns."""
    attrs = [f"a{j}" for j in range(draw(st.integers(2, 4)))]
    cells = st.sampled_from([None, "v0", "v1", "v2", "v3"])
    rows = draw(st.lists(
        st.tuples(st.sampled_from([None, "e0", "e1", "e2", "e3", "e4"]),
                  *[cells] * len(attrs)).map(list),
        min_size=1, max_size=30))
    rules = []
    for _ in range(draw(st.integers(1, max_rules))):
        rhs = draw(st.sampled_from(attrs))
        lhs = draw(st.lists(st.sampled_from([a for a in attrs if a != rhs]),
                            min_size=1, max_size=2, unique=True))
        rules.append(FDRule(lhs=tuple(lhs), rhs=rhs))
    columns = [Column("entity", CATEGORICAL, KEY)] + [Column(a, CATEGORICAL) for a in attrs]
    return dataset_from_rows(columns, rows, rules=rules)


@st.composite
def indexed_tables(draw):
    """A keyed table with up to three FD rules, and copies of some of its
    rows appended after it, as conflicting injection appends them."""
    d = draw(keyed_tables(max_rules=3))
    dups = draw(st.lists(st.integers(0, d.n_rows - 1), max_size=6))
    rows = [list(row) for row in d.rows] + [list(d.rows[i]) for i in dups]
    return d.with_rows(rows, d.row_origin + [d.row_origin[i] for i in dups])


class TestViolationIndex:
    @given(indexed_tables(), st.data())
    def test_one_pass_build_equals_row_by_row(self, d, data):
        key_idx = data.draw(st.sampled_from([(0,), (0, 1)]))
        compare = tuple(data.draw(st.lists(
            st.sampled_from([j for j in range(d.schema.arity) if j not in key_idx]),
            min_size=1, unique=True)))
        entity = [(key_idx, compare, key_idx)]
        # each kind's groupings, and its rules restated as (key, compared,
        # must-be-present) columns: an FD row needs its lhs and rhs cells
        fd_rules = [(lhs, (rhs,), (*lhs, rhs))
                    for lhs, rhs in (rule.bind(d.schema) for rule in d.rules)]
        for groupings, rules in (([rule.grouping(d.schema) for rule in d.rules], fd_rules),
                                 (entity, entity)):
            built = ViolationIndex(d.rows, groupings)
            ref = violation_index_by_rows(d.rows, groupings)
            assert [list(g.items()) for g in built.groups] == [list(g.items()) for g in ref.groups]
            assert [list(v) for v in built.violated] == [list(v) for v in ref.violated]
            assert built.flag_count == ref.flag_count
            for (key, compared, must), groups, violated in zip(rules, built.groups, built.violated):
                # a row joins the group of its key values when its
                # must-be-present cells are all present
                present = [i for i, row in enumerate(d.rows)
                           if all(row[j] is not None for j in must)]
                assert sorted(i for members in groups.values() for i in members) == present
                assert all(tuple(d.rows[i][j] for j in key) == k
                           for k, members in groups.items() for i in members)
                # and a group is violated when two members hold different
                # present values in one compared column
                assert set(violated) == {
                    k for k, members in groups.items()
                    if any(len({d.rows[m][j] for m in members} - {None}) > 1 for j in compared)
                }

    # the injectors add dirt and never clean it, so a table already more
    # than one row above the rate is refused
    @given(st.data())
    def test_injected_rows_land_within_one_row(self, data):
        d = data.draw(keyed_tables())
        seed = data.draw(st.integers(0, 2**16))
        for error_type, detect, field, context in (
            ("inconsistent", inconsistent_rows, "rules", d.rules),
            ("conflicting", conflicting_rows, "entity_key", ("entity",)),
        ):
            rate = data.draw(st.floats(0.0, 1.0, exclude_min=True))
            spec = CorruptionSpec(error_type=error_type, rate=rate, seed=seed, **{field: context})
            if len(detect(d, context)) > round(rate * d.n_rows) + 1:
                with pytest.raises(InjectionImpossibleError):
                    inject(d, spec)
                continue
            try:
                out, _ = inject(d, spec)
            except InjectionImpossibleError:
                continue
            assert abs(len(detect(out, context)) - round(rate * len(out.rows))) <= 1

    @pytest.mark.parametrize("error_type, field", [("inconsistent", "rules"),
                                                   ("conflicting", "entity_key")])
    def test_refusal_names_the_tables_own_rate(self, error_type, field):
        d = make_keyed_records(20, seed=0)
        context = {field: d.rules if field == "rules" else ("entity",)}
        dirty, _ = inject(d, CorruptionSpec(error_type=error_type, rate=0.3, seed=0, **context))
        # a target of no row and one of two rows
        for rate in (0.02, 0.1):
            with pytest.raises(InjectionImpossibleError,
                               match=rf"already {error_type} at 0\.3 \(6/20 rows\)"):
                inject(dirty, CorruptionSpec(error_type=error_type, rate=rate, seed=0, **context))


@st.composite
def injection_cases(draw, error_type):
    """An entity-keyed table whose clean rows keep every FD between its
    attribute columns and agree within each entity, with a few gaps and a
    few rewritten cells, so that it may start with gaps, violations and
    conflicts yet often stays below the refusal bound.  With it come
    ``error_type``'s rule context (one to three FD rules, or the entity
    key) and maybe a column mask that hides one column outside the first
    rule, and with it the other FD rules over that column from inconsistent
    injection."""
    attrs = ["a0", "a1", "a2", "a3"]
    rows = []
    for cls in draw(st.lists(st.integers(0, 5), min_size=1, max_size=30)):
        # one class per row: its entity and, column by column, its values
        rows.append([f"e{cls}", *(f"v{(cls + j) % 4}" for j in range(len(attrs)))])
    cells = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(attrs)))
    for i, j in draw(st.lists(cells, max_size=4)):
        rows[i][j] = None
    for (i, j), value in draw(st.lists(st.tuples(cells, st.sampled_from(["v0", "v1", "v4"])),
                                       max_size=2)):
        rows[i][j] = value if j else "e0"
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        rhs = draw(st.sampled_from(attrs))
        lhs = draw(st.lists(st.sampled_from([a for a in attrs if a != rhs]),
                            min_size=1, max_size=2, unique=True))
        rules.append(FDRule(lhs=tuple(lhs), rhs=rhs))
    columns = [Column("entity", CATEGORICAL, KEY)] + [Column(a, CATEGORICAL) for a in attrs]
    d = dataset_from_rows(columns, rows, rules=rules)
    context = {"inconsistent": {"rules": d.rules},
               "conflicting": {"entity_key": ("entity",)}}.get(error_type, {})
    mask = None
    if draw(st.booleans()):
        first = {*rules[0].lhs, rules[0].rhs}
        hidden = draw(st.sampled_from([a for a in attrs if a not in first]))
        mask = tuple(name for name in d.schema.names if name != hidden)
    return d, {"column_mask": mask, **context}


def set_up_state(setup: tuple) -> tuple:
    """A deep copy of what a set-up holds, its index read out as plain data."""
    *shared, last = setup
    if isinstance(last, ViolationIndex):
        last = ([list(g.items()) for g in last.groups], [list(v) for v in last.violated],
                list(last.flag_count.items()), last.rows)
    return copy.deepcopy((*shared, last))


class TestInjectedCounts:
    """Each injector's count of what it leaves flagged is what detection
    finds on its output, and a set-up shared across rates injects as a
    fresh one."""

    @pytest.mark.parametrize("error_type", corrupt.ERROR_TYPES)
    @settings(max_examples=100)
    @given(data=st.data(), rate=st.integers(0, 10).map(lambda k: k / 10)
           | st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2 ** 16))
    def test_count_equals_detection_on_the_output(self, error_type, data, rate, seed):
        d, context = data.draw(injection_cases(error_type))
        spec = CorruptionSpec(error_type=error_type, rate=rate, seed=seed, **context)
        try:
            out, count = inject(d, spec)
        except (ConfigurationError, InjectionImpossibleError):
            return
        if count is None:
            # rate 0 of a row-level type returns before any set-up
            assert (rate, out.rows) == (0.0, d.rows) and error_type != "missing"
            return
        if error_type == "missing":
            # the cells the injector may delete, which the mask narrows
            assert count == count_missing(out.rows, corrupt._eligible_feature_columns(out, spec))
            if spec.column_mask is None:
                assert count == round(detect_error_rates(out).missing
                                      * out.n_rows * out.schema.n)
            return
        rates = detect_error_rates(out, rules=spec.rules, entity_key=spec.entity_key)
        assert count == round(getattr(rates, error_type) * len(out.rows))

    def test_count_takes_in_the_rules_the_mask_hides(self):
        """A rule over a masked column gets no violation of its own, but the
        rows it flags on the output count, as detection counts them."""
        d = make_keyed_records(40)
        # dept (entity % 7) does not determine city (entity % 5) on any row
        rules = (FDRule(("code",), "dept"), FDRule(("dept",), "city"))
        spec = CorruptionSpec(error_type="inconsistent", rate=0.1, seed=0, rules=rules,
                              column_mask=("entity", "code", "dept"))
        out, count = inject(d, spec)
        assert count == len(inconsistent_rows(out, rules)) == 40
        assert len(inconsistent_rows(out, rules[:1])) == 4

    @pytest.mark.parametrize("error_type", corrupt.ERROR_TYPES)
    @settings(max_examples=60)
    @given(data=st.data(), rates=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                          min_size=2, max_size=4),
           seed=st.integers(0, 2 ** 16))
    def test_shared_set_up_injects_as_a_fresh_one(self, error_type, data, rates, seed):
        d, context = data.draw(injection_cases(error_type))
        specs = [CorruptionSpec(error_type=error_type, rate=rate, seed=seed + k, **context)
                 for k, rate in enumerate(rates)]
        try:
            shared = corrupt.set_up(d, specs[0])
        except (ConfigurationError, InjectionImpossibleError):
            return
        before = set_up_state(shared)
        for spec in specs:
            try:
                fresh, fresh_count = inject(d, spec)
            except InjectionImpossibleError as exc:
                with pytest.raises(InjectionImpossibleError, match=re.escape(str(exc))):
                    inject(d, spec, shared)
                continue
            out, count = inject(d, spec, shared)
            assert (out.rows, out.row_origin, count) == (fresh.rows, fresh.row_origin,
                                                         fresh_count)
        assert set_up_state(shared) == before


class TestImpute:
    def test_numeric_mean(self):
        cols = [Column("a", NUMERIC)]
        d = dataset_from_rows(cols, [[1.0], [None], [3.0]])
        assert [r[0] for r in impute(d).rows] == [1.0, 2.0, 3.0]

    def test_categorical_mode_first_seen_tie(self):
        cols = [Column("a", CATEGORICAL)]
        d = dataset_from_rows(cols, [["a"], ["a"], ["b"], [None]])
        assert impute(d).rows[3][0] == "a"
        tie = dataset_from_rows(cols, [["b"], ["a"], ["a"], ["b"], [None]])
        assert impute(tie).rows[4][0] == "b"

    def test_no_missing_identity(self, iris):
        assert impute(iris).rows == iris.rows

    def test_fully_missing_column(self):
        cols = [Column("a", NUMERIC), Column("b", NUMERIC)]
        d = dataset_from_rows(cols, [[None, 1.0], [None, 2.0]])
        with pytest.raises(ImputationImpossibleError, match="'a'"):
            impute(d)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.floats(1e307, 1.7976931348623157e308), min_size=1, max_size=30),
           st.integers(1, 3))
    @example([1.2e308 - i * 1e300 for i in range(45)], 15)
    @example([1.7976931348623157e308] * 3, 1)
    @example([0.1] * 3, 1)
    def test_numeric_fill_is_a_finite_mean(self, present, holes):
        """A numeric fill always lies within the present values' range.
        Where float(sum) / count lies within it, the fill is that value bit
        for bit; rounding can take it outside (three 0.1s give
        0.10000000000000002), and a sum past the largest double leaves it
        non-finite, so the values are then divided by the count first."""
        d = dataset_from_rows([Column("a", NUMERIC)], [[v] for v in present] + [[None]] * holes)
        (fill,) = {row[0] for row in impute(d).rows[len(present):]}
        lo, hi = min(present), max(present)
        assert lo <= fill <= hi
        mean = float(sum(present)) / len(present)
        if lo <= mean <= hi:
            assert fill.hex() == mean.hex()


class TestSeedsAndComposition:
    # frozen hashes pin determinism across process restarts, not just calls
    FROZEN = {
        None: "50672c2d9386272ff4625eab61c1f1bea617fd4553409a00ce4c6789224bc532",
        "missing": "62856b320125b8a73d8156df0f482f0769ddbaa217fcde84fcfadec92d1ecc51",
        "inconsistent": "5ddae3487c376a9fda04e862a140e2f55f98ff756ce1884b05c9285492faf549",
        "conflicting": "5bf150eef0ccd881de602b2666afed1b806385faf8cf8146395c9524a02b85c2",
    }

    def test_injection_hashes_frozen_across_processes(self):
        d = make_keyed_records(100, seed=0)
        assert content_hash(d.schema, d.rows) == self.FROZEN[None]
        for et, kwargs in (
            ("missing", {}),
            ("inconsistent", {"rules": d.rules}),
            ("conflicting", {"entity_key": ("entity",)}),
        ):
            out, _ = inject(d, CorruptionSpec(error_type=et, rate=0.3, seed=99, **kwargs))
            assert content_hash(out.schema, out.rows) == self.FROZEN[et]

    def test_derive_seed_stable(self):
        assert derive_seed(7, "missing", 0.3) == derive_seed(7, "missing", 0.3)
        assert derive_seed(7, "missing", 0.3) != derive_seed(8, "missing", 0.3)
        assert derive_seed(7, "missing", 0.3) != derive_seed(7, "missing", 0.2)

    def test_composition_keeps_individual_bounds(self):
        d = make_keyed_records(100, seed=5)
        m, _ = inject(d, CorruptionSpec(error_type="missing", rate=0.2, seed=1))
        both, _ = inject(
            m,
            CorruptionSpec(error_type="conflicting", rate=0.2, seed=2, entity_key=("entity",)),
        )
        rates = detect_error_rates(both, rules=d.rules, entity_key=("entity",))
        assert rates.missing >= 0.2 - 1 / (4 * len(both.rows)) - 0.02
        assert rates.conflicting >= 0.2 - 1 / len(both.rows)

    def test_blobs_missing_sweep_rates(self):
        d = make_blobs(120, seed=0)
        for rate in (0.1, 0.3, 0.5):
            out, _ = inject(d, CorruptionSpec(error_type="missing", rate=rate, seed=3))
            cells = d.schema.n * d.n_rows
            assert abs(detect_error_rates(out).missing - rate) <= 1 / cells
