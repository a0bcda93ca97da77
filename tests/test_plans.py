"""Tests for physical plan nodes, plan properties and the hint mechanism."""

import pickle

import pytest

from repro.errors import HintError, PlanError
from repro.plans.hints import BAO_HINT_SETS, NO_HINTS, HintSet, OperatorToggles
from repro.plans.physical import (
    AggregateNode,
    JoinNode,
    JoinType,
    ScanNode,
    ScanType,
    SortNode,
    plan_depth,
    plan_join_nodes,
    plan_scan_nodes,
    validate_plan,
)
from repro.plans.properties import (
    PlanShape,
    classify_plan_shape,
    is_bushy,
    is_left_deep,
    is_right_deep,
    is_zigzag,
    join_order_of,
)
from repro.sql.binder import JoinPredicate


def scan(alias: str, table: str = "title") -> ScanNode:
    return ScanNode(alias=alias, table=table, scan_type=ScanType.SEQ)


def join(left, right, la="a", lc="id", ra="b", rc="id") -> JoinNode:
    return JoinNode(
        join_type=JoinType.HASH,
        left=left,
        right=right,
        predicates=(JoinPredicate(la, lc, ra, rc),),
    )


class TestPlanNodes:
    def test_scan_requires_alias_and_table(self):
        with pytest.raises(PlanError):
            ScanNode(alias="", table="title")

    def test_index_scan_requires_index_column(self):
        with pytest.raises(PlanError):
            ScanNode(alias="t", table="title", scan_type=ScanType.INDEX)

    def test_join_rejects_overlapping_children(self):
        with pytest.raises(PlanError):
            JoinNode(join_type=JoinType.HASH, left=scan("a"), right=scan("a"))

    def test_join_rejects_unrelated_predicate(self):
        with pytest.raises(PlanError):
            JoinNode(
                join_type=JoinType.HASH,
                left=scan("a"),
                right=scan("b"),
                predicates=(JoinPredicate("x", "id", "y", "id"),),
            )

    def test_aliases_and_traversal(self):
        plan = join(join(scan("a"), scan("b")), scan("c", "keyword"), la="a", ra="c")
        assert plan.aliases == frozenset({"a", "b", "c"})
        assert len(plan_scan_nodes(plan)) == 3
        assert len(plan_join_nodes(plan)) == 2
        assert plan_depth(plan) == 3
        assert plan.node_count() == 5

    def test_with_estimates_is_non_destructive(self):
        node = scan("a").with_estimates(100, 42.0)
        assert node.estimated_rows == 100
        assert scan("a").estimated_rows == -1.0

    def test_validate_plan(self):
        plan = join(scan("a"), scan("b"))
        validate_plan(plan, ["a", "b"])
        with pytest.raises(PlanError):
            validate_plan(plan, ["a", "b", "c"])

    def test_pretty_contains_labels(self):
        plan = join(scan("a"), scan("b"))
        rendered = plan.pretty()
        assert "Hash Join" in rendered and "Seq Scan" in rendered


class TestPlanProperties:
    def test_left_deep_classification(self):
        plan = join(join(scan("a"), scan("b")), scan("c"), la="a", ra="c")
        assert is_left_deep(plan)
        assert not is_bushy(plan)
        assert classify_plan_shape(plan) is PlanShape.LEFT_DEEP

    def test_bushy_classification(self):
        left = join(scan("a"), scan("b"))
        right = join(scan("c"), scan("d"), la="c", ra="d")
        plan = join(left, right, la="a", ra="c")
        assert is_bushy(plan)
        assert classify_plan_shape(plan) is PlanShape.BUSHY

    def test_right_deep_classification(self):
        plan = join(scan("c"), join(scan("a"), scan("b")), la="c", ra="a")
        assert classify_plan_shape(plan) is PlanShape.RIGHT_DEEP

    def test_zigzag_classification(self):
        # Linear, but the base relation is the lower join's right child and
        # the upper join's left child.
        inner = join(join(scan("a"), scan("b")), scan("c"), la="a", ra="c")
        plan = join(scan("d"), inner, la="d", ra="a")
        assert not is_left_deep(plan) and not is_right_deep(plan)
        assert is_zigzag(plan) and not is_bushy(plan)
        assert classify_plan_shape(plan) is PlanShape.ZIGZAG

    def test_shape_looks_through_sort_and_aggregate(self):
        sorted_b = SortNode(child=scan("b"), sort_keys=(("b", "id"),))
        core = join(join(scan("a"), sorted_b), scan("c"), la="a", ra="c")
        plan = AggregateNode(child=SortNode(child=core), aggregates=("COUNT(*)",))
        assert is_left_deep(plan)
        assert classify_plan_shape(plan) is PlanShape.LEFT_DEEP
        assert join_order_of(plan) == ("a", "b", "c")

    def test_single_relation(self):
        assert classify_plan_shape(scan("a")) is PlanShape.SINGLE_RELATION

    def test_join_order(self):
        plan = join(join(scan("a"), scan("b")), scan("c"), la="a", ra="c")
        assert join_order_of(plan) == ("a", "b", "c")


class TestHints:
    def test_empty_hint_set(self):
        assert not NO_HINTS.forces_join_order

    def test_from_join_order(self):
        hints = HintSet.from_join_order(["a", "b", "c"], scan_methods={"a": ScanType.SEQ})
        assert hints.forces_join_order
        assert hints.scan_method_for("a") is ScanType.SEQ
        assert hints.scan_method_for("z") is None

    def test_validation_rejects_unknown_aliases(self):
        hints = HintSet.from_join_order(["a", "zz"])
        with pytest.raises(HintError):
            hints.validate(["a", "b"])

    def test_validation_rejects_duplicate_order(self):
        hints = HintSet.from_join_order(["a", "a"])
        with pytest.raises(HintError):
            hints.validate(["a", "b"])

    def test_leading_prefix_is_not_exact(self):
        hints = HintSet.from_leading_prefix(["a", "b"])
        assert hints.leading == ("a", "b")
        assert not hints.forces_join_order

    def test_toggles_override_dict(self):
        toggles = OperatorToggles(nestloop=False, hashjoin=True)
        overrides = toggles.active_overrides()
        assert overrides == {"enable_nestloop": False, "enable_hashjoin": True}

    def test_bao_hint_sets_unique_names(self):
        names = [h.name for h in BAO_HINT_SETS]
        assert len(names) == len(set(names))
        assert "all_on" in names and "disable_nestloop" in names

    def test_fingerprint_memo_changes_neither_pickle_nor_equality(self):
        def forced():
            return HintSet.from_join_order(
                ["a", "b"], join_methods={frozenset({"a", "b"}): JoinType.HASH}, name="forced"
            )

        hints, twin = forced(), forced()
        before = pickle.dumps(hints)
        fingerprint = hints.fingerprint()
        assert hints.fingerprint() is fingerprint  # computed once, then memoised
        assert pickle.dumps(hints) == before == pickle.dumps(twin)
        assert hints == twin
        restored = pickle.loads(before)
        assert "_repro_fingerprint" not in vars(restored)  # the memo never travels
        assert restored.fingerprint() == fingerprint == twin.fingerprint()

    def test_describe_mentions_components(self):
        hints = HintSet.from_join_order(["a", "b"], join_methods={frozenset({"a", "b"}): JoinType.HASH})
        text = hints.describe()
        assert "join order" in text and "forced join methods" in text
