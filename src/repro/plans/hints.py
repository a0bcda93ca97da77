"""Planner hints — the simulator's analogue of the pg_hint_plan extension.

Every LQO the paper evaluates steers PostgreSQL through hints: Neo/Balsa/LEON
force a full join order with scan and join methods, Bao only toggles operator
families on or off (hint *sets*), HybridQO constrains the top of the join
order (a "leading" prefix).  :class:`HintSet` covers all three styles and the
planner (:mod:`repro.optimizer.planner`) honours whatever subset is present.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import HintError
from repro.plans.physical import JoinType, ScanType


@dataclass(frozen=True)
class OperatorToggles:
    """Bao-style global operator enable/disable switches.

    ``None`` means "leave the configuration value untouched"; ``True`` /
    ``False`` overrides the corresponding ``enable_*`` GUC for one query.
    """

    hashjoin: bool | None = None
    mergejoin: bool | None = None
    nestloop: bool | None = None
    seqscan: bool | None = None
    indexscan: bool | None = None
    bitmapscan: bool | None = None

    def as_dict(self) -> dict[str, bool | None]:
        return {
            "enable_hashjoin": self.hashjoin,
            "enable_mergejoin": self.mergejoin,
            "enable_nestloop": self.nestloop,
            "enable_seqscan": self.seqscan,
            "enable_indexscan": self.indexscan,
            "enable_bitmapscan": self.bitmapscan,
        }

    def active_overrides(self) -> dict[str, bool]:
        """Only the toggles that actually override the configuration."""
        return {k: v for k, v in self.as_dict().items() if v is not None}

    def describe(self) -> str:
        overrides = self.active_overrides()
        if not overrides:
            return "no operator toggles"
        return ", ".join(f"{k}={'on' if v else 'off'}" for k, v in sorted(overrides.items()))


@dataclass(frozen=True)
class HintSet:
    """A collection of hints for one query.

    Attributes:
        leading: the forced join order as a nested-parenthesis structure
            flattened to a sequence of aliases; when ``join_order_exact`` is
            True it is the complete order, otherwise only a prefix constraint
            (HybridQO-style).
        join_methods: mapping of a frozenset of aliases (the join's output
            aliases at that point of the order) to a forced :class:`JoinType`.
        scan_methods: mapping of alias to a forced :class:`ScanType`.
        toggles: Bao-style global operator switches.
    """

    leading: tuple[str, ...] = ()
    join_order_exact: bool = True
    join_methods: Mapping[frozenset[str], JoinType] = field(default_factory=dict)
    scan_methods: Mapping[str, ScanType] = field(default_factory=dict)
    toggles: OperatorToggles = field(default_factory=OperatorToggles)
    #: Free-form name used in reports (e.g. the Bao arm name).
    name: str = ""

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def from_join_order(
        order: Sequence[str],
        join_methods: Mapping[frozenset[str], JoinType] | None = None,
        scan_methods: Mapping[str, ScanType] | None = None,
        name: str = "",
    ) -> "HintSet":
        """A full-plan hint forcing an exact (left-deep) join order."""
        return HintSet(
            leading=tuple(order),
            join_order_exact=True,
            join_methods=dict(join_methods or {}),
            scan_methods=dict(scan_methods or {}),
            name=name,
        )

    @staticmethod
    def from_leading_prefix(prefix: Sequence[str], name: str = "") -> "HintSet":
        """A HybridQO-style hint constraining only the first joined aliases."""
        return HintSet(leading=tuple(prefix), join_order_exact=False, name=name)

    # -- introspection -----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return (
            not self.leading
            and not self.join_methods
            and not self.scan_methods
            and not self.toggles.active_overrides()
        )

    @property
    def forces_join_order(self) -> bool:
        return bool(self.leading) and self.join_order_exact

    def scan_method_for(self, alias: str) -> ScanType | None:
        return self.scan_methods.get(alias)

    def join_method_for(self, aliases: Iterable[str]) -> JoinType | None:
        return self.join_methods.get(frozenset(aliases))

    def validate(self, known_aliases: Iterable[str]) -> None:
        """Check every referenced alias exists in the query."""
        known = set(known_aliases)
        unknown = [a for a in self.leading if a not in known]
        unknown += [a for a in self.scan_methods if a not in known]
        for key in self.join_methods:
            unknown += [a for a in key if a not in known]
        if unknown:
            raise HintError(f"hints reference unknown aliases: {sorted(set(unknown))}")
        if self.forces_join_order and len(set(self.leading)) != len(self.leading):
            raise HintError("forced join order repeats an alias")

    def canonical_key(self) -> tuple:
        """Hashable, order-independent key over the planning-relevant content.

        The display ``name`` is deliberately excluded: two hint sets that
        constrain the planner identically must produce identical plans, so
        they must share one cache entry.
        """
        return (
            self.leading,
            self.join_order_exact,
            tuple(
                (tuple(sorted(aliases)), join_type.value)
                for aliases, join_type in sorted(
                    self.join_methods.items(), key=lambda kv: tuple(sorted(kv[0]))
                )
            ),
            tuple((alias, scan.value) for alias, scan in sorted(self.scan_methods.items())),
            tuple(sorted(self.toggles.active_overrides().items())),
        )

    def fingerprint(self) -> str:
        """Stable content fingerprint (see :meth:`canonical_key`).

        Memoised under a ``_repro_*`` key (a hint set is immutable, and every
        plan-cache key asks for it); :meth:`__getstate__` strips it, so a hint
        set pickles to the same bytes whether or not it was ever asked.
        """
        try:
            return self.__dict__["_repro_fingerprint"]
        except KeyError:
            payload = repr(self.canonical_key()).encode("utf-8")
            fingerprint = self.__dict__["_repro_fingerprint"] = hashlib.sha256(payload).hexdigest()[:16]
            return fingerprint

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_repro_fingerprint" in state:
            state = state.copy()
            del state["_repro_fingerprint"]
        return state

    def describe(self) -> str:
        parts = []
        if self.leading:
            kind = "join order" if self.join_order_exact else "leading prefix"
            parts.append(f"{kind}: {' -> '.join(self.leading)}")
        if self.scan_methods:
            parts.append(
                "scans: " + ", ".join(f"{a}={t.value}" for a, t in sorted(self.scan_methods.items()))
            )
        if self.join_methods:
            parts.append(f"{len(self.join_methods)} forced join methods")
        if self.toggles.active_overrides():
            parts.append(self.toggles.describe())
        return "; ".join(parts) or "empty hint set"


#: The empty hint set (PostgreSQL plans freely).
NO_HINTS = HintSet(name="postgres")


# ---------------------------------------------------------------------------
# Bao's hint-set arms.
#
# Bao's search space is the power set of the six operator toggles (48 valid
# combinations); in practice (and in the Bao paper's experiments) a small
# number of arms carries all of the benefit.  We use the five canonical arms
# plus the empty arm, which is also what keeps the simulated training loop
# cheap enough for repeated experiments.
# ---------------------------------------------------------------------------

BAO_HINT_SETS: tuple[HintSet, ...] = (
    HintSet(name="all_on"),
    HintSet(toggles=OperatorToggles(nestloop=False), name="disable_nestloop"),
    HintSet(toggles=OperatorToggles(mergejoin=False), name="disable_mergejoin"),
    HintSet(toggles=OperatorToggles(hashjoin=False), name="disable_hashjoin"),
    HintSet(
        toggles=OperatorToggles(nestloop=False, mergejoin=False),
        name="hash_only",
    ),
    HintSet(
        toggles=OperatorToggles(indexscan=False, bitmapscan=False),
        name="seqscan_only",
    ),
)

#: Names of the Bao arms in the same order as :data:`BAO_HINT_SETS`.
BAO_ARM_NAMES: tuple[str, ...] = tuple(h.name for h in BAO_HINT_SETS)
