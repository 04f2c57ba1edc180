"""Memo-free plan costing over the implicit engine.

The materialized pipeline prices plans only after the whole physical memo
exists; here costing rides directly on the implicit tables.  A plan's
cost is the sum of its nodes' local costs, and a node's local cost needs
only its row and the group cardinality estimates the implicit tables
compute lazily (the same values ``annotate_cardinalities`` would have
stored on memo groups — parity is asserted by the equivalence property
suite).  The sampled optimizer therefore never assembles a sampled plan:
``FragmentPool.add_rank`` (:mod:`.search`) walks a drawn rank through the
candidate lists once and sums the rows' cached local costs.

:class:`RowCoster` computes those local costs — from the row's group
cardinality and its child groups' cardinalities, no ``PlanNode`` at all.
Join rows price by *kind* through ``CostModel.join_cost``, so no join
operator object is built for them; scans, sorts, unary operators and
index-lookup joins price through ``CostModel.operator_cost``.  Because
cardinality is a group property, every alternative subtree of the same
``(group, requirement)`` context feeds its parent the same row count,
which is what makes fragment-local costs composable (see :mod:`.search`).
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.optimizer.cost import CostModel, CostParameters
from repro.optimizer.plan import PlanNode
from repro.optimizer.rules import join_physical_kinds
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.planspace.implicit.tables import Row, TableSet

__all__ = ["RowCoster", "SampledPlanCoster"]


class RowCoster:
    """Local costs of virtual operator rows, cached per ``(gid, local)``."""

    def __init__(self, tables: TableSet, cost_model: CostModel):
        self.tables = tables
        self.cost_model = cost_model
        state = tables.state
        self._cut = state.edges.cut
        # a join row's payload position indexes its orientation's kinds
        self._keyed_kinds, self._cross_kinds = join_physical_kinds(state.config)
        self._local: dict[tuple[int, int], float] = {}

    def __len__(self) -> int:
        """Distinct rows priced so far."""
        return len(self._local)

    def local_cost(self, gid: int, row: Row) -> float:
        """The row's own operator cost (children's costs not included)."""
        key = (gid, row.local_id)
        cached = self._local.get(key)
        if cached is not None:
            return cached
        tables = self.tables
        output_rows = tables.cardinality(gid)
        child_rows = tuple(
            tables.cardinality(child_gid) for child_gid, _ in row.slots
        )
        if row.kind == "join":
            left, right, pos = row.payload
            kinds = self._keyed_kinds if self._cut(left, right) else self._cross_kinds
            cost = self.cost_model.join_cost(kinds[pos], output_rows, child_rows)
        else:
            cost = self.cost_model.operator_cost(
                tables.operator(gid, row), output_rows, child_rows
            )
        self._local[key] = cost
        return cost


class SampledPlanCoster:
    """The cost model of a sampled optimization over an implicit space.

    Owns the :class:`CostModel` (built from the space's options so costs
    are comparable with the materialized optimizer's) and the
    :class:`RowCoster` the fragment pool prices rows with.
    """

    def __init__(
        self,
        catalog: Catalog,
        space: ImplicitPlanSpace,
        cost_params: CostParameters | None = None,
    ):
        self.space = space
        self.cost_model = CostModel(catalog, cost_params)
        self.rows = RowCoster(space.unranker.tables, self.cost_model)

    def cost(self, plan: PlanNode) -> float:
        """The cost of an assembled plan."""
        return self.cost_model.plan_cost(plan)
