"""Rank <-> plan bijection over the implicit tables.

The recurrences are the paper's (Section 3.3), identical to
:class:`repro.planspace.unranking.Unranker` — only the candidate lists
are implicit: instead of materialized link arrays they come from
:class:`~.tables.TableSet`, which lays out a group's alternatives as
counts on first touch.  Operator selection bisects the list's prefix
sums and builds the one row it lands on, the local rank splits by that
row's ``B_v`` products, and each child recurses with its slot's
requirement.  A single unranking therefore touches O(depth) group tables
and builds exactly the plan's rows and operators — never the physical
memo.
"""

from __future__ import annotations

from repro.errors import PlanSpaceError, RankOutOfRangeError
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.tables import CandidateList, TableSet

__all__ = ["ImplicitUnranker"]


class ImplicitUnranker:
    """Bijection between ranks ``0..N-1`` and plans, without a memo."""

    def __init__(self, state: CountState, include_redundant_sorts: bool = True):
        self.state = state
        self.tables = TableSet(
            state, include_redundant_sorts=include_redundant_sorts
        )
        self.total = state.total

    def _root_candidates(self) -> CandidateList:
        return self.tables.candidates(
            self.state.layout.root_gid, self.state.root_kid
        )

    # ------------------------------------------------------------------
    def unrank(self, rank: int) -> PlanNode:
        """The plan with number ``rank``."""
        if not 0 <= rank < self.total:
            raise RankOutOfRangeError(rank, self.total)
        return self._unrank_among(self._root_candidates(), rank)

    def _unrank_among(self, candidates: CandidateList, rank: int) -> PlanNode:
        row, local = candidates.pick(rank)
        tables = self.tables
        n = len(row.slots)
        children = []
        if n:
            # R_v / s_v mixed-radix split, highest slot first
            prefix = row.prefix
            remainder = local
            sub_ranks = [0] * n
            for i in range(n - 1, 0, -1):
                sub_ranks[i] = remainder // prefix[i]
                remainder %= prefix[i]
            sub_ranks[0] = remainder
            for (child_gid, requirement), sub_rank in zip(row.slots, sub_ranks):
                children.append(
                    self._unrank_among(
                        tables.candidates(child_gid, requirement), sub_rank
                    )
                )
        return PlanNode(
            op=tables.operator(candidates.gid, row),
            children=tuple(children),
            group_id=candidates.gid,
            local_id=row.local_id,
            cardinality=tables.cardinality(candidates.gid),
        )

    # ------------------------------------------------------------------
    def rank(self, plan: PlanNode) -> int:
        """The number of ``plan`` within the space (inverse of unrank)."""
        return self._rank_among(self._root_candidates(), plan)

    def _rank_among(self, candidates: CandidateList, plan: PlanNode) -> int:
        index = None
        if candidates.gid == plan.group_id:
            index = candidates.index_of(plan.local_id)
        if index is None:
            raise PlanSpaceError(
                f"operator {plan.expr_id} is not a valid candidate here "
                "(plan does not belong to this space)"
            )
        row = candidates.row(index)
        skipped = candidates.cumulative[index]
        local = 0
        for i, (child_gid, requirement) in enumerate(row.slots):
            sub_rank = self._rank_among(
                self.tables.candidates(child_gid, requirement), plan.children[i]
            )
            local += sub_rank * row.prefix[i]
        if local >= row.count:
            raise PlanSpaceError(
                f"inconsistent plan: local rank {local} out of range for "
                f"operator {candidates.gid}.{row.local_id}"
            )
        return skipped + local
