"""Lazy operator tables for unranking.

Counting never enumerates individual operators — it works on group
aggregates.  Unranking must: selecting the operator for a rank bisects
the prefix sums of one group's alternatives in ``local_id`` order (the
paper's Section 3.3).  A group's table yields exactly the rows the
materializer would have inserted — same order, same local ids — but as
*counts*: a :class:`Row` is built only for a row that a rank, ``rank()``
or a test actually asks for.  A rank's plan touches
O(depth) groups and one row in each; repeated unrankings share tables,
candidate lists and rows.

Two builders fill tables:

* :class:`JoinTable` — a join group of a space the turbo pass counted is
  a view over that pass's per-split columns
  (:class:`~.turbo.SplitColumns`): counts, delivered kids and prefix sums
  are a few array gathers over the group's split slice;
* :class:`GroupTable` — the per-row builder: leaf and unary-tower groups,
  and every group of a space the reference pass counted (the ablations
  turbo does not cover).

Rows hold numbers and byte-packed orders only.  The physical operator
object of a row is built lazily (and cached) the first time a plan
actually includes it — the point of the implicit engine is that plans
instantiate O(plan) operators, not O(space).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from repro.algebra.logical import LogicalGet
from repro.errors import PlanSpaceError
from repro.optimizer.rules import (
    index_nl_join_implementations,
    join_implementations,
    scan_implementations,
)
from repro.planspace.implicit.counting import CountState

__all__ = ["CandidateList", "GroupTable", "JoinTable", "Row", "TableSet"]

#: slot requirement sentinel: enforcer child (non-enforcers of own group)
NONENF = "nonenf"


@dataclass
class Row:
    """One virtual physical operator of a group."""

    local_id: int
    kind: str  # scan | join | inlj | unary | sort
    payload: tuple
    count: int
    delivered: bytes | None
    #: per child slot: (child_gid, requirement) where requirement is
    #: None (any), a kid id, or (NONENF, sort kid) for enforcer children
    slots: tuple
    #: B_v prefix products, B_v(0)=1 first
    prefix: tuple


class CandidateList:
    """Qualifying rows of one (group, requirement) pair, with the prefix
    sums operator selection bisects over.

    Holds *positions* into the group's table (ascending, so local ids
    ascend too), not rows: :meth:`pick` builds the one row a rank lands
    on.
    """

    __slots__ = ("gid", "table", "positions", "cumulative")

    def __init__(self, table, positions, cumulative: list[int]):
        self.gid = table.gid
        self.table = table
        self.positions = positions
        self.cumulative = cumulative  # exclusive prefix sums, len + 1

    @property
    def total(self) -> int:
        return self.cumulative[-1]

    def __len__(self) -> int:
        return len(self.positions)

    def local_id(self, index: int) -> int:
        return self.table.first_local + self.positions[index]

    def row(self, index: int) -> Row:
        return self.table.row_at(self.positions[index])

    def pick(self, rank: int) -> tuple[Row, int]:
        """``(row, local rank)`` of list rank ``rank``: a bisection over
        the exclusive prefix sums — the paper's linear prefix-sum scan,
        sublinear in wide groups."""
        cumulative = self.cumulative
        index = bisect_right(cumulative, rank) - 1
        # rank < total (guarded by the caller), so index < len(positions)
        position = self.positions[index]
        table = self.table
        row = table.built[position] or table.row_at(position)
        return row, rank - cumulative[index]

    def index_of(self, local_id: int) -> int | None:
        """The list index of the row with ``local_id``; None if the row
        does not qualify here."""
        positions = self.positions
        position = local_id - self.table.first_local
        index = bisect_left(positions, position)
        if index < len(positions) and positions[index] == position:
            return index
        return None


class _Table:
    """Shared surface of a group's table: ``counts`` in local order (sorts
    last, after ``nonenf_rows`` non-enforcers) and ``built``, the rows
    made so far (None where a row was never asked for)."""

    def __init__(self, gid: int, first_local: int):
        self.gid = gid
        self.first_local = first_local
        self._cumulative: list[int] | None = None

    def __len__(self) -> int:
        return len(self.counts)

    def row_at(self, position: int) -> Row:
        row = self.built[position]
        if row is None:
            row = self.built[position] = self._make_row(position)
        return row

    @property
    def rows(self) -> list[Row]:
        """Every row of the group (builds them all)."""
        return [self.row_at(position) for position in range(len(self.counts))]

    @property
    def cumulative(self) -> list[int]:
        """Exclusive prefix sums over every row."""
        if self._cumulative is None:
            self._cumulative = self._prefix_sums(self.counts)
        return self._cumulative

    def prefix_sums(self, positions) -> list[int]:
        """Exclusive prefix sums over the rows at ``positions``; a leading
        range reads the table's own sums."""
        if isinstance(positions, range) and positions.start == 0:
            if len(positions) == len(self.counts):
                return self.cumulative
            return self.cumulative[: len(positions) + 1]
        return self._prefix_sums(self._counts_at(positions))


class GroupTable(_Table):
    """One group's rows from the per-row builder: leaf and unary-tower
    groups, and every group of a reference-counted space.  Each row is
    recorded as a field tuple and becomes a :class:`Row` on first
    request."""

    def __init__(self, tables: "TableSet", gid: int):
        super().__init__(gid, tables.state.layout.group(gid).logical_count + 1)
        self._kid_bytes = tables.state.keys.kid_bytes
        self._specs: list[tuple] = []
        self._build(tables)
        self.counts = [spec[2] for spec in self._specs]
        self.nonenf_rows = sum(1 for spec in self._specs if spec[0] != "sort")
        self.built: list[Row | None] = [None] * len(self.counts)

    def _add(self, kind, payload, count, delivered, slots, bs):
        self._specs.append((kind, payload, count, delivered, slots, bs))

    def _make_row(self, position: int) -> Row:
        kind, payload, count, delivered, slots, bs = self._specs[position]
        return Row(
            local_id=self.first_local + position,
            kind=kind,
            payload=payload,
            count=count,
            delivered=delivered,
            slots=slots,
            prefix=(1, *accumulate(bs, mul)),
        )

    def _counts_at(self, positions) -> list[int]:
        counts = self.counts
        return [counts[position] for position in positions]

    @staticmethod
    def _prefix_sums(values) -> list[int]:
        return [0, *accumulate(values)]

    def satisfying(self, kid: int) -> list[int]:
        """Positions of the rows whose delivered order satisfies ``kid``."""
        seq = self._kid_bytes[kid]
        return [
            position
            for position, spec in enumerate(self._specs)
            if spec[3] is not None and spec[3].startswith(seq)
        ]

    def enforcer_inputs(self, kid: int, include_redundant_sorts: bool):
        """Positions of the non-enforcers a ``Sort`` on ``kid`` links to:
        all of them, minus the already-ordered ones under the
        redundant-sort ablation."""
        if include_redundant_sorts:
            return range(self.nonenf_rows)
        ordered = set(self.satisfying(kid))
        return [p for p in range(self.nonenf_rows) if p not in ordered]

    def _build(self, tables: "TableSet") -> None:
        state = tables.state
        layout = state.layout
        group = layout.group(self.gid)
        config = state.config

        if group.kind == "leaf":
            scans = scan_implementations(group.op, state.catalog, config)
            for pos, scan in enumerate(scans):
                order = scan.delivered_order()
                delivered = state.edges.seq_bytes(order) if order else None
                self._add("scan", (pos,), 1, delivered, (), ())
        elif group.kind == "join":
            A = state.A
            sord = state.sord
            gid_by_mask = layout.gid_by_mask
            kid_bytes = state.keys.kid_bytes
            cut = state.edges.cut
            cut_kids = state.keys.cut_kids
            plain_nlj = config.enable_nested_loop_join
            hashj = config.enable_hash_join
            merge = config.enable_merge_join
            inlj = config.enable_index_nl_join
            for left, right in group.ordered_exprs():
                lgid = gid_by_mask[left]
                rgid = gid_by_mask[right]
                bits = cut(left, right)
                al, ar = A[left], A[right]
                ops_pos = 0
                if plain_nlj:
                    self._add(
                        "join",
                        (left, right, ops_pos),
                        al * ar,
                        None,
                        ((lgid, None), (rgid, None)),
                        (al, ar),
                    )
                    ops_pos += 1
                if bits:
                    lk, rk = cut_kids(bits)
                    if hashj:
                        self._add(
                            "join",
                            (left, right, ops_pos),
                            al * ar,
                            None,
                            ((lgid, None), (rgid, None)),
                            (al, ar),
                        )
                        ops_pos += 1
                    if merge:
                        bl = sord[(left, lk)]
                        br = sord[(right, rk)]
                        self._add(
                            "join",
                            (left, right, ops_pos),
                            bl * br,
                            kid_bytes[lk],
                            ((lgid, lk), (rgid, rk)),
                            (bl, br),
                        )
                        ops_pos += 1
                    if inlj:
                        for pos in range(
                            tables.inlj_count(left, right, bits)
                        ):
                            self._add(
                                "inlj",
                                (left, right, pos),
                                al,
                                None,
                                ((lgid, None),),
                                (al,),
                            )
        else:  # unary tower
            for pos, top in enumerate(state.tower_ops[self.gid]):
                self._add(
                    "unary",
                    (pos,),
                    top.count,
                    top.delivered,
                    ((group.child_gid, top.required_kid),),
                    (top.count,),
                )

        # sort enforcers, in global first-occurrence requirement order
        if config.enable_sort_enforcers:
            kid_bytes = state.keys.kid_bytes
            if group.kind in ("leaf", "join"):
                required = state.required.get(group.mask, {})
                counts = state.sort_counts.get(group.mask, [])
            else:
                required = state.tower_required.get(self.gid, {})
                counts = [c for _k, c in state.tower_sorts.get(self.gid, [])]
            for (kid, count) in zip(required, counts):
                self._add(
                    "sort",
                    (kid,),
                    count,
                    kid_bytes[kid],
                    ((self.gid, (NONENF, kid)),),
                    (count,),
                )


class JoinTable(_Table):
    """A join group's rows as a view over the turbo pass's split columns.

    Rows run over the group's ordered expressions — the initial left-deep
    one first, then both orientations of every split — and, per
    orientation, over the operators ``join_rule_arity`` allows: the plain
    ones (count ``A(l)·A(r)``), then the merge join (count
    ``S(l, lk)·S(r, rk)``, delivering ``lk``).  The group's sorts follow,
    each counting ``nonenf``.  Only ``counts`` and the delivered kids are
    gathered up front; a :class:`Row` is assembled from the columns when
    asked for.
    """

    def __init__(self, tables: "TableSet", gid: int):
        import numpy as np

        state = tables.state
        group = state.layout.group(gid)
        super().__init__(gid, group.logical_count + 1)
        cols = self._cols = state.split_columns
        self._kid_bytes = state.keys.kid_bytes
        self._np = np
        start, count = cols.offsets.get(gid, (0, 0))
        stop = start + count

        # orientation 2s is split s as stored, 2s + 1 its commute
        orients = np.arange(2 * start, 2 * stop)
        if group.initial is not None:
            first = self._initial_orientation(np, group.initial, start, stop)
            rest = np.delete(orients, first - 2 * start)
            orients = np.concatenate(([first], rest))
        plain_keys = cols.plain_keys
        width = np.where(
            cols.has_keys[orients >> 1], plain_keys + cols.merge, cols.plain_cross
        )
        orient = self._orient = np.repeat(orients, width)
        n_join = self.nonenf_rows = len(orient)
        op_pos = self._op_pos = np.arange(n_join) - np.repeat(
            np.cumsum(width) - width, width
        )
        sort_kids = []
        if state.config.enable_sort_enforcers:
            sort_kids = state.required.get(group.mask) or []
        self._sort_kids = sort_kids

        A = cols.A
        plain = A[cols.L[start:stop]] * A[cols.R[start:stop]]
        counts = self.counts = np.empty(n_join + len(sort_kids), dtype=object)
        counts[:n_join] = plain[(orient >> 1) - start]
        counts[n_join:] = state.nonenf[group.mask]
        deliv = self._deliv = np.full(len(counts), -1, np.int64)
        deliv[n_join:] = sort_kids
        # plain_cross <= plain_keys: only keyed splits reach a merge slot
        merges = np.flatnonzero(op_pos >= plain_keys)
        if len(merges):
            q_left, q_right, l_kid, _r_kid = cols.oriented()
            merge_orient = orient[merges]
            QS = cols.QS
            counts[merges] = QS[q_left[merge_orient]] * QS[q_right[merge_orient]]
            deliv[merges] = l_kid[merge_orient]
        self.built: list[Row | None] = [None] * len(counts)

    def _initial_orientation(self, np, initial, start, stop) -> int:
        cols = self._cols
        L, R = cols.L[start:stop], cols.R[start:stop]
        left, right = initial
        for commuted, (a, b) in enumerate(((left, right), (right, left))):
            hit = np.flatnonzero((L == a) & (R == b))
            if len(hit):
                return 2 * (start + int(hit[0])) + commuted
        raise PlanSpaceError(  # pragma: no cover - layout invariant
            f"group {self.gid}: initial expression is not one of its splits"
        )

    def _counts_at(self, positions):
        return self.counts[positions]

    def _prefix_sums(self, values) -> list[int]:
        np = self._np
        out = np.empty(len(values) + 1, dtype=object)
        out[0] = 0
        if len(values):
            np.cumsum(values, out=out[1:])
        return out.tolist()

    def satisfying(self, kid: int) -> list[int]:
        """Positions of the merge joins and sorts whose delivered kid
        extends ``kid``: the prefix interval ``[kid, hi_rank[kid])``."""
        hi_rank = self._cols.hi_rank
        if kid >= len(hi_rank):  # pragma: no cover - requirements are turbo kids
            raise PlanSpaceError(f"order {kid} is outside the turbo kid universe")
        deliv = self._deliv
        hit = (deliv >= kid) & (deliv < hi_rank[kid])
        return self._np.flatnonzero(hit).tolist()

    def enforcer_inputs(self, kid: int, include_redundant_sorts: bool):
        # turbo counts paper-faithful redundant sorts only: every
        # non-enforcer, the prefix before the sorts
        return range(self.nonenf_rows)

    def _make_row(self, position: int) -> Row:
        local_id = self.first_local + position
        count = self.counts[position]
        if position >= self.nonenf_rows:
            kid = self._sort_kids[position - self.nonenf_rows]
            return Row(
                local_id=local_id,
                kind="sort",
                payload=(kid,),
                count=count,
                delivered=self._kid_bytes[kid],
                slots=((self.gid, (NONENF, kid)),),
                prefix=(1, count),
            )
        cols = self._cols
        orient = int(self._orient[position])
        split = orient >> 1
        left, right = int(cols.L[split]), int(cols.R[split])
        lgid, rgid = int(cols.Lg[split]), int(cols.Rg[split])
        if orient & 1:
            left, right, lgid, rgid = right, left, rgid, lgid
        payload = (left, right, int(self._op_pos[position]))
        lk = int(self._deliv[position])
        if lk < 0:
            return Row(
                local_id=local_id,
                kind="join",
                payload=payload,
                count=count,
                delivered=None,
                slots=((lgid, None), (rgid, None)),
                prefix=(1, cols.A[left], count),
            )
        q_left, _q_right, _l_kid, r_kid = cols.oriented()
        return Row(
            local_id=local_id,
            kind="join",
            payload=payload,
            count=count,
            delivered=self._kid_bytes[lk],
            slots=((lgid, lk), (rgid, int(r_kid[orient]))),
            prefix=(1, cols.QS[q_left[orient]], count),
        )


class TableSet:
    """Lazy per-group tables plus candidate lists and operator caches."""

    def __init__(self, state: CountState, include_redundant_sorts: bool = True):
        self.state = state
        self.include_redundant_sorts = include_redundant_sorts
        self._tables: dict[int, GroupTable | JoinTable] = {}
        self._candidates: dict[tuple, CandidateList] = {}
        self._join_ops: dict[tuple[int, int], tuple] = {}
        self._inlj_ops: dict[tuple[int, int], list] = {}
        self._scan_ops: dict[int, list] = {}
        self._op_cache: dict[tuple[int, int], object] = {}
        self._cardinality: dict[int, float] = {}
        self._estimator = None

    # ------------------------------------------------------------------
    def table(self, gid: int) -> GroupTable | JoinTable:
        table = self._tables.get(gid)
        if table is None:
            state = self.state
            if (
                state.split_columns is not None
                and state.layout.group(gid).kind == "join"
            ):
                table = JoinTable(self, gid)
            else:
                table = GroupTable(self, gid)
            self._tables[gid] = table
        return table

    def candidates(self, gid: int, requirement) -> CandidateList:
        """The qualifying rows of ``(group, requirement)`` in local order.

        ``requirement`` is None (all alternatives), a kid id (delivered
        order must satisfy it), or ``(NONENF, kid)`` (enforcer children:
        every non-enforcer, minus the already-ordered ones under the
        redundant-sort ablation).
        """
        key = (gid, requirement)
        cached = self._candidates.get(key)
        if cached is not None:
            return cached
        table = self.table(gid)
        if requirement is None:
            positions = range(len(table))
        elif isinstance(requirement, tuple):
            positions = table.enforcer_inputs(
                requirement[1], self.include_redundant_sorts
            )
        else:
            positions = table.satisfying(requirement)
        cached = CandidateList(table, positions, table.prefix_sums(positions))
        self._candidates[key] = cached
        return cached

    # ------------------------------------------------------------------
    # operator construction (lazy, cached per row)
    # ------------------------------------------------------------------
    def inlj_count(self, left: int, right: int, bits: int) -> int:
        return len(self._inlj_list(left, right))

    def _inlj_list(self, left: int, right: int) -> list:
        key = (left, right)
        ops = self._inlj_ops.get(key)
        if ops is None:
            state = self.state
            layout = state.layout
            group = layout.group_for_mask(right)
            if right & (right - 1) or not isinstance(group.op, LogicalGet):
                ops = []
            else:
                universe = layout.universe
                predicate = layout.graph.join_predicate_m(left, right)
                ji = join_implementations(
                    predicate,
                    universe.names(left),
                    universe.names(right),
                    state.config,
                )
                if ji.left_keys:
                    ops = index_nl_join_implementations(
                        group.op,
                        state.catalog,
                        predicate,
                        ji.left_keys,
                        ji.right_keys,
                    )
                else:
                    ops = []
            self._inlj_ops[key] = ops
        return ops

    @property
    def operators_built(self) -> int:
        """Distinct row operators built so far."""
        return len(self._op_cache)

    def operator(self, gid: int, row: Row):
        """The physical operator of ``row`` (built on first use)."""
        key = (gid, row.local_id)
        op = self._op_cache.get(key)
        if op is not None:
            return op
        state = self.state
        kind = row.kind
        if kind == "scan":
            ops = self._scan_ops.get(gid)
            if ops is None:
                group = state.layout.group(gid)
                ops = scan_implementations(group.op, state.catalog, state.config)
                self._scan_ops[gid] = ops
            op = ops[row.payload[0]]
        elif kind == "join":
            left, right, pos = row.payload
            ji = self._join_ops.get((left, right))
            if ji is None:
                layout = state.layout
                predicate = layout.graph.join_predicate_m(left, right)
                ji = join_implementations(
                    predicate,
                    layout.universe.names(left),
                    layout.universe.names(right),
                    state.config,
                ).ops
                self._join_ops[(left, right)] = ji
            op = ji[pos]
        elif kind == "inlj":
            left, right, pos = row.payload
            op = self._inlj_list(left, right)[pos]
        elif kind == "unary":
            op = state.tower_ops[gid][row.payload[0]].op
        elif kind == "sort":
            from repro.algebra.physical import Sort

            op = Sort(state.keys.columns_of(row.payload[0]))
        else:  # pragma: no cover - defensive
            raise PlanSpaceError(f"unknown row kind {kind!r}")
        self._op_cache[key] = op
        return op

    # ------------------------------------------------------------------
    def cardinality(self, gid: int) -> float:
        """The group's estimated output rows (the annotation the
        materialized pipeline stores on memo groups)."""
        cached = self._cardinality.get(gid)
        if cached is not None:
            return cached
        state = self.state
        layout = state.layout
        group = layout.group(gid)
        if self._estimator is None:
            from repro.optimizer.cardinality import CardinalityEstimator

            self._estimator = CardinalityEstimator(state.catalog, layout.bound)
        estimator = self._estimator
        if group.kind in ("leaf", "join"):
            conjuncts = layout.graph.internal_conjuncts_m(group.mask)
            value = estimator.relation_set_cardinality(
                group.relations, [c.expr for c in conjuncts]
            )
        elif group.kind == "select":
            value = estimator.select_cardinality(
                self.cardinality(group.child_gid), group.op.predicate
            )
        elif group.kind == "agg":
            value = estimator.aggregate_cardinality(
                self.cardinality(group.child_gid), group.op.group_by
            )
        else:  # proj
            value = self.cardinality(group.child_gid)
        self._cardinality[gid] = value
        return value
