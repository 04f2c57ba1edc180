"""Seeded input generators.

Every input of a run derives from the benchmark's ``--seed`` through
these functions, each drawing from its own ``random.Random`` stream
keyed by a label, so the same seed always yields the same inputs and
one generator's draws never shift another's.  The program under test
only ever sees the generated SQL and data.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

#: serve_skew: the clique_query(10) schema every template draws from
SERVE_TABLES = 10
SERVE_TEMPLATES = 48
SERVE_VARIANTS = 8
ZIPF_EXPONENT = 1.1


def stream(seed: int, label: str) -> random.Random:
    """An independent, reproducible generator for one use of the seed."""
    return random.Random(f"{seed}:{label}")


def pick(seed: int, label: str, pool, count: int) -> list:
    """``count`` distinct members of ``pool``, in pool order."""
    chosen = stream(seed, label).sample(range(len(pool)), count)
    return [pool[i] for i in sorted(chosen)]


def draw_ranks(seed: int, label: str, total: int, count: int) -> list[int]:
    """``count`` uniform plan ranks in ``[0, total)``."""
    rng = stream(seed, label)
    return [rng.randrange(total) for _ in range(count)]


# ----------------------------------------------------------------------
# serve_skew templates and traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Template:
    """One query template and its literal variants."""

    index: int
    tables: tuple[int, ...]
    statements: tuple[str, ...]
    feedback: bool


def _shape(index: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Tables and join graph of template ``index``; edges join positions
    in the table list.

    Sizes cycle through 4..8 tables; the graph is a random spanning tree
    plus 30% of the remaining pairs.  Shapes depend on the index only,
    not on the seed: the seed moves the literals and the request orders
    of a run, while the optimizer work per popularity rank stays put, so
    runs under different seeds measure the same load.
    """
    size = 4 + index % 5
    rng = random.Random(f"shape:{index}")
    tables = rng.sample(range(SERVE_TABLES), size)
    edges = {(rng.randrange(node), node) for node in range(1, size)}
    extra = [
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if (a, b) not in edges
    ]
    rng.shuffle(extra)
    edges.update(extra[: round(0.3 * len(extra))])
    return tables, sorted(edges)


def serve_templates(seed: int) -> list[Template]:
    """The 48 templates of serve_skew, each with 8 literal variants.

    Every join graph over tables of the ``clique_query`` schema is a
    valid query, because that schema has a foreign key between every
    pair of tables.  Every fourth template (index 3, 7, 11, ...) is
    requested with ``feedback=True``.
    """
    rng = stream(seed, "templates")
    templates = []
    for index in range(SERVE_TEMPLATES):
        tables, edges = _shape(index)
        head = tables[0]
        predicates = sorted(
            (min(tables[a], tables[b]), max(tables[a], tables[b]))
            for a, b in edges
        )
        where = " AND ".join(f"t{hi}.fk_t{lo} = t{lo}.id" for lo, hi in predicates)
        base = (
            f"SELECT t{head}.id, t{head}.val "
            f"FROM {', '.join(f't{t}' for t in sorted(tables))} WHERE {where}"
        )
        literals = rng.sample(range(5, 95), SERVE_VARIANTS)
        templates.append(
            Template(
                index=index,
                tables=tuple(sorted(tables)),
                statements=tuple(
                    f"{base} AND t{head}.val < {value}" for value in literals
                ),
                feedback=index % 4 == 3,
            )
        )
    return templates


class Zipf:
    """Draws popularity ranks ``0..n-1`` with weight ``1 / (rank+1)^s``."""

    def __init__(self, n: int, exponent: float = ZIPF_EXPONENT):
        total = 0.0
        self.cumulative = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** exponent
            self.cumulative.append(total)
        self.total = total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_right(self.cumulative, rng.random() * self.total)


def client_requests(seed: int, client: str, templates):
    """One client's endless request stream: ``(sql, template)`` with the
    template drawn by Zipf popularity and the variant uniformly."""
    rng = stream(seed, client)
    zipf = Zipf(len(templates))
    while True:
        template = templates[zipf.draw(rng)]
        yield template.statements[rng.randrange(len(template.statements))], template
