"""Seed determinism of the benchmark's input generators."""

import itertools
import random

import gen


def _take(seed, client, count=50):
    templates = gen.serve_templates(seed)
    return [sql for sql, _ in itertools.islice(
        gen.client_requests(seed, client, templates), count
    )]


class TestTemplates:
    def test_same_seed_same_templates(self):
        assert gen.serve_templates(7) == gen.serve_templates(7)

    def test_other_seed_other_literals(self):
        a, b = gen.serve_templates(7), gen.serve_templates(8)
        assert [t.statements for t in a] != [t.statements for t in b]

    def test_tables_shapes_and_feedback_do_not_depend_on_the_seed(self):
        def without_literals(templates):
            return [
                (t.tables, t.feedback, t.statements[0].rsplit("<", 1)[0])
                for t in templates
            ]

        reference = without_literals(gen.serve_templates(0))
        for seed in (1, 2, 3):
            assert without_literals(gen.serve_templates(seed)) == reference
        templates = gen.serve_templates(0)
        assert [len(t.tables) for t in templates] == [
            4 + i % 5 for i in range(gen.SERVE_TEMPLATES)
        ]
        assert [t.feedback for t in templates] == [
            i % 4 == 3 for i in range(gen.SERVE_TEMPLATES)
        ]

    def test_shape_and_key_counts(self):
        templates = gen.serve_templates(3)
        assert len(templates) == 48
        statements = [s for t in templates for s in t.statements]
        assert len(set(statements)) == 48 * 8
        assert sum(t.feedback for t in templates) == 12

    def test_join_graphs_are_connected(self):
        for index in range(gen.SERVE_TEMPLATES):
            tables, edges = gen._shape(index)
            size = len(tables)
            reached = {0}
            for _ in range(size):
                reached |= {b for a, b in edges if a in reached}
                reached |= {a for a, b in edges if b in reached}
            assert reached == set(range(size))


class TestTraffic:
    def test_same_seed_same_requests(self):
        assert _take(5, "client0") == _take(5, "client0")

    def test_clients_and_seeds_draw_independent_streams(self):
        assert _take(5, "client0") != _take(5, "client1")
        assert _take(5, "client0") != _take(6, "client0")

    def test_zipf_prefers_popular_ranks(self):
        zipf = gen.Zipf(48)
        rng = random.Random(0)
        draws = [zipf.draw(rng) for _ in range(20000)]
        assert min(draws) == 0 and max(draws) < 48
        counts = [draws.count(r) for r in range(4)]
        assert counts == sorted(counts, reverse=True)
        # rank 0 weighs 1 / H(48, 1.1), about 0.24
        assert 0.21 < counts[0] / len(draws) < 0.27

    def test_zipf_is_deterministic(self):
        zipf = gen.Zipf(48)
        first = [zipf.draw(random.Random(9)) for _ in range(3)]
        assert first == [zipf.draw(random.Random(9)) for _ in range(3)]


class TestRanksAndPicks:
    def test_ranks_repeat_per_seed_and_label(self):
        total = 10**40
        assert gen.draw_ranks(3, "q:0", total, 20) == gen.draw_ranks(3, "q:0", total, 20)
        assert gen.draw_ranks(3, "q:0", total, 20) != gen.draw_ranks(3, "q:1", total, 20)
        assert gen.draw_ranks(3, "q:0", total, 20) != gen.draw_ranks(4, "q:0", total, 20)
        assert all(0 <= r < total for r in gen.draw_ranks(3, "q:0", total, 200))

    def test_pick_is_deterministic_and_distinct(self):
        pool = tuple(range(16))
        chosen = gen.pick(11, "random11", pool, 3)
        assert chosen == gen.pick(11, "random11", pool, 3)
        assert len(set(chosen)) == 3 and chosen == sorted(chosen)
        assert {tuple(gen.pick(s, "random11", pool, 3)) for s in range(20)} != {tuple(chosen)}
