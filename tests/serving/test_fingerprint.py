"""Fingerprint equivalence classes and cache-identity signatures."""

import pytest

from repro.optimizer.optimizer import OptimizerOptions
from repro.serving.fingerprint import (
    catalog_signature,
    fingerprint_sql,
    options_signature,
)
from repro.storage.datagen import generate_tpch


class TestTemplateEquivalence:
    def test_integer_literals_share_a_template(self):
        a = fingerprint_sql("SELECT * FROM t WHERE x = 5")
        b = fingerprint_sql("SELECT * FROM t WHERE x = 7000")
        assert a.template == b.template
        assert a.digest == b.digest
        assert a.params != b.params

    def test_whitespace_and_keyword_case_are_invisible(self):
        a = fingerprint_sql("select  *\n from t   where x = 5")
        b = fingerprint_sql("SELECT * FROM t WHERE x = 9")
        assert a.template == b.template

    def test_float_spelling_folds(self):
        a = fingerprint_sql("SELECT * FROM t WHERE y < 0.50")
        b = fingerprint_sql("SELECT * FROM t WHERE y < 0.5")
        assert a.template == b.template
        assert a.params == b.params  # 0.50 and 0.5 are the same parameter

    def test_string_literals_parameterize(self):
        a = fingerprint_sql("SELECT * FROM t WHERE n = 'abc'")
        b = fingerprint_sql("SELECT * FROM t WHERE n = 'xyz'")
        assert a.template == b.template
        assert a.params == (("string", "abc"),)
        assert b.params == (("string", "xyz"),)

    def test_structure_splits_templates(self):
        base = fingerprint_sql("SELECT * FROM t WHERE x = 5")
        assert base.template != fingerprint_sql("SELECT * FROM t WHERE y = 5").template
        assert base.template != fingerprint_sql("SELECT * FROM t WHERE x < 5").template
        assert (
            base.template
            != fingerprint_sql("SELECT * FROM t WHERE x = 5 AND y = 1").template
        )

    def test_params_preserve_occurrence_order(self):
        fp = fingerprint_sql("SELECT * FROM t WHERE x = 5 AND n = 'a' AND y < 2.0")
        assert fp.params == (
            ("integer", "5"),
            ("string", "a"),
            ("float", "2.0"),
        )

    def test_digest_is_short_stable_hex(self):
        fp = fingerprint_sql("SELECT * FROM t WHERE x = 5")
        again = fingerprint_sql("SELECT * FROM t WHERE x = 5")
        assert fp.digest == again.digest
        assert len(fp.digest) == 16
        int(fp.digest, 16)  # hex


class TestUseplanException:
    def test_useplan_number_is_not_a_parameter(self):
        # A forced plan number is an executor instruction: folding
        # USEPLAN 3 into USEPLAN 8's template would serve the wrong plan.
        a = fingerprint_sql("SELECT * FROM t OPTION (USEPLAN 3)")
        b = fingerprint_sql("SELECT * FROM t OPTION (USEPLAN 8)")
        assert a.template != b.template
        assert "3" in a.template and "8" in b.template

    def test_predicate_literals_still_parameterize_alongside_useplan(self):
        a = fingerprint_sql("SELECT * FROM t WHERE x = 5 OPTION (USEPLAN 3)")
        b = fingerprint_sql("SELECT * FROM t WHERE x = 7 OPTION (USEPLAN 3)")
        assert a.template == b.template
        assert a.params == (("integer", "5"),)


class TestEnvironmentSignatures:
    def test_catalog_signature_deterministic(self):
        a = catalog_signature(generate_tpch(seed=0).catalog)
        b = catalog_signature(generate_tpch(seed=0).catalog)
        assert a == b
        assert len(a) == 16

    def test_catalog_signature_tracks_statistics(self):
        from repro.workloads.synthetic import chain_query

        base = catalog_signature(chain_query(3, rows=5, seed=0).catalog)
        assert base == catalog_signature(chain_query(3, rows=5, seed=0).catalog)
        grown = catalog_signature(chain_query(3, rows=9, seed=0).catalog)
        assert base != grown

    def test_options_signature_tracks_configuration(self):
        default = options_signature(OptimizerOptions())
        assert default == options_signature(OptimizerOptions())
        assert default != options_signature(
            OptimizerOptions(allow_cross_products=True)
        )
        assert default != options_signature(OptimizerOptions(), prune_factor=1.5)
        assert options_signature(
            OptimizerOptions(), prune_factor=1.5
        ) != options_signature(OptimizerOptions(), prune_factor=2.0)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM t WHERE x = 5",
        "SELECT a, b FROM t, u WHERE t.id = u.id AND t.v < 10 ORDER BY a",
    ],
)
def test_fingerprint_is_idempotent_on_its_own_template(sql):
    fp = fingerprint_sql(sql)
    refp = fingerprint_sql(fp.template.replace("?", "1"))
    assert refp.template == fp.template


def test_cache_miss_lexes_each_statement_once(monkeypatch):
    import repro.serving.fingerprint as fingerprint_module
    import repro.sql.parser as parser_module
    from repro.api import Session
    from repro.serving import PlanCache
    from repro.sql.lexer import tokenize

    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(fingerprint_module, "tokenize", counting_tokenize)
    monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
    session = Session.tpch(seed=0)
    session.plan_cache = PlanCache()
    sql = (
        "SELECT c.c_name FROM customer c, orders o "
        "WHERE c.c_custkey = o.o_custkey AND o.o_totalprice < 1000"
    )
    session.execute(sql, feedback=True)  # the ledger now covers the join
    calls.clear()
    result = session.optimize(sql, feedback=True)
    assert result.cache.tier == "miss"
    assert result.feedback is not None  # the baseline optimize ran too
    assert calls == [sql]
