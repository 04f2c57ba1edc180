"""Pinned answers the benchmark checks every run against.

Costs are the exact optimizer's best costs and counts the implicit
engine's plan counts, recorded from the program at the commit that
introduced the benchmark.  A run whose answers drift from these fails,
whatever its speed.  To recompute them (for instance after a deliberate
change to the cost model), run from the repository root::

    python3 perfbench/pins.py
"""

#: exact best cost per mix statement (exact_mix) and per sampled-optimizer
#: target (sample_space); ``random11_s<k>`` is ``random_query(11, seed=k)``
EXACT_COSTS = {'clique10': 141.11,
 'clique11': 143.06,
 'clique12': 156.56,
 'star12': 360.1628351802603,
 'star14': 440.5004658569881,
 'cycle12': 273.98857142857145,
 'chain16': 390.91,
 'tpch_q3': 12727445.14672695,
 'tpch_q5': 16018024.7574928,
 'tpch_q6': 912216.0413475684,
 'tpch_q7': 11099711.4275768,
 'tpch_q8': 14525658.521528468,
 'tpch_q9': 17488647.739299998,
 'tpch_q10': 11428408.875476839,
 'random11_s0': 144.06,
 'random11_s1': 127.56,
 'random11_s2': 142.66,
 'random11_s3': 140.06,
 'random11_s4': 138.81,
 'random11_s5': 148.01,
 'random11_s6': 133.01,
 'random11_s7': 134.06,
 'random11_s8': 116.31,
 'random11_s9': 133.06,
 'random11_s10': 141.06,
 'random11_s11': 132.06,
 'random11_s12': 133.16,
 'random11_s13': 133.31,
 'random11_s14': 145.31,
 'random11_s15': 144.56}

#: clique12 memo and DP work (``memo.logical_expression_count()``,
#: ``memo.physical_expression_count()``, ``dp_stats`` states and pruned)
CLIQUE12_WORK = {'logical': 523264,
 'physical': 2366429,
 'states': 796587,
 'pruned': 1538954}

#: implicit plan count per validated query (sample_space);
#: ``random10_s<k>`` is ``random_query(10, seed=k, rows=20)``
PLAN_COUNTS = {'star8': 19973442856550400,
 'chain8': 49906237568176128,
 'cycle8': 62116397071951120896,
 'clique9': 84051276364013352967337283905130323292038685568,
 'random10_s0': 881410772948613063652909431366430009600,
 'random10_s1': 133104899414947815865294667803818953728,
 'random10_s2': 34734503216498052600646783021041109248,
 'random10_s3': 472037816449105641645918892675350284352,
 'random10_s4': 6554651528560830715651336690936365786496,
 'random10_s5': 766864886489425355139971285923131736960,
 'random10_s6': 631275328937508157981612219814276404224,
 'random10_s7': 371096573015510286797762789943842053632,
 'random10_s8': 4534174008630242596269797287258972072960,
 'random10_s9': 3053551231912069568913512931481046625536,
 'random10_s10': 153785055794785055050963138094604939776,
 'random10_s11': 19878283355833211844215824588135431111936,
 'random10_s12': 2002064996001555924261494589935733865344,
 'random10_s13': 834919025819699708578128604041822638464,
 'random10_s14': 1069239573936488485127743403199435947264,
 'random10_s15': 20201902888700744493401985600358011593024}


def _recompute() -> None:
    import pathlib
    import pprint
    import sys

    here = pathlib.Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import exact_mix
    import sample_space
    from harness import work_counts
    from repro.planspace.implicit import ImplicitPlanSpace
    from repro.workloads.synthetic import random_query

    statements = [
        s for s in exact_mix.statements(0) if s.name not in exact_mix.RANDOM_SLOTS
    ]
    for pool_seed in exact_mix.RANDOM_POOL:
        workload = random_query(11, seed=pool_seed, rows=5)
        statements.append(
            exact_mix.Statement(
                "", workload.catalog, workload.sql, f"random11_s{pool_seed}"
            )
        )
    costs = {}
    for statement in statements:
        result = exact_mix.optimize(statement)
        costs[statement.pin] = result.best_cost
        if statement.name == "clique12":
            work = work_counts(result)
    counts = {}
    workloads = [
        (pin, w)
        for name, pin, w in sample_space.queries(0)
        if name not in sample_space.RANDOM_SLOTS
    ]
    workloads += [
        (f"random10_s{s}", random_query(10, seed=s, rows=20, aggregate=False))
        for s in sample_space.RANDOM_POOL
    ]
    for pin, workload in workloads:
        space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql)
        counts[pin] = space.count()
    for name, value in (
        ("EXACT_COSTS", costs),
        ("CLIQUE12_WORK", work),
        ("PLAN_COUNTS", counts),
    ):
        print(f"{name} = {pprint.pformat(value, sort_dicts=False, width=1)}\n")


if __name__ == "__main__":
    _recompute()
