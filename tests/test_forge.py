import pytest

from cutkit.errors import InputError
from cutkit.forge import (
    ThreeDMInstance,
    gadget_from_3dm,
    gen_3dm,
    gen_random,
    tdm_has_perfect_matching,
)
from cutkit.graph import cut_value
from cutkit.io import format_instance_text
from cutkit.oracle import oracle_all_cut_decision, oracle_constrained


def test_gen_edgeless():
    inst = gen_random(5, 0.0, "unit", 1, "uniform", seed=1)
    assert inst.graph.edges == ()


def test_gen_complete_k4_normalized():
    inst = gen_random(4, 1.0, "unit", 1, "uniform", seed=2)
    assert len(inst.graph.edges) == 6
    assert all(w == pytest.approx(1 / 6, abs=1e-12) for _, _, w in inst.graph.edges)


def test_gen_determinism():
    a = gen_random(9, 0.5, "uniform", 2, "uniform", seed=77)
    b = gen_random(9, 0.5, "uniform", 2, "uniform", seed=77)
    assert format_instance_text(a) == format_instance_text(b)


def test_gen_budget_laws():
    inst = gen_random(10, 0.5, "unit", 2, "half", seed=3)
    for p, k in zip(inst.parts, inst.budgets):
        assert k == len(p) // 2
    inst = gen_random(10, 0.5, "unit", 2, "one", seed=3)
    assert all(k == 1 for k in inst.budgets)
    inst = gen_random(10, 0.5, "unit", 2, "uniform", seed=3)
    assert inst.has_half_budgets()


def test_gen_validation():
    with pytest.raises(InputError):
        gen_random(3, 0.5, "unit", 2, "uniform", seed=0)  # n < 2c
    with pytest.raises(InputError):
        gen_random(6, 0.5, "exotic", 1, "uniform", seed=0)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        gen_random(6, 0.5, "unit", 1, "uniform", seed=-1)


def test_gen_3dm_smallest():
    tdm, flag = gen_3dm(1, 0, seed=0)
    assert len(tdm.triples) == 1 and flag is True


def test_gen_3dm_dropped_plant():
    tdm, flag = gen_3dm(2, 0, seed=4, drop_planted=True)
    assert flag is False
    assert len(tdm.triples) == 1


def test_gen_3dm_determinism():
    a = gen_3dm(3, 2, seed=9)
    b = gen_3dm(3, 2, seed=9)
    assert a[0] == b[0] and a[1] == b[1]


def test_gen_3dm_flag_is_verified_truth():
    for s in range(20):
        tdm, flag = gen_3dm(2, 2, seed=s, drop_planted=bool(s % 2))
        assert flag == tdm_has_perfect_matching(tdm)


def test_gadget_single_triple_star():
    tdm = ThreeDMInstance(1, ((0, 0, 0),))
    inst = gadget_from_3dm(tdm)
    g = inst.graph
    assert g.n == 4
    assert len(g.edges) == 3
    leaves = frozenset({1, 2, 3})
    assert inst.is_feasible_set(leaves)
    assert cut_value(g, leaves) == pytest.approx(g.total_weight, abs=1e-12)


def test_gadget_shared_element_part():
    tdm = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1)))
    inst = gadget_from_3dm(tdm)
    # the two x=0 leaves (vertex ids 2 and 5) share one budget-1 part
    x0_part = [p for p in inst.parts if p == frozenset({2, 5})]
    assert len(x0_part) == 1
    idx = inst.parts.index(x0_part[0])
    assert inst.budgets[idx] == 1


def test_gadget_perfect_matching_two_triples():
    tdm = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1)))
    assert tdm_has_perfect_matching(tdm)
    inst = gadget_from_3dm(tdm)
    assert oracle_all_cut_decision(inst) is True


def test_gadget_no_matching():
    # both triples cover x=0, leaving x=1 uncovered
    tdm = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1)))
    assert not tdm_has_perfect_matching(tdm)
    inst = gadget_from_3dm(tdm)
    assert oracle_all_cut_decision(inst) is False


def test_gadget_witness_structure():
    # every all-cutting witness puts each center opposite its leaves
    tdm, flag = gen_3dm(2, 1, seed=12)
    if not flag:
        pytest.skip("seed produced no matching")
    inst = gadget_from_3dm(tdm)
    res = oracle_constrained(inst)
    assert res.opt_value == pytest.approx(inst.graph.total_weight, abs=1e-9)
    witness = res.best_set
    t_count = len(tdm.triples)
    for t in range(t_count):
        leaves = {t_count + 3 * t + a for a in range(3)}
        if t in witness:
            assert not (leaves & witness)
        else:
            assert leaves <= witness


def test_gadget_equivalence_exhaustive_small():
    for s in range(15):
        size = 1 + s % 3
        tdm, flag = gen_3dm(size, (s // 3) % 3, seed=500 + s)
        if not tdm.triples:
            continue
        inst = gadget_from_3dm(tdm)
        assert oracle_all_cut_decision(inst) == tdm_has_perfect_matching(tdm)


def test_tdm_validation():
    with pytest.raises(InputError):
        ThreeDMInstance(1, ((0, 1, 0),))
    with pytest.raises(InputError):
        gen_3dm(8, 0, seed=0)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        gen_3dm(3, 0, seed=-1)
    with pytest.raises(InputError, match="extra_triples must be non-negative"):
        gen_3dm(3, -1, seed=0)
