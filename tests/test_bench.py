"""The method registry and the settings it hands to the pipeline."""

import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutkit import rounding
from cutkit.bench import METHODS
from cutkit.cli import main
from cutkit.config import TOL, Config
from cutkit.forge import gen_random
from cutkit.graph import cut_value
from cutkit.io import read_instance
from cutkit.matroid import UniformMatroid

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEEDED = settings(max_examples=6, derandomize=True, deadline=None)


@SEEDED
@given(
    n=st.integers(4, 8),
    c=st.sampled_from([1, 2]),
    seed=st.integers(0, 10_000),
    rank=st.one_of(st.none(), st.integers(1, 4)),
)
def test_every_method_answers_its_own_problem(n, c, seed, rank):
    inst = gen_random(n, 0.6, "unit", c, "half", seed=seed)
    matroid = None if rank is None else UniformMatroid(n, rank)
    for name, method in METHODS.items():
        sol = method(inst, matroid, 0.5, seed, Config())
        if name == "pipage" and matroid is not None:
            assert matroid.is_independent(sol.set) and len(sol.set) == rank
        else:
            assert inst.is_feasible_set(sol.set)
        assert sol.feasible is True
        assert abs(sol.value - cut_value(inst.graph, sol.set)) <= TOL


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Record the level, restarts and trial count each pipeline stage sees."""
    seen = {"levels": [], "restarts": [], "trials": 0}

    def spy(name, record):
        orig = getattr(rounding, name)

        def wrapper(*args, **kwargs):
            record(args, kwargs)
            return orig(*args, **kwargs)

        monkeypatch.setattr(rounding, name, wrapper)

    spy("build_program", lambda a, kw: seen["levels"].append(a[1]))
    spy("make_block_independent", lambda a, kw: seen["restarts"].append(kw["restarts"]))
    spy("round_biased", lambda a, kw: seen.__setitem__("trials", seen["trials"] + 1))
    return seen


def test_bench_config_reaches_the_pipeline(tmp_path, capsys, pipeline_calls):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "c1_n6.txt", corpus)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 2\nrestarts = 5\ntrials = 3\n")
    argv = ["--config", str(cfg), "bench", str(corpus), "--methods", "sdp",
            "--seeds", "1", "--out", str(tmp_path / "report")]
    assert main(argv) == 0
    assert pipeline_calls == {"levels": [2], "restarts": [5], "trials": 3}


def test_solve_multi_config_reaches_the_pipeline(pipeline_calls):
    inst, _ = read_instance(str(CORPUS / "c1_n6.txt"))
    rounding.solve_multi(inst, 0.5, config=Config(trials=3, restarts=5))
    assert pipeline_calls["levels"] == [0]
    assert pipeline_calls["restarts"] == [5]
    assert pipeline_calls["trials"] == 3
