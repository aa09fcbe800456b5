"""The method registry, the settings it hands to the pipeline, and the
bench rows it produces."""

import json
import re
import shutil
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutkit import bench, moments, rounding
from cutkit.bench import METHODS, run_bench
from cutkit.cli import main
from cutkit.config import TOL, Config
from cutkit.forge import gen_random
from cutkit.graph import ConstrainedInstance, cut_value
from cutkit.io import format_instance_text, read_instance
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
        sol = method(inst, matroid, 0.5, Config())(seed)
        if name == "pipage" and matroid is not None:
            assert matroid.is_independent(sol.set) and len(sol.set) == rank
        else:
            assert inst.is_feasible_set(sol.set)
        assert sol.feasible is True
        assert abs(sol.value - cut_value(inst.graph, sol.set)) <= TOL


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Record the level and trial count each pipeline stage sees."""
    seen = {"levels": [], "trials": 0}

    def spy(name, record):
        orig = getattr(rounding, name)

        def wrapper(*args, **kwargs):
            record(args, kwargs)
            return orig(*args, **kwargs)

        monkeypatch.setattr(rounding, name, wrapper)

    spy("build_program", lambda a, kw: seen["levels"].append(a[1]))
    spy("round_biased", lambda a, kw: seen.__setitem__("trials", seen["trials"] + 1))
    return seen


def test_bench_config_reaches_the_pipeline(tmp_path, capsys, pipeline_calls):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "c1_n6.txt", corpus)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 2\ntrials = 3\n")
    argv = ["--config", str(cfg), "bench", str(corpus), "--methods", "sdp",
            "--seeds", "1", "--out", str(tmp_path / "report")]
    assert main(argv) == 0
    assert pipeline_calls == {"levels": [2], "trials": 3}


def test_solve_multi_config_reaches_the_pipeline(pipeline_calls):
    inst, _ = read_instance(str(CORPUS / "c1_n6.txt"))
    rounding.solve_multi(inst, 0.5, config=Config(trials=3))
    assert pipeline_calls == {"levels": [0], "trials": 3}


@pytest.fixture
def two_instances(tmp_path):
    corpus = tmp_path / "two"
    corpus.mkdir()
    for name in ("c1_n6.txt", "c1_n6_uniform_matroid.txt"):
        shutil.copy(CORPUS / name, corpus)
    return str(corpus)


def test_bench_relaxes_and_solves_the_matroid_once_per_instance(two_instances, monkeypatch):
    calls = {"relax": 0, "matroid": 0}

    def counting(module, name, key):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(rounding, "solve", "relax")
    counting(bench, "solve_matroid", "matroid")
    report = run_bench(two_instances, list(METHODS), [1, 2, 3])
    assert calls == {"relax": 2, "matroid": 2}
    assert len(report.rows) == 2 * len(METHODS) * 3
    assert not any(r.skipped for r in report.rows)
    monkeypatch.undo()

    def row_key(line):
        instance, method, *_, seed = line.split(",")
        return instance, method, int(seed)

    single = [
        line
        for seed in (1, 2, 3)
        for line in run_bench(two_instances, list(METHODS), [seed]).to_csv().splitlines()[1:]
    ]
    assert report.to_csv().splitlines()[1:] == sorted(single, key=row_key)


def test_failed_relaxation_skips_every_seed_row_of_sdp_only(two_instances, monkeypatch):
    monkeypatch.setattr(moments, "N_MAX_SDP", 2)
    report = run_bench(two_instances, list(METHODS), [1, 2, 3])
    sdp = [r for r in report.rows if r.method == "sdp"]
    assert len(sdp) == 6
    assert all(r.skipped.startswith("CapacityError: ") for r in sdp)
    assert len({(r.instance, r.skipped) for r in sdp}) == 2
    others = [r for r in report.rows if r.method != "sdp"]
    assert len(others) == 18
    assert all(not r.skipped and r.feasible for r in others)


def test_shared_stage_time_goes_to_the_first_seed_row(two_instances, monkeypatch):
    def prepare(inst, matroid, eps, config):
        time.sleep(0.2)
        return METHODS["greedy"](inst, matroid, eps, config)

    monkeypatch.setitem(METHODS, "slow", prepare)
    report = run_bench(two_instances, ["slow"], [1, 2, 3])
    for name in ("c1_n6.txt", "c1_n6_uniform_matroid.txt"):
        times = [r.wall_time_s for r in report.rows if r.instance == name]
        assert times[0] >= 0.2 and max(times[1:]) < 0.2


def test_bench_skips_a_json_file_with_a_malformed_matroid(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "c1_n6.txt", corpus)
    bad = {
        "schema": "cutkit/1", "n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]],
        "parts": [{"k": 2, "vertices": [0, 1, 2, 3]}], "matroid": {"kind": "uniform"},
    }
    (corpus / "no_rank.json").write_text(json.dumps(bad))
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--methods", "pipage,greedy,oracle", "--seeds", "1,2",
            "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    assert len(rows) == 12
    for r in rows:
        if r["instance"] == "no_rank.json":
            assert r["skipped"].startswith("ParseError: ")
        else:
            assert r["skipped"] is None and r["feasible"] is True
    assert main(["solve", str(corpus / "no_rank.json"), "--method", "greedy"]) == 1


# ---------------------------------------------------------------------------
# bench row invariants over seeded corpora


@st.composite
def corpora(draw):
    """A few small instance files, some of which make rows skip: a budget
    over half its part (sdp refuses it) or a file that does not parse."""
    out = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(4, 7))
        inst = gen_random(n, draw(st.floats(0.3, 0.9)), "uniform", draw(st.integers(1, 2)),
                          draw(st.sampled_from(["uniform", "half", "one"])),
                          seed=draw(st.integers(0, 10_000)))
        rank = draw(st.one_of(st.none(), st.integers(0, n)))
        text = format_instance_text(inst, None if rank is None else UniformMatroid(n, rank))
        flaw = draw(st.sampled_from(["none", "over_half", "unparsable"]))
        if flaw == "over_half":
            parts = [sorted(p) for p in inst.parts]
            inst = ConstrainedInstance(inst.graph, parts, [len(p) - 1 for p in parts])
            text = format_instance_text(inst)
        elif flaw == "unparsable":
            text = text.replace("\n", "\n0 1 x\n", 1)
        out.append((f"i{i}.txt", text))
    return out
SKIPPED = re.compile(r"^[A-Z][A-Za-z]*Error: ")


@settings(max_examples=12, derandomize=True, deadline=None)
@given(corpus=corpora(), seeds=st.lists(st.integers(1, 99), min_size=1, max_size=3))
def test_bench_row_invariants(tmp_path_factory, corpus, seeds):
    directory = tmp_path_factory.mktemp("corpus")
    for name, text in corpus:
        (directory / name).write_text(text)
    report = run_bench(str(directory), list(METHODS), seeds)
    csv_rows = [line.split(",") for line in report.to_csv().splitlines()[1:]]
    json_rows = json.loads(report.to_json())["rows"]
    assert len(csv_rows) == len(json_rows) == len(corpus) * len(METHODS) * len(seeds)
    for cols, row in zip(csv_rows, json_rows):
        instance, method, value, oracle_value, ratio, feasible, seed = cols
        assert (instance, method, int(seed)) == (row["instance"], row["method"], row["seed"])
        if row["skipped"]:
            assert SKIPPED.match(row["skipped"])
            assert (value, oracle_value, ratio, feasible) == ("skipped", "skipped", "", "false")
            continue
        assert row["ratio"] is None or row["ratio"] <= 1.0 + TOL
        assert value == repr(row["value"]) and oracle_value == repr(row["oracle_value"])
        assert ratio == ("" if row["ratio"] is None else repr(row["ratio"]))
        assert feasible == ("true" if row["feasible"] else "false")


def test_perfbench_tracer_finds_every_name_it_wraps_and_restores_them(monkeypatch):
    # the tracer wraps cutkit functions by module attribute and raises
    # TraceError for a name that no longer exists; this catches a renamed or
    # deleted name here instead of in the traced benchmark runs
    monkeypatch.syspath_prepend(str(CORPUS.parent / "perfbench"))
    import tracing

    from cutkit import cli, matroid, moments, oracle

    modules = (bench, cli, matroid, moments, oracle, rounding)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._undo)
        assert wrapped
        assert all(getattr(m, attr) is not orig for m, attr, orig in wrapped)
    finally:
        tracer.remove()
    for module, names in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in names.items())
