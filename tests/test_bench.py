"""The method registry, the settings it hands to the pipeline, and the
bench rows it produces."""

import json
import math
import re
import shutil
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutkit import bench, moments, oracle, rounding
from cutkit.bench import METHODS, run_bench
from cutkit.cli import main
from cutkit.config import TOL, Config
from cutkit.errors import CapacityError
from cutkit.forge import gen_random
from cutkit.graph import ConstrainedInstance, cut_value
from cutkit.io import format_instance_text, read_instance
from cutkit.matroid import UniformMatroid
from cutkit.oracle import oracle_constrained

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN_BENCH = Path(__file__).resolve().parent / "data" / "corpus_bench.csv"
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
    calls = {"relax": 0, "matroid": 0, "oracle": 0}

    def counting(module, name, key):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(rounding, "solve", "relax")
    counting(bench, "solve_matroid", "matroid")
    counting(bench, "oracle_constrained", "oracle")
    report = run_bench(two_instances, list(METHODS), [1, 2, 3])
    assert calls == {"relax": 2, "matroid": 2, "oracle": 2}
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


def test_failed_oracle_search_skips_the_oracle_rows_with_its_error_once(two_instances, monkeypatch):
    config = Config(oracle_combo_cap=1)
    inst, _ = read_instance(str(Path(two_instances) / "c1_n6.txt"))
    with pytest.raises(CapacityError) as raised:
        oracle_constrained(inst, config=config)
    calls = []
    search = bench.oracle_constrained

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(bench, "oracle_constrained", counting)
    report = run_bench(two_instances, ["greedy", "oracle"], [1, 2], config=config)
    assert len(calls) == 2  # one search per instance
    oracle_rows = [r for r in report.rows if r.method == "oracle"]
    assert len(oracle_rows) == 4
    assert all(r.skipped == f"CapacityError: {raised.value}" for r in oracle_rows)
    assert "skipped,skipped" in oracle_rows[0].csv_line()
    greedy = [r for r in report.rows if r.method == "greedy"]
    assert all(not r.skipped and r.oracle_value is None and r.ratio is None for r in greedy)


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


def test_an_explicit_matroid_over_63_elements_skips_its_rows_and_fails_solve(tmp_path, capsys):
    # each listed set is packed into an int64 mask
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "c1_n6.txt", corpus)
    wide = {
        "schema": "cutkit/1", "n": 70, "edges": [[0, 65, 1.0], [1, 2, 1.0]],
        "parts": [{"k": 1, "vertices": list(range(70))}],
        "matroid": {"kind": "explicit", "sets": [[0, 65], [1, 2]]},
    }
    (corpus / "wide.json").write_text(json.dumps(wide))
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--methods", "pipage,greedy,oracle", "--seeds", "1,2",
            "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    assert len(rows) == 12
    for r in rows:
        if r["instance"] == "wide.json":
            assert r["skipped"].startswith("CapacityError: ")
        else:
            assert r["skipped"] is None and r["feasible"] is True
    capsys.readouterr()
    assert main(["solve", str(corpus / "wide.json"), "--method", "greedy"]) == 3
    assert capsys.readouterr().err.startswith("error: 70 elements exceed")


def golden_rows(instance=None, seeds=(1, 2, 3)):
    """The golden CSV rows of `instance` (every instance when None) and `seeds`,
    split into columns."""
    rows = [line.split(",") for line in GOLDEN_BENCH.read_text().splitlines()[1:]]
    return [r for r in rows if instance in (None, r[0]) and int(r[-1]) in seeds]


def assert_golden(rows, want):
    """CSV rows, split into columns, equal to the golden ones: values within
    the golden file's 1e-9, every other column exactly."""
    assert len(rows) == len(want)
    for got, expect in zip(rows, want):
        for column, (a, b) in enumerate(zip(got, expect)):
            if column in (2, 3, 4) and b not in ("", "skipped"):  # value, oracle_value, ratio
                assert float(a) == pytest.approx(float(b), rel=0, abs=1e-9), (expect, column)
            else:
                assert a == b, (expect, column)


def infinite_weight(name):
    """The corpus file `name` with its first edge weight 1e309 in its own
    format: the weight parses as infinite."""
    text = (CORPUS / name).read_text()
    if name.endswith(".json"):
        obj = json.loads(text)
        obj["edges"][0][2] = "WEIGHT"
        return json.dumps(obj).replace('"WEIGHT"', "1e309")
    head, first, rest = text.split("\n", 2)
    u, v, _ = first.split()
    return f"{head}\n{u} {v} 1e309\n{rest}"


@pytest.mark.parametrize("mutant", ["c1_n6.txt", "c1_n7.json"])
def test_a_file_with_an_infinite_weight_gives_skipped_rows_and_the_report(tmp_path, mutant):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "c1_n6.txt", corpus)
    (corpus / f"mutant{Path(mutant).suffix}").write_text(infinite_weight(mutant))
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--methods", "sdp,pipage,greedy,oracle", "--seeds", "1",
            "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.with_suffix(".csv").read_text().splitlines()[1:]]
    assert_golden([r for r in rows if r[0] == "c1_n6.txt"], golden_rows("c1_n6.txt", (1,)))
    skipped = [r for r in json.loads(out.with_suffix(".json").read_text())["rows"]
               if r["instance"].startswith("mutant")]
    assert len(skipped) == 4
    assert all(re.fullmatch(r"ParseError: weight inf on edge \(\d+,\d+\) is not finite", r["skipped"])
               for r in skipped)


def test_entries_that_cannot_be_read_give_skipped_rows_and_the_report(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "c1_n6.txt", corpus)
    (corpus / "oops.txt").mkdir()
    (corpus / "bin.txt").write_bytes(b"\xff\xfe")
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--methods", "sdp,pipage,greedy,oracle", "--seeds", "1",
            "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.with_suffix(".csv").read_text().splitlines()[1:]]
    assert_golden([r for r in rows if r[0] == "c1_n6.txt"], golden_rows("c1_n6.txt", (1,)))
    skipped = {}
    for r in json.loads(out.with_suffix(".json").read_text())["rows"]:
        if r["instance"] != "c1_n6.txt":
            assert r["skipped"].startswith("ParseError: ") and r["value"] is None
            skipped.setdefault(r["instance"], set()).add(r["skipped"])
    assert sorted(skipped) == ["bin.txt", "oops.txt"]
    for name, reasons in skipped.items():
        assert len(reasons) == 1 and str(corpus / name) in reasons.pop()
    capsys.readouterr()
    for name in skipped:  # solve reports each as a parse error, with no traceback
        assert main(["solve", str(corpus / name), "--method", "greedy"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(corpus / name) in err and "Traceback" not in err
    assert main(["solve", str(tmp_path / "missing.txt")]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(tmp_path / 'missing.txt')!r}\n"
    )


def test_a_failed_matroid_search_leaves_the_pipage_row_without_a_ratio(monkeypatch):
    # c1_n6_uniform_matroid.txt is the one corpus file that declares a matroid
    searched = []

    def refused(*args):
        searched.append(args)
        raise CapacityError("refused")

    monkeypatch.setattr(oracle, "oracle_matroid", refused)
    report = run_bench(str(CORPUS), list(METHODS), [1, 2, 3])
    assert len(searched) == 1
    rows = [line.split(",") for line in report.to_csv().splitlines()[1:]]
    want = golden_rows()
    hit = [i for i, r in enumerate(want) if r[:2] == ["c1_n6_uniform_matroid.txt", "pipage"]]
    assert len(hit) == 3
    for i in hit:  # no ratio; the value, oracle_value and feasible stay
        assert rows[i][4] == "" and want[i][4] != ""
        rows[i][4] = want[i][4]
    assert_golden(rows, want)
    pipage = [r for r in report.rows if r.instance == "c1_n6_uniform_matroid.txt" and r.method == "pipage"]
    assert all(not r.skipped and r.ratio_base == "matroid" and r.ratio is None for r in pipage)


# tokens a mutant may take in place of one of its own: non-finite and huge
# weights in both formats, small counts and ids, and text that is no number
MUTANT_TOKENS = ["1e309", "inf", "nan", "Infinity", "NaN", "1e308", "-1", "0", "1", "2", "7",
                 "0.5", "-0.0", "3.0", "x", "", "null", "true"]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    base=st.sampled_from(["c1_n6.txt", "c1_n6_uniform_matroid.txt", "c1_n7.json"]),
    data=st.data(),
)
def test_property_one_mutated_token_skips_or_answers_its_own_rows_only(tmp_path_factory, base, data):
    text = (CORPUS / base).read_text()
    tokens = list(re.finditer(r"[-\w.+]+" if base.endswith(".json") else r"\S+", text))
    at = tokens[data.draw(st.integers(0, len(tokens) - 1))]
    token = data.draw(st.sampled_from(MUTANT_TOKENS))
    corpus = tmp_path_factory.mktemp("mutant")
    shutil.copy(CORPUS / "c1_n6.txt", corpus)
    (corpus / f"mutant{Path(base).suffix}").write_text(text[: at.start()] + token + text[at.end() :])
    out = tmp_path_factory.mktemp("report") / "report"
    argv = ["bench", str(corpus), "--methods", "sdp,pipage,greedy,oracle", "--seeds", "1",
            "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.with_suffix(".csv").read_text().splitlines()[1:]]
    assert_golden([r for r in rows if r[0] == "c1_n6.txt"], golden_rows("c1_n6.txt", (1,)))
    mutant = [r for r in json.loads(out.with_suffix(".json").read_text())["rows"]
              if r["instance"].startswith("mutant")]
    assert len(mutant) == 4
    for r in mutant:
        if r["skipped"]:
            assert SKIPPED.match(r["skipped"])
        else:
            assert math.isfinite(r["value"])


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


def test_perfbench_tracer_opens_one_span_per_single_constraint_call(monkeypatch):
    # a public entry point that called another wrapped one would nest two
    # spans of one layer, and the layer's time would count twice
    monkeypatch.syspath_prepend(str(CORPUS.parent / "perfbench"))
    import tracing

    inst = gen_random(8, 0.6, "unit", 1, "uniform", seed=5)
    k = inst.budgets[0]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        oracle.oracle_maxcut_k(inst.graph, k)
        assert [span[0] for span in tracer.spans] == ["oracle"]
        rounding.solve_single(inst.graph, k, 0.5)
    finally:
        tracer.remove()
    layers = [span[0] for span in tracer.spans]
    assert layers.count("oracle") == 1 and layers.count("kernel") == 1
