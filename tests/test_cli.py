import csv
import io
import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from cutkit.cli import build_parser, main
from cutkit.config import Config
from cutkit.errors import ConvergenceError, InputError
from cutkit.io import format_instance_text, parse_instance, read_instance
from cutkit.forge import gen_random
from cutkit.graph import ConstrainedInstance, WeightedGraph
from cutkit.moments import mutual_information
from cutkit.rounding import relax_multi


def k3_file(tmp_path):
    g = WeightedGraph(3, [(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)])
    inst = ConstrainedInstance(g, [range(3)], [1])
    path = tmp_path / "k3.txt"
    path.write_text(format_instance_text(inst))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_oracle_k3(tmp_path, capsys):
    code, out = run(capsys, ["solve", k3_file(tmp_path), "--method", "oracle"])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(2 / 3, abs=1e-9)
    assert obj["feasible"] is True
    assert obj["schema"] == "cutkit/1"


def test_solve_pipage_single_edge(tmp_path, capsys):
    g = WeightedGraph(2, [(0, 1, 1.0)])
    inst = ConstrainedInstance(g, [range(2)], [1])
    path = tmp_path / "edge.txt"
    path.write_text(format_instance_text(inst) + "matroid uniform 1\n")
    code, out = run(capsys, ["solve", str(path), "--method", "pipage"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)


def test_solve_sdp_k3(tmp_path, capsys):
    code, out = run(capsys, ["solve", k3_file(tmp_path), "--method", "sdp", "--seed", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(2 / 3, abs=1e-9)
    assert obj["trace"][0] == "kernel"
    assert obj["seed"] == 3


def test_missing_file_exit_code(capsys):
    assert main(["solve", "definitely_missing.txt"]) == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    for text, line in (("2 1 1\n0 1 oops\n2 1 0 1\n", 2), ("3 2 1\n0 1 1\n1 2 1\n3\n", 4)):
        bad.write_text(text)
        assert main(["solve", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_infeasible_exit_code(tmp_path, capsys):
    g = WeightedGraph(2, [(0, 1, 1.0)])
    inst = ConstrainedInstance(g, [{0}, {1}], [1, 1])
    path = tmp_path / "inf.txt"
    # hand-build a file demanding 2 vertices from a singleton part
    path.write_text("2 1 2\n0 1 1.0\n1 2 0\n1 0 1\n")
    assert main(["solve", str(path), "--method", "oracle"]) == 2


def test_capacity_exit_code(tmp_path, capsys):
    # C(30, 15) blows the default enumeration cap
    lines = ["30 0 1", "30 15 " + " ".join(str(v) for v in range(30))]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(path), "--method", "oracle"]) == 3


def test_gen_and_solve_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "gen.txt"
    code, _ = run(capsys, ["gen", "--n", "6", "--c", "2", "--seed", "5", "--out", str(out_path)])
    assert code == 0
    inst, _ = parse_instance(out_path.read_text())
    assert inst.graph.n == 6
    code, out = run(capsys, ["solve", str(out_path), "--method", "greedy"])
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_gen_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, ["gen", "--n", "7", "--seed", "9", "--out", str(a)])
    run(capsys, ["gen", "--n", "7", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gadget_command(tmp_path, capsys):
    tdm_path = tmp_path / "m.3dm"
    tdm_path.write_text("0 0 0\n1 1 1\n")
    code, out = run(capsys, ["gadget", str(tdm_path)])
    assert code == 0
    inst, _ = parse_instance(out)
    assert inst.graph.n == 8  # two stars


def test_kernelize_command(tmp_path, capsys):
    code, out = run(capsys, ["kernelize", k3_file(tmp_path), "--eps", "0.5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["forbidden"] == [2]
    assert obj["budgets"] == [1]


def check_inspect_pair_fields(path, obj):
    # the pair fields against the relaxation's own moments, read one pair
    # at a time
    relaxation = relax_multi(read_instance(path)[0], 0.5, Config())
    mv, ker = relaxation.moments, relaxation.kernel
    rho = np.array(obj["correlations"])
    assert np.array_equal(rho, rho.T)
    assert np.array_equal(np.diag(rho), np.ones(mv.n))
    assert rho.tolist() == [[mv.corr(i, j) for j in range(mv.n)] for i in range(mv.n)]
    assert obj["biases"] == [mv.bias(i) for i in range(mv.n)]
    parts = [sorted(p - ker.forbidden) for p in ker.parts]
    for score, part in zip(obj["block_scores"], parts, strict=True):
        pairs = [mutual_information(mv, a, b) for a, b in combinations(part, 2)]
        assert score == pytest.approx(np.mean(pairs) if pairs else 0.0, abs=1e-12)
    cross = sum(
        np.mean([mutual_information(mv, a, b) for a in pa for b in pb])
        for pa, pb in combinations(parts, 2)
        if pa and pb
    )
    assert obj["cross_block"] == pytest.approx(cross, abs=1e-12)


def test_inspect_sdp_command(tmp_path, capsys):
    path = k3_file(tmp_path)
    code, out = run(capsys, ["inspect-sdp", path])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["biases"]) == 3
    assert obj["objective"] >= 2 / 3 - 1e-6
    check_inspect_pair_fields(path, obj)


def test_inspect_sdp_two_parts(capsys):
    path = str(Path(CORPUS_DIR) / "c2_n8.txt")
    code, out = run(capsys, ["inspect-sdp", path])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["block_scores"]) == 2 and obj["cross_block"] > 0.0
    check_inspect_pair_fields(path, obj)


def test_bench_command(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, n in enumerate((5, 6)):
        inst = gen_random(n, 0.7, "unit", 1, "uniform", seed=i)
        (corpus / f"i{i}.txt").write_text(format_instance_text(inst))
    out_prefix = tmp_path / "rep"
    code, _ = run(
        capsys,
        ["bench", str(corpus), "--methods", "greedy,oracle", "--seeds", "7", "--out", str(out_prefix)],
    )
    assert code == 0
    csv_a = (tmp_path / "rep.csv").read_text()
    assert csv_a.splitlines()[0] == "instance,method,value,oracle_value,ratio,feasible,seed"
    assert len(csv_a.splitlines()) == 5
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["schema"] == "cutkit-bench/1"
    assert report["aggregates"]["oracle"]["min_ratio"] == 1.0
    # rerun reproduces the CSV byte for byte
    code, _ = run(
        capsys,
        ["bench", str(corpus), "--methods", "greedy,oracle", "--seeds", "7", "--out", str(tmp_path / "rep2")],
    )
    assert (tmp_path / "rep2.csv").read_text() == csv_a


def test_verify_single_suite(capsys):
    code, out = run(capsys, ["verify", "--suite", "sandwich"])
    assert code == 0
    assert out.startswith("PASS sandwich")


def test_verify_list(capsys):
    code, out = run(capsys, ["verify", "--list"])
    assert code == 0
    assert "sandwich" in out and "pipeline" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 1


def test_run_suites_checks_every_name_before_running_any(monkeypatch):
    from cutkit import verify

    ran = []
    monkeypatch.setitem(verify.SUITES, "kernel", lambda config: ran.append("kernel"))
    with pytest.raises(InputError, match="unknown suite 'nope'; try --list"):
        verify.run_suites(["kernel", "nope"])
    assert ran == []


def test_bench_refuses_a_bad_seed_entry(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["bench", CORPUS_DIR, "--seeds", "7,x", "--out", str(out)]) == 1
    assert "bad seed 'x' in --seeds" in capsys.readouterr().err
    assert not out.with_suffix(".csv").exists()


def test_verify_reads_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("oracle_combo_cap = 1\n")
    assert main(["--config", str(cfg), "verify", "--suite", "gadget"]) == 3
    assert "exceed enumeration cap 1" in capsys.readouterr().err


CORPUS_DIR = str(Path(__file__).resolve().parent.parent / "corpus")


def test_solve_refuses_a_removed_config_key(tmp_path, capsys):
    # sdp_max_iter = -1 once crashed the solve with a raw TypeError
    cfg = tmp_path / "old.cfg"
    cfg.write_text("sdp_max_iter = -1\n")
    corpus_file = str(Path(CORPUS_DIR) / "c1_n6.txt")
    assert main(["--config", str(cfg), "solve", corpus_file]) == 1
    assert "unknown config key 'sdp_max_iter'" in capsys.readouterr().err


def test_solve_refuses_a_negative_seed(tmp_path, capsys):
    # numpy's SeedSequence once ended these runs with a raw ValueError
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n")
    corpus_file = str(Path(CORPUS_DIR) / "c1_n6.txt")
    for argv in (["solve", corpus_file, "--seed", "-1"], ["--config", str(cfg), "solve", corpus_file]):
        assert main(argv) == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_gen_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["gen", "--n", "6", "--seed", "-1", "--out", str(out)]) == 1
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


GOLDEN_BENCH = Path(__file__).resolve().parent / "data" / "corpus_bench.csv"
GOLDEN_VALUES = ("value", "oracle_value", "ratio")


def test_shipped_corpus_bench_all_methods(tmp_path, capsys):
    # every CLI method end to end on the shipped mini-corpus, against
    # tests/data/corpus_bench.csv, the output of
    #   cutkit bench corpus --methods sdp,pipage,greedy,oracle --seeds 1,2,3
    # A change that means to move an answer regenerates it and says why.
    code, _ = run(
        capsys,
        [
            "bench", CORPUS_DIR,
            "--methods", "sdp,pipage,greedy,oracle",
            "--seeds", "1,2,3",
            "--out", str(tmp_path / "shipped"),
        ],
    )
    assert code == 0
    csv_text = (tmp_path / "shipped.csv").read_text()
    rows = csv_text.splitlines()[1:]
    assert len(rows) == 4 * 5 * 3  # four methods, five instances, three seeds
    assert all(",skipped," not in r for r in rows)
    report = json.loads((tmp_path / "shipped.json").read_text())
    for method in ("sdp", "pipage", "greedy", "oracle"):
        assert report["aggregates"][method]["min_ratio"] >= 0.5
    fresh = list(csv.DictReader(io.StringIO(csv_text)))
    golden = list(csv.DictReader(io.StringIO(GOLDEN_BENCH.read_text())))
    assert len(fresh) == len(golden)
    for got, want in zip(fresh, golden):
        assert got.keys() == want.keys()
        for key in want:
            if key in GOLDEN_VALUES:
                assert float(got[key]) == pytest.approx(float(want[key]), rel=0, abs=1e-9), (want, key)
            else:
                assert got[key] == want[key], (want, key)


def test_shipped_gadget_file(tmp_path, capsys):
    code, out = run(capsys, ["gadget", str(Path(CORPUS_DIR) / "triples.3dm")])
    assert code == 0
    inst, _ = parse_instance(out)
    assert inst.graph.n == 12  # three stars


def test_bench_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _ = run(capsys, ["bench", str(empty), "--methods", "oracle", "--seeds", "1", "--out", str(tmp_path / "e")])
    assert code == 0
    assert (tmp_path / "e.csv").read_text().splitlines() == [
        "instance,method,value,oracle_value,ratio,feasible,seed"
    ]


def bench_rows(tmp_path, capsys, corpus, methods):
    out = tmp_path / "report"
    code, _ = run(
        capsys,
        ["bench", str(corpus), "--methods", methods, "--seeds", "1", "--out", str(out)],
    )
    assert code == 0
    report = json.loads(out.with_suffix(".json").read_text())
    csv_rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    return {(r["instance"], r["method"]): r for r in report["rows"]}, csv_rows


def test_bench_bad_instance_skips_only_its_rows(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(Path(CORPUS_DIR) / "c1_n6.txt", corpus)
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    bad = ConstrainedInstance(g, [range(4)], [3])  # budget over half the part
    (corpus / "over_half.txt").write_text(format_instance_text(bad))
    rows, csv_rows = bench_rows(tmp_path, capsys, corpus, "sdp,pipage,greedy,oracle")
    assert len(rows) == 8
    for method in ("sdp", "pipage", "greedy", "oracle"):
        good = rows[("c1_n6.txt", method)]
        assert good["skipped"] is None and good["feasible"] is True
        assert good["ratio"] == pytest.approx(
            good["value"] / good["oracle_value"], abs=1e-12
        )
    failed = rows[("over_half.txt", "sdp")]
    assert failed["skipped"].startswith("InputError: ")
    assert failed["value"] is None and failed["ratio"] is None
    assert "over_half.txt,sdp,skipped,skipped,,false,1" in csv_rows
    for method in ("pipage", "greedy", "oracle"):
        assert rows[("over_half.txt", method)]["skipped"] is None


def test_bench_unparsable_file_skips_its_rows(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(Path(CORPUS_DIR) / "c1_n6.txt", corpus)
    (corpus / "bad_edge.txt").write_text("2 1 1\n0 1 x\n2 1 0 1\n")
    (corpus / "short_part.txt").write_text("3 2 1\n0 1 1\n1 2 1\n3\n")
    rows, csv_rows = bench_rows(tmp_path, capsys, corpus, "pipage,greedy,oracle")
    assert len(rows) == 9
    for method in ("pipage", "greedy", "oracle"):
        assert rows[("c1_n6.txt", method)]["skipped"] is None
        for name, line in (("bad_edge.txt", 2), ("short_part.txt", 4)):
            bad = rows[(name, method)]
            assert bad["skipped"].startswith(f"ParseError: line {line}:")
            assert bad["value"] is None and bad["oracle_value"] is None
            assert f"{name},{method},skipped,skipped,,false,1" in csv_rows


def test_bench_negative_seed_fails_only_the_sdp_rows(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(Path(CORPUS_DIR) / "c1_n6.txt", corpus)
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--methods", "sdp,greedy", "--seeds", "-1", "--out", str(out)]
    code, _ = run(capsys, argv)
    assert code == 0
    csv_rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert "c1_n6.txt,sdp,skipped,skipped,,false,-1" in csv_rows
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    by_method = {r["method"]: r for r in rows}
    assert by_method["sdp"]["skipped"] == "InputError: seed must be a non-negative integer, got -1"
    assert by_method["greedy"]["skipped"] is None and by_method["greedy"]["feasible"] is True


def test_bench_survives_a_graph_wider_than_the_oracle_mask(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(Path(CORPUS_DIR) / "c1_n6.txt", corpus)
    n = 70
    g = WeightedGraph(n, [(v, v + 1, 1.0) for v in range(n - 1)])
    wide = ConstrainedInstance(g, [{v} for v in range(n)], [v % 2 for v in range(n)])
    (corpus / "path70.txt").write_text(format_instance_text(wide))
    rows, _ = bench_rows(tmp_path, capsys, corpus, "pipage,greedy,oracle")
    assert len(rows) == 6
    assert all(rows[("c1_n6.txt", m)]["skipped"] is None for m in ("pipage", "greedy", "oracle"))
    assert rows[("path70.txt", "oracle")]["skipped"].startswith("CapacityError: ")
    for method in ("pipage", "greedy"):
        assert rows[("path70.txt", method)]["value"] == 69.0
        assert rows[("path70.txt", method)]["oracle_value"] is None


def test_bench_pipage_ratio_uses_matroid_optimum(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(Path(CORPUS_DIR) / "c1_n6_uniform_matroid.txt", corpus)
    rows, _ = bench_rows(tmp_path, capsys, corpus, "pipage,oracle")
    pipage = rows[("c1_n6_uniform_matroid.txt", "pipage")]
    oracle = rows[("c1_n6_uniform_matroid.txt", "oracle")]
    assert pipage["ratio_base"] == "matroid"
    assert pipage["ratio"] == pytest.approx(1.0, abs=1e-9)
    # the oracle column stays the partition optimum on every row
    assert pipage["oracle_value"] == oracle["value"] == oracle["oracle_value"]
    assert pipage["value"] < oracle["value"]
    assert oracle["ratio_base"] == "partition"


def test_solve_sdp_rejects_over_half_budget(tmp_path, capsys):
    # budget above half the part size violates the pipeline precondition
    path = tmp_path / "over.txt"
    path.write_text("3 1 1\n0 1 1.0\n3 2 0 1 2\n")
    assert main(["solve", str(path), "--method", "sdp"]) == 1


def test_verify_default_quartet(capsys):
    code, out = run(capsys, ["verify"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 4


def singular_face_instance():
    """12 vertices in three parts of 4 with budget 1: at eps 0.05 the kernel
    keeps whole parts, and the relaxation's face has no interior, so the
    interior-point method loses definiteness near the optimum."""
    rng = np.random.default_rng(0)
    edges = [(u, v, 1.0) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.5]
    perm = rng.permutation(12)
    parts = [sorted(int(v) for v in perm[i : i + 4]) for i in (0, 4, 8)]
    return ConstrainedInstance(WeightedGraph(12, edges), parts, [1, 1, 1])


def test_relaxation_that_loses_definiteness_raises_convergence_error():
    with pytest.raises(ConvergenceError, match="Newton step") as info:
        relax_multi(singular_face_instance(), 0.05)
    err = info.value
    assert err.iterations > 0 and err.primal is not None and err.dual is not None


def test_solve_that_loses_definiteness_exits_with_code_4(tmp_path, capsys):
    path = tmp_path / "singular.txt"
    path.write_text(format_instance_text(singular_face_instance()))
    assert main(["solve", str(path), "--eps", "0.05"]) == 4
    assert "error: Newton step" in capsys.readouterr().err


def test_bench_skips_the_sdp_row_that_loses_definiteness(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(Path(CORPUS_DIR) / "c1_n6.txt", corpus)
    (corpus / "singular.txt").write_text(format_instance_text(singular_face_instance()))
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--eps", "0.05", "--methods", "sdp,greedy",
            "--seeds", "1", "--out", str(out)]
    code, _ = run(capsys, argv)
    assert code == 0
    csv_rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert "singular.txt,sdp,skipped,skipped,,false,1" in csv_rows
    assert any(r.startswith("singular.txt,greedy,") and r.endswith(",true,1") for r in csv_rows)
    golden = GOLDEN_BENCH.read_text().splitlines()
    for method in ("sdp", "greedy"):
        want = [r for r in golden if r.startswith(f"c1_n6.txt,{method},") and r.endswith(",1")]
        assert [r for r in csv_rows if r.startswith(f"c1_n6.txt,{method},")] == want
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    (skipped,) = [r["skipped"] for r in rows if r["skipped"]]
    assert skipped.startswith("ConvergenceError: Newton step")


# cutkit loads scipy's LAPACK and HiGHS extension files alone (cutkit._highs)
# and carries its own inverse normal CDF, so none of these is ever imported
NOT_IMPORTED = (
    "scipy.stats",
    "scipy.linalg",
    "scipy.sparse",
    "scipy.special",
    "scipy.optimize",
    "scipy._lib._array_api",
    "numpy.f2py",
    "numpy.testing",
    "numpy.ma",
)


def test_cli_import_and_bench_leave_scipy_packages_unloaded(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import json, sys, cutkit.cli; "
        f"names = {NOT_IMPORTED!r}; "
        "after_import = [m for m in names if m in sys.modules]; "
        f"code = cutkit.cli.main(['bench', {CORPUS_DIR!r}, '--out', {str(tmp_path / 'r')!r}]); "
        # the corpus holds no explicit matroid; building one reads its maximal sets
        "cutkit.matroid.ExplicitMatroid(4, [[0, 2], [0, 3], [1, 2], [1, 3], [2]]); "
        "print(json.dumps([after_import, code, [m for m in names if m in sys.modules]]))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(res.stdout.splitlines()[-1]) == [[], 0, []]


def test_bench_skips_the_sdp_row_whose_lapack_call_fails(tmp_path, monkeypatch, capsys):
    from cutkit import moments

    real = moments._flapack.dgesdd
    monkeypatch.setattr(
        moments._flapack, "dgesdd", lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], 2)
    )
    moments._geometry.cache_clear()  # so that the face is built again
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(Path(CORPUS_DIR) / "c1_n6.txt", corpus)
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--methods", "sdp,greedy", "--seeds", "1", "--out", str(out)]
    code, _ = run(capsys, argv)
    assert code == 0
    csv_rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert "c1_n6.txt,sdp,skipped,skipped,,false,1" in csv_rows
    golden = GOLDEN_BENCH.read_text().splitlines()
    want = [r for r in golden if r.startswith("c1_n6.txt,greedy,") and r.endswith(",1")]
    assert [r for r in csv_rows if r.startswith("c1_n6.txt,greedy,")] == want
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    (skipped,) = [r["skipped"] for r in rows if r["skipped"]]
    assert skipped == "ConvergenceError: LAPACK dgesdd failed with info 2"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_calls_in_one_process_share_no_arguments(tmp_path, capsys):
    path = k3_file(tmp_path)

    def solve(*flags):
        code, out = run(capsys, ["solve", path, *flags])
        assert code == 0
        obj = json.loads(out)
        del obj["timings"]
        return obj

    first = solve()
    other = solve("--seed", "3", "--method", "greedy", "--eps", "0.2", "--trials", "2")
    assert other["seed"] == 3 and other["method"] == "greedy"
    assert solve() == first
    assert first["seed"] == Config().seed and first["method"] == "sdp"


def test_oracle_rejects_flags_that_reach_no_oracle(tmp_path, capsys):
    for flag in (["--eps", "0.1"], ["--level", "3"], ["--trials", "2"]):
        with pytest.raises(SystemExit) as info:
            main(["oracle", k3_file(tmp_path), *flag])
        assert info.value.code == 2
    code, out = run(capsys, ["oracle", k3_file(tmp_path), "--seed", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(2 / 3, abs=1e-9) and obj["seed"] == 4
