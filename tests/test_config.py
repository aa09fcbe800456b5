import dataclasses
import re
from pathlib import Path

import pytest

from cutkit.cli import main
from cutkit.config import Config, load_config, parse_config_text
from cutkit.errors import ParseError


def test_defaults():
    cfg = Config()
    assert [f.name for f in dataclasses.fields(Config)] == [
        "level", "trials", "oracle_combo_cap", "seed",
    ]
    assert (cfg.level, cfg.trials, cfg.oracle_combo_cap, cfg.seed) == (0, 8, 10_000_000, 7)


def test_parse_overrides():
    cfg = parse_config_text("level = 3\ntrials = 5\n# comment\n\nseed=3\n")
    assert (cfg.level, cfg.trials, cfg.seed) == (3, 5, 3)


@pytest.mark.parametrize(
    "key",
    [
        "mystery", "depth_cap", "auto_level4_dim", "auto_level3_dim", "independence_budget",
        "oracle_n_max", "matroid_enum_cap", "n_max_sdp", "sdp_tol", "sdp_max_iter",
        "restarts", "c_cap",
    ],
)
def test_parse_rejects_unknown_key(key):
    # all but the first were keys once; an old config file that sets one fails loudly
    with pytest.raises(ParseError):
        parse_config_text(f"{key} = 1\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ParseError) as exc_info:
        parse_config_text("seed = banana\n")
    assert exc_info.value.line == 1


CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def bench_csv(out) -> bytes:
    assert main(["bench", str(CORPUS_DIR), "--out", str(out)]) == 0
    return out.with_suffix(".csv").read_bytes()


def test_only_a_named_file_is_read(tmp_path, monkeypatch, capsys):
    # neither a stray ./cutkit.cfg nor CUTKIT_CONFIG is read: the bench
    # writes the same bytes as in a clean directory (a combination cap of
    # 1 or 2 would skip every oracle row)
    clean, stray = tmp_path / "clean", tmp_path / "stray"
    clean.mkdir()
    stray.mkdir()
    monkeypatch.delenv("CUTKIT_CONFIG", raising=False)
    monkeypatch.chdir(clean)
    want = bench_csv(clean / "report")
    assert b",oracle,skipped," not in want
    (stray / "cutkit.cfg").write_text("trials = 1\noracle_combo_cap = 1\n")
    monkeypatch.chdir(stray)
    assert bench_csv(stray / "cwd") == want
    (tmp_path / "env.cfg").write_text("oracle_combo_cap = 2\n")
    monkeypatch.setenv("CUTKIT_CONFIG", str(tmp_path / "env.cfg"))
    assert bench_csv(stray / "env") == want


def test_load_from_env(tmp_path, monkeypatch):
    # CUTKIT_CONFIG is not read: the file it names loads only when passed
    path = tmp_path / "alt.cfg"
    path.write_text("trials = 3\n")
    monkeypatch.setenv("CUTKIT_CONFIG", str(path))
    assert load_config() == Config()
    assert load_config(str(path)).trials == 3


def test_load_missing_default_is_fine(tmp_path, monkeypatch):
    # no path gives the defaults, whether or not a ./cutkit.cfg is there
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CUTKIT_CONFIG", raising=False)
    assert load_config() == Config()
    (tmp_path / "cutkit.cfg").write_text("trials = 1\n")
    assert load_config() == Config()
    assert load_config("cutkit.cfg").trials == 1


def test_a_config_path_that_is_a_directory_is_a_parse_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path), "solve", str(CORPUS_DIR / "c1_n6.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"
    with pytest.raises(ParseError, match=re.escape(str(tmp_path))):
        load_config(str(tmp_path))


def test_a_config_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\xe9\ntrials = 2\n".encode("latin-1"))
    code = main(["--config", str(cfg), "solve", str(CORPUS_DIR / "c1_n6.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} is not UTF-8 text: byte 5 ")
    with pytest.raises(ParseError, match=re.escape(str(cfg))):
        load_config(str(cfg))


def test_readme_config_table_names_every_key():
    # a knob missing from the table, or a row for a removed key, fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.findall(r"^\| `(\w+)` \|", readme, flags=re.M)
    assert len(table) == len(set(table))
    assert set(table) == {f.name for f in dataclasses.fields(Config)}


def test_every_config_key_is_read_outside_config():
    # a key that no module reads is inert: setting it changes nothing
    src = Path(__file__).resolve().parent.parent / "src" / "cutkit"
    code = "".join(p.read_text() for p in src.glob("*.py") if p.name != "config.py")
    unread = [
        f.name for f in dataclasses.fields(Config) if not re.search(rf"\.{f.name}\b", code)
    ]
    assert not unread
