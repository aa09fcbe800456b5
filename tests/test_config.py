import dataclasses
import re
from pathlib import Path

import pytest

from cutkit.config import CONFIG_ENV_VAR, Config, load_config, parse_config_text
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


def test_load_from_env(tmp_path, monkeypatch):
    path = tmp_path / "alt.cfg"
    path.write_text("trials = 3\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    assert load_config().trials == 3


def test_load_missing_default_is_fine(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert load_config().trials == Config().trials


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
