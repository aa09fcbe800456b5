"""Run-time configuration: the settings a caller chooses per run.

Config holds only what callers set: the hierarchy level, the rounding
trials, the exact oracles' combination cap and the master seed.  Fixed
policy (the relaxation's size caps, the interior-point tolerance and
step cap, the conditioning restarts, the most parts the pipeline takes)
lives as module constants in `moments` and `rounding`.

Values come from (in increasing priority) built-in defaults, a key=value
config file (path overridable through the CUTKIT_CONFIG environment
variable), and explicit CLI flags.
"""

from __future__ import annotations

import dataclasses
import os

from .errors import ParseError

# Global comparison tolerance for weights and cut values.
TOL = 1e-9

# Eigenvalue tolerance below which a moment matrix counts as PSD.
PSD_TOL = 1e-7

DEFAULT_CONFIG_PATH = "cutkit.cfg"
CONFIG_ENV_VAR = "CUTKIT_CONFIG"


@dataclasses.dataclass
class Config:
    level: int = 0  # hierarchy level; 0 selects it from the graph size
    trials: int = 8  # rounding trials per pipeline run
    oracle_combo_cap: int = 10_000_000  # most feasible sets an exact oracle scores
    seed: int = 7  # master seed for all derived randomness


def parse_config_text(text: str, base: Config | None = None) -> Config:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    cfg = dataclasses.replace(base) if base is not None else Config()
    known = {f.name for f in dataclasses.fields(Config)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        try:
            parsed = type(getattr(cfg, key))(value)
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {value!r}", line=lineno) from exc
        setattr(cfg, key, parsed)
    return cfg


def load_config(path: str | None = None) -> Config:
    """Load the config file if present, else return defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR, DEFAULT_CONFIG_PATH)
        if not os.path.exists(path):
            return Config()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
