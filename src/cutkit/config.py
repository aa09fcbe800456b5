"""Run-time configuration: caps, tolerances, and default seeds.

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
    # Moment-hierarchy caps.
    n_max_sdp: int = 14
    level: int = 0  # 0 selects the level automatically from the graph size

    # Interior-point SDP solver.  It stops once the relative duality gap
    # and the relative primal and dual residuals are all at most sdp_tol,
    # so sdp_tol bounds the relative objective error; sdp_max_iter caps
    # its Newton steps.
    sdp_tol: float = 2e-8
    sdp_max_iter: int = 100

    # Conditioning search.
    restarts: int = 64

    # Rounding pipeline.
    trials: int = 8
    c_cap: int = 4

    # Exact oracle.
    oracle_combo_cap: int = 10_000_000

    # Master seed for all derived randomness.
    seed: int = 7


_INT_FIELDS = {
    f.name for f in dataclasses.fields(Config) if f.type in ("int", int)
}


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
            parsed = int(value) if key in _INT_FIELDS else float(value)
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
