"""The settings table, key=value configuration files and CLI overrides.

SETTINGS is the one list of settable values: each key with its CLI flag,
type, default and help text. The system and grid defaults are those of
SystemParams and TimeGrid. A config file may set any of these keys;
lines starting with '#' and blank lines are ignored.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .core import ParameterError, SystemParams, TimeGrid


class Setting(NamedTuple):
    flag: str
    type: type
    default: "float | int"
    help: str


SETTINGS = {
    "t_r": Setting("--t-r", float, SystemParams.t_r, "cycle period t_r"),
    "t_d": Setting("--t-d", float, SystemParams.t_d, "detector dead time t_d"),
    "sigma_t": Setting("--sigma-t", float, SystemParams.sigma_t, "pulse width sigma_t"),
    "n_cycles": Setting("--n-cycles", int, SystemParams.n_cycles, "laser cycles N per acquisition"),
    "tau": Setting("--tau", float, 4.0, "pulse delay tau"),
    "s_level": Setting("--s-level", float, 1.0, "signal level S"),
    "b_level": Setting("--b-level", float, 1.0, "background level B"),
    "n_bins": Setting("--bins", int, TimeGrid.n_bins, "time grid resolution K"),
    "seed": Setting("--seed", int, 0, "random seed"),
}

DEFAULTS = {key: setting.default for key, setting in SETTINGS.items()}


def load_config(path: "str | Path") -> dict:
    """Parse a key=value file, validating key names and value types."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = SETTINGS[key].type(raw.strip())
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {key}: {raw.strip()!r}") from exc
    return values


def merge_settings(config_path, overrides: dict, defaults: dict = DEFAULTS) -> dict:
    """defaults <- config file <- explicit CLI overrides."""
    settings = dict(defaults)
    if config_path is not None:
        settings.update(load_config(config_path))
    settings.update({k: v for k, v in overrides.items() if v is not None})
    return settings
