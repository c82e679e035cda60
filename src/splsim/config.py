"""Simple key=value configuration files with CLI overrides.

Recognized keys: t_r, t_d, sigma_t, n_cycles, tau, s_level, b_level,
n_bins, seed. Lines starting with '#' and blank lines are ignored.
"""

from __future__ import annotations

from pathlib import Path

from .core import ParameterError

CONFIG_KEYS = {
    "t_r": float,
    "t_d": float,
    "sigma_t": float,
    "n_cycles": int,
    "tau": float,
    "s_level": float,
    "b_level": float,
    "n_bins": int,
    "seed": int,
}

DEFAULTS = {
    "t_r": 10.0,
    "t_d": 8.0,
    "sigma_t": 0.1,
    "n_cycles": 1000,
    "tau": 4.0,
    "s_level": 1.0,
    "b_level": 1.0,
    "n_bins": 1024,
    "seed": 0,
}


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
        if key not in CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](raw.strip())
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
