"""Scenario configuration: YAML parsing, validation, rendering, presets.

The annotated fields of :class:`ScenarioConfig`, and of
:class:`EstimationConfig` under ``estimation``, are the schema: field
names are the keys, fields without a default are required, and values
are converted to the annotated types.  Unknown keys are rejected and
invariant violations name the offending key with its line in the file.
``render_config`` writes a config back out such that
parse -> render -> parse is the identity.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import types
import typing

import numpy as np
import yaml

from .errors import ConfigNotFoundError, ConfigSyntaxError, ConfigValidationError
from .estimation import EstimationConfig
from .simulation import ALLOCATIONS, SCHEMES, ScenarioConfig

__all__ = [
    "parse_config",
    "parse_config_text",
    "render_config",
    "preset_scenarios",
    "PRESET_NAMES",
]

PRESET_NAMES = ("fig2", "fig5")

# libyaml's emitter when PyYAML was built with it (about 4x faster),
# else the pure-Python one.  The representer is SafeDumper's either way,
# and the two emitters write the same text for these configs (the tests
# compare them on both presets and on random scenarios), so a preset's
# config_digest does not depend on which one ran.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@functools.cache
def _keys(cls) -> types.MappingProxyType:
    """Config keys of a dataclass: field name -> (annotated type, required).

    Reflected once per class; the mapping is read-only because it is shared.
    """
    hints = typing.get_type_hints(cls)
    return types.MappingProxyType({
        f.name: (hints[f.name], f.default is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
        if f.metadata.get("config_key", True)
    })


def _error(source: str, line: int, message: str) -> ConfigValidationError:
    return ConfigValidationError(f"{source}, line {line}: {message}")


def _compose(text: str) -> yaml.MappingNode:
    try:
        root = yaml.compose(text)
    except yaml.YAMLError as exc:
        raise ConfigSyntaxError(f"malformed config: {exc}") from exc
    if root is None:
        return yaml.MappingNode("tag:yaml.org,2002:map", [])
    if not isinstance(root, yaml.MappingNode):
        raise ConfigSyntaxError("config must be a key/value mapping")
    return root


def _mapping_items(node: yaml.MappingNode, source: str):
    items = {}
    for key_node, value_node in node.value:
        key = key_node.value
        line = key_node.start_mark.line + 1
        if key in items:
            raise ConfigSyntaxError(f"{source}, line {line}: duplicate key {key!r}")
        items[key] = (value_node, line)
    return items


def _build(cls, node: yaml.MappingNode, source: str, section: str = ""):
    """Construct ``cls`` from a mapping node, locating every error by line."""
    keys = _keys(cls)
    items = _mapping_items(node, source)
    kwargs = {}
    for key, (value_node, line) in items.items():
        if key not in keys:
            raise _error(source, line, f"unknown {section}key {key!r}")
        kwargs[key] = _coerce(value_node, keys[key][0], key, source, line)
    for key, (_, required) in keys.items():
        if required and key not in kwargs:
            raise ConfigValidationError(f"missing required key {key!r} in {source}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise _locate(exc, items, source) from None


def _locate(exc: ValueError, items, source: str) -> ConfigValidationError:
    # Attach the line of the first key mentioned in the message, if any.
    message = str(exc)
    for key, (_, line) in items.items():
        if key in message:
            return _error(source, line, message)
    return ConfigValidationError(f"{source}: {message}")


def _coerce(node, kind, key: str, source: str, line: int):
    """Convert one YAML value node to the annotated field type ``kind``."""
    optional = typing.get_origin(kind) in (typing.Union, types.UnionType)
    if optional:  # ``X | None``, the only union the schema uses
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    if dataclasses.is_dataclass(kind) and isinstance(node, yaml.MappingNode):
        return _build(kind, node, source, section=f"{key} ")
    try:
        raw = yaml.SafeLoader("").construct_document(node)
    except yaml.YAMLError as exc:
        raise ConfigSyntaxError(f"{source}, line {line}: bad value for {key!r}: {exc}") from exc
    if raw is None and optional:
        return None
    try:
        if typing.get_origin(kind) is tuple:
            if not isinstance(raw, list):
                raise ValueError
            return tuple(_scalar(item, typing.get_args(kind)[0]) for item in raw)
        return _scalar(raw, kind)
    except (ValueError, OverflowError):
        raise _error(source, line, f"{key!r} must be a {_type_name(kind)}, got {raw!r}") from None


def _scalar(raw, kind):
    """``raw`` as a finite ``kind`` (str, int or float); ValueError if it is not one."""
    if isinstance(raw, bool):
        raise ValueError
    if kind is str and isinstance(raw, str):
        return raw
    if kind is int and (isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()):
        return int(raw)
    if kind is float and isinstance(raw, (int, float, str)):
        # Strings too: YAML 1.1 reads an exponent without a dot, such as 1e-3, as one.
        value = float(raw)
        if math.isfinite(value):
            return value
    raise ValueError


def _type_name(kind) -> str:
    if typing.get_origin(kind) is tuple:
        return f"list of {typing.get_args(kind)[0].__name__}"
    return "mapping" if dataclasses.is_dataclass(kind) else kind.__name__


def parse_config_text(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse YAML config text into a validated :class:`ScenarioConfig`."""
    return _build(ScenarioConfig, _compose(text), source)


def parse_config(path) -> ScenarioConfig:
    """Parse a YAML config file; see :func:`parse_config_text`.

    Raises
    ------
    ConfigNotFoundError, ConfigSyntaxError, ConfigValidationError
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ConfigNotFoundError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), source=path)


def render_config(cfg: ScenarioConfig) -> str:
    """Serialize a scenario back to YAML (parse -> render -> parse round-trips)."""
    return yaml.dump(_plain(cfg), Dumper=_DUMPER, sort_keys=True, default_flow_style=None)


def _plain(value):
    # The YAML data that parses back to ``value``; None stands for an absent key.
    if dataclasses.is_dataclass(value):
        return {
            key: _plain(getattr(value, key))
            for key in _keys(type(value))
            if getattr(value, key) is not None
        }
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def preset_scenarios(name: str, seed: int | None = None, trials: int | None = None):
    """Built-in scenario lists for the two reference experiments.

    ``fig2`` is the rank-profile setting (512x32 arrays, path counts
    1..6, 1000 draws each).  ``fig5`` is the 4-user capacity-sweep
    setting (512/32 arrays, 16/4 chains) expanded over both Rician
    factors {0, 10} dB and both power allocations.
    """
    if name == "fig2":
        scenarios = [ScenarioConfig(
            n_ma=512, n_sm=32, k_users=1, n_bb_ma=16, n_bb_sm=4,
            k_factor_db=0.0, l_min=1, l_max=6, trials=1000,
            schemes=("hybrid_ideal",),
        )]
    elif name == "fig5":
        scenarios = [
            ScenarioConfig(
                n_ma=512, n_sm=32, k_users=4, n_bb_ma=16, n_bb_sm=4,
                k_factor_db=k_factor, l_min=2, l_max=6,
                snr_grid_db=tuple(float(s) for s in range(-10, 35, 5)),
                trials=100,
                schemes=SCHEMES,
                allocation=allocation,
                estimation=EstimationConfig(),
            )
            for k_factor in (0.0, 10.0)
            for allocation in ALLOCATIONS
        ]
    else:
        raise ConfigValidationError(
            f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})"
        )
    return _with_overrides(scenarios, seed, trials)


def _with_overrides(scenarios, seed: int | None, trials: int | None) -> list:
    """The scenarios with ``master_seed`` and ``trials`` replaced where given."""
    overrides = {key: value for key, value in (("master_seed", seed), ("trials", trials))
                 if value is not None}
    return [dataclasses.replace(cfg, **overrides) for cfg in scenarios]
