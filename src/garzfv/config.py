"""Flat INI run configurations.

Sections: [model], [grid], [initial], [slab], [output], [checks].  All
physical quantities are decimal numbers.  Piecewise data use the syntax

    pieces = x_left x_right value ; x_left x_right value_left value_right

with one piece per semicolon-separated group (three numbers: constant
piece; four: linear ramp).  A missing key and a blank value (`key =`)
both mean the field's default.  Values are literal (no `%` interpolation,
no [DEFAULT] section).  parse -> dump -> parse is the identity on the
normalized form.  `gamma` applies to `power` only.  tau0 and M0 are not
keys: the solver derives them from the datum and the closure.

RunConfig's field list is the only description of the format: each
field's metadata names its section (and its key, where that differs from
the field name), and its annotation picks the text codec.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .core import Grid, InitialData, Piece
from .errors import ConfigError
from .iteration import SlabConfig
from .model import VelocityModel, make_model


def format_number(x: float) -> str:
    return f"{float(x):.17g}"


def parse_pieces(text: str):
    """Parse the semicolon-separated piece list; blank text means none."""
    pieces = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"piece {chunk!r} must have 3 numbers (constant) or 4 "
                "(linear ramp)")
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"piece {chunk!r}: {exc}") from exc
        if len(nums) == 3:
            pieces.append(Piece.const(*nums))
        else:
            pieces.append(Piece(*nums))
    return tuple(pieces)


def dump_pieces(pieces) -> str:
    out = []
    for p in pieces:
        nums = [p.x_left, p.x_right, p.v_left]
        if p.v_right != p.v_left:
            nums.append(p.v_right)
        out.append(" ".join(format_number(n) for n in nums))
    return " ; ".join(out)


def _ini(section: str, default, key: str | None = None):
    """A RunConfig field stored as `key` (default: the field name) in
    `[section]`."""
    return field(default=default, metadata={"section": section, "key": key})


def _key(f) -> str:
    return f.metadata["key"] or f.name


@dataclass
class RunConfig:
    """Everything one solve needs, mirroring the INI sections.

    The slab fields take their defaults from SlabConfig; slab() passes
    them through by name.
    """

    model_name: str = _ini("model", "greenshields", key="name")
    gamma: float = _ini("model", 1.0)
    x_min: float = _ini("grid", -4.0)
    x_max: float = _ini("grid", 4.0)
    n_cells: int = _ini("grid", 256)
    rho_pieces: tuple = _ini("initial", ())
    psi_pieces: tuple = _ini("initial", ())
    z_inf: float = _ini("initial", 0.0)
    u_inf: float = _ini("initial", 1.0)
    t_final: float = _ini("slab", 1.0)
    tol_phi: float | None = _ini("slab", SlabConfig.tol_phi)
    max_picard_iters: int = _ini("slab", SlabConfig.max_picard_iters)
    cfl: float = _ini("slab", SlabConfig.cfl)
    snapshots_per_slab: int = _ini("slab", SlabConfig.snapshots_per_slab)
    entropy_levels: int = _ini("slab", SlabConfig.entropy_levels)
    n_output: int = _ini("output", 32)
    out_dir: str = _ini("output", "", key="dir")
    write_snapshots: bool = _ini("output", True)
    write_plot: bool = _ini("output", True)
    audit: bool = _ini("checks", True)

    def grid(self) -> Grid:
        return Grid(self.x_min, self.x_max, self.n_cells)

    def data(self) -> InitialData:
        return InitialData(rho_pieces=self.rho_pieces,
                           psi_pieces=self.psi_pieces,
                           z_inf=self.z_inf, u_inf=self.u_inf)

    def model(self) -> VelocityModel:
        return make_model(self.model_name, self.gamma)

    def slab(self) -> SlabConfig:
        return SlabConfig(**{f.name: getattr(self, f.name)
                             for f in fields(SlabConfig)})


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "on", "true", "yes"):
        return True
    if val in ("0", "off", "false", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


# (parse, dump) per value kind, keyed by the RunConfig field annotation
_CODECS = {
    "str": (str.strip, str),
    "float": (float, format_number),
    "float | None": (float, format_number),
    "int": (int, str),
    "bool": (_parse_bool, lambda b: "on" if b else "off"),
    "tuple": (parse_pieces, dump_pieces),
}


def parse_config_text(text: str) -> RunConfig:
    """Parse INI text; a missing or blank value leaves the field's default."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    if parser.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    schema = {}
    for f in fields(RunConfig):
        schema.setdefault(f.metadata["section"], {})[_key(f)] = f
    for sec_name in parser.sections():
        if sec_name not in schema:
            raise ConfigError(f"unknown config section [{sec_name}]")
        extra = sorted(set(parser[sec_name]) - set(schema[sec_name]))
        if extra:
            raise ConfigError(
                f"unknown key(s) in [{sec_name}]: {', '.join(extra)}")
    values = {}
    for sec_name, keys in schema.items():
        if not parser.has_section(sec_name):
            continue
        sec = parser[sec_name]
        for key, f in keys.items():
            raw = sec.get(key)
            if raw is None or not raw.strip():
                continue
            try:
                values[f.name] = _CODECS[f.type][0](raw)
            except (ConfigError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"[{sec_name}] {key} = {raw!r}: {exc}") from exc
    return RunConfig(**values)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def dump_config_text(cfg: RunConfig) -> str:
    """Normalized INI text.  None and blank-string values are left out:
    they read back as the default."""
    lines = []
    section = None
    for f in fields(RunConfig):
        if f.metadata["section"] != section:
            if section is not None:
                lines.append("")
            section = f.metadata["section"]
            lines.append(f"[{section}]")
        val = getattr(cfg, f.name)
        if val is not None and val != "":
            lines.append(f"{_key(f)} = {_CODECS[f.type][1](val)}")
    return "\n".join(lines) + "\n"


def config_from_scenario(scn) -> RunConfig:
    """RunConfig equivalent of a shipped scenario."""
    return RunConfig(
        x_min=scn.grid.x_min, x_max=scn.grid.x_max,
        n_cells=scn.grid.n_cells,
        rho_pieces=scn.data.rho_pieces, psi_pieces=scn.data.psi_pieces,
        z_inf=scn.data.z_inf, u_inf=scn.data.u_inf,
        t_final=scn.t_final)


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Copy cfg with known fields set from a flag dict; None values skipped."""
    known = {f.name for f in fields(RunConfig)}
    updates = {}
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in known:
            raise ConfigError(f"unknown config override {key!r}")
        updates[key] = val
    return replace(cfg, **updates)
