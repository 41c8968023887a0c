"""Run-configuration parsing, dumping, and construction hooks."""
from dataclasses import fields

import pytest

from garzfv import (Grid, GreenshieldsModel, Piece, PowerLawModel,
                    SlabConfig, scenario)
from garzfv.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_scenario,
    dump_config_text,
    dump_pieces,
    parse_config_text,
    parse_pieces,
)


def test_pieces_round_trip():
    text = "-4 0 0.2; 0 1 0.8 0.1; 1 4 0.3"
    pieces = parse_pieces(text)
    assert len(pieces) == 3
    assert pieces[0].v_left == pieces[0].v_right == 0.2
    assert pieces[1].v_left == 0.8 and pieces[1].v_right == 0.1
    again = parse_pieces(dump_pieces(pieces))
    assert again == pieces


def test_pieces_parse_errors():
    with pytest.raises(ConfigError):
        parse_pieces("0 1")
    with pytest.raises(ConfigError):
        parse_pieces("0 1 0.5 0.6 0.7")
    with pytest.raises(ConfigError):
        parse_pieces("a b c")


def test_config_round_trip_for_all_scenarios():
    for name in ("constant", "shock", "rarefaction", "smoke", "vacuum"):
        cfg = config_from_scenario(scenario(name))
        text = dump_config_text(cfg)
        back = parse_config_text(text)
        assert back == cfg
        # normalization is idempotent
        assert dump_config_text(back) == text


def test_config_builds_runtime_objects():
    cfg = config_from_scenario(scenario("smoke"))
    grid = cfg.grid()
    assert isinstance(grid, Grid) and grid.n_cells == cfg.n_cells
    data = cfg.data()
    assert data.u_inf == pytest.approx(1.0)
    assert isinstance(cfg.model(), GreenshieldsModel)
    slab = cfg.slab()
    assert slab.cfl == cfg.cfl


def test_power_model_config():
    cfg = config_from_scenario(scenario("shock"))
    cfg2 = apply_overrides(cfg, {"model_name": "power", "gamma": 2.0})
    assert isinstance(cfg2.model(), PowerLawModel)
    assert cfg2.model().gamma == 2.0
    # original untouched
    assert cfg.model_name == "greenshields"


def test_parse_rejects_malformed_input():
    with pytest.raises(ConfigError):
        parse_config_text("not an ini file at all [")
    cfg = config_from_scenario(scenario("constant"))
    text = dump_config_text(cfg).replace("n_cells = 256", "n_cells = zero")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "n_cells" in str(err.value)


def test_parse_rejects_unknown_keys():
    cfg = config_from_scenario(scenario("constant"))
    text = dump_config_text(cfg).replace("[grid]", "[grid]\nwarp = 9")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "warp" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config_text("[mystery]\nx = 1\n")


def test_apply_overrides_validates_fields():
    cfg = config_from_scenario(scenario("constant"))
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"nonsense_field": 1})
    out = apply_overrides(cfg, {"t_final": 0.5, "n_cells": 128, "cfl": None})
    assert out.t_final == 0.5 and out.n_cells == 128
    assert out.cfl == cfg.cfl


def test_runconfig_defaults_are_sane():
    cfg = config_from_scenario(scenario("rarefaction"))
    assert isinstance(cfg, RunConfig)
    assert cfg.tau0 is None and cfg.m0 is None and cfg.tol_phi is None
    assert cfg.cfl == 0.5
    assert cfg.n_output >= 2


def test_config_round_trip_with_every_optional_value():
    cfg = RunConfig(
        model_name="power", gamma=2.0, n_cells=300,
        rho_pieces=(Piece(-4.0, 0.0, 0.1, 0.6), Piece.const(0.0, 4.0, 0.3)),
        psi_pieces=(Piece(-1.0, 1.0, 0.25, -0.5),), z_inf=0.125,
        tau0=0.3, m0=7.5, tol_phi=1e-3, max_picard_iters=9, cfl=0.45,
        snapshots_per_slab=12, entropy_levels=0, n_output=7,
        out_dir="runs-a", write_snapshots=False, write_plot=False,
        audit=False)
    text = dump_config_text(cfg)
    assert "name = power" in text and "dir = runs-a" in text
    assert "tau0 = 0.29999999999999999" in text
    assert "write_snapshots = off" in text and "audit = off" in text
    back = parse_config_text(text)
    assert back == cfg
    assert dump_config_text(back) == text


def test_blank_value_means_default():
    # every key of every section, each with its value blanked
    text = dump_config_text(RunConfig(tau0=0.5, m0=3.0, tol_phi=1e-2,
                                      out_dir="here"))
    blank = "\n".join(line.split("=")[0] + "=" if "=" in line else line
                      for line in text.splitlines())
    assert blank.count(" =") == len(fields(RunConfig))
    assert parse_config_text(blank) == RunConfig()
    assert parse_config_text("[model]\nname =\n").model_name \
        == "greenshields"


@pytest.mark.parametrize("section,key,bad", [
    ("grid", "n_cells", "12.5"),
    ("grid", "x_min", "left"),
    ("slab", "tol_phi", "small"),
    ("output", "write_plot", "maybe"),
    ("initial", "rho_pieces", "0 1"),
])
def test_bad_value_names_section_and_key(section, key, bad):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[{section}]\n{key} = {bad}\n")
    assert f"[{section}] {key} = {bad!r}" in str(err.value)


def test_slab_passes_every_slab_field_through():
    assert RunConfig().slab() == SlabConfig()
    custom = dict(tau0=0.2, m0=5.0, tol_phi=1e-4, max_picard_iters=7,
                  cfl=0.3, snapshots_per_slab=5, entropy_levels=2)
    assert set(custom) == {f.name for f in fields(SlabConfig)}
    assert RunConfig(**custom).slab() == SlabConfig(**custom)
