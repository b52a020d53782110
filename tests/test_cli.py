import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from momentflow import scenarios
from momentflow.cdvm import dv_run
from momentflow.cli import build_parser, main
from momentflow.moments import read_snapshot, snapshot_table, write_table
from momentflow.scenarios import COUETTE_WALL_SPEED, POISEUILLE_FORCE
from momentflow.solver1d import run as nrxx_run


# ---------------------------------------------------------------------------
# presets


def test_shock_preset_values():
    sc = scenarios.preset("shock")
    assert (sc.y_lo, sc.y_hi) == (-5.0, 0.0)
    assert sc.u0 == (0.0, 0.5, 0.0)
    assert sc.kn == 0.5
    assert sc.t_end == 1.0
    assert sc.cells == 500
    assert sc.left_kind == "free" and sc.right_kind == "wall"
    assert sc.chi == 1.0 and sc.theta_wall_right == 1.0
    assert sc.limiter == "minmod"
    assert sc.dv_half_width == 10.0
    assert sc.cfl == 0.95


def test_couette_preset_values():
    sc = scenarios.preset("couette")
    assert (sc.y_lo, sc.y_hi) == (-0.5, 0.5)
    assert sc.u_wall_left == (-COUETTE_WALL_SPEED, 0.0, 0.0)
    assert sc.u_wall_right == (COUETTE_WALL_SPEED, 0.0, 0.0)
    assert COUETTE_WALL_SPEED == 0.6296
    assert sc.kn == 0.1
    assert sc.chi == 1.0
    assert sc.theta_wall_left == sc.theta_wall_right == 1.0
    assert sc.steady_tol is not None
    left = sc.wall("left")
    assert left.u_wall[0] == -0.6296


def test_poiseuille_preset_values():
    sc = scenarios.preset("poiseuille")
    assert sc.force == (POISEUILLE_FORCE, 0.0, 0.0)
    assert POISEUILLE_FORCE == 0.2555
    assert sc.kn == 0.1
    assert sc.u_wall_left == sc.u_wall_right == (0.0, 0.0, 0.0)


def test_preset_rejects_unknown_and_applies_overrides():
    with pytest.raises(ValueError):
        scenarios.preset("lid-cavity")
    sc = scenarios.preset("couette", chi=0.5, M=7)
    assert sc.chi == 0.5 and sc.M == 7
    assert sc.wall("right").chi == 0.5


# a short Couette run that every case below changes in one field
_SHORT = dict(M=3, cells=8, t_end=0.01, steady_tol=None)


@pytest.mark.parametrize("overrides, message", [
    (dict(u0=(0.0, 1.0)), "u0 must be a list of numbers of length 3, got (0.0, 1.0)"),
    (dict(M=3.0), "M must be an integer, got 3.0"),
    (dict(cells=8.0), "cells must be an integer, got 8.0"),
    (dict(M=None), "M must be an integer, got None"),
    (dict(kn="0.1"), "kn must be a number, got '0.1'"),
    (dict(cfl="0.5"), "cfl must be a number, got '0.5'"),
    (dict(chi=None), "chi must be a number, got None"),
    (dict(max_steps=True), "max_steps must be an integer, got True"),
    (dict(u0=("a", 0, 0)),
     "u0 must be a list of numbers of length 3, got ('a', 0, 0)"),
    (dict(dv_nodes=(12.0, 12, 12)),
     "dv_nodes must be a list of numbers of length 3, got (12.0, 12, 12)"),
    (dict(u_wall_left=(0, "x", 0)),
     "u_wall_left must be a list of numbers of length 3, got (0, 'x', 0)"),
    (dict(u0=((0, 1), 0, 0)),
     "u0 must be a list of numbers of length 3, got ((0, 1), 0, 0)"),
], ids=["u0-short", "M-float", "cells-float", "M-None", "kn-str", "cfl-str",
        "chi-None", "max_steps-bool", "u0-str", "dv_nodes-float",
        "u_wall_left-str", "u0-ragged"])
def test_preset_rejects_a_field_of_the_wrong_kind(overrides, message):
    # a config built in code is held to the kinds the config parser checks,
    # and every field's kind, a tuple's length too, is checked in one pass
    # before a solver class reads it
    with pytest.raises(ValueError) as err:
        scenarios.preset("couette", **{**_SHORT, **overrides})
    assert str(err.value) == message


@pytest.mark.parametrize("solver", ["nrxx", "cdvm"])
@pytest.mark.parametrize("overrides, message", [
    (dict(kn=-1.0), "Knudsen number must be positive"),
    (dict(chi=2.0), "accommodation chi must lie in [0, 1]"),
    (dict(force=(0.1,)), "force must be a list of numbers of length 3, got (0.1,)"),
    (dict(u_wall_left=(0.0, 1.0)),
     "u_wall_left must be a list of numbers of length 3, got (0.0, 1.0)"),
    (dict(t_end=None), "set an end time and/or a steady tolerance"),
], ids=["kn", "chi", "force-short", "u_wall-short", "no-stop"])
def test_preset_rejects_a_bad_run_option_with_the_run_config_message(
        solver, overrides, message):
    # the scenario builds its run config, so a bad shared run option fails
    # at construction, for either solver, with one message; a short tuple
    # fails the one-pass field-kind check before either solver's config
    with pytest.raises(ValueError) as err:
        scenarios.preset("couette", solver=solver, **{**_SHORT, **overrides})
    assert str(err.value) == message


@pytest.mark.parametrize("solver", ["nrxx", "cdvm"])
@pytest.mark.parametrize("overrides, message", [
    (dict(u_wall_right=(COUETTE_WALL_SPEED, 0.2, 0.0)),
     "the right wall moves along its normal, which neither solver supports"),
    (dict(y_lo=0.5, y_hi=0.5), "empty domain"),
    (dict(y_lo=0.5, y_hi=-0.5), "empty domain"),
    (dict(y_lo=-float("inf")), "infinite domain"),
    (dict(theta0=-1.0), "non-positive or non-finite temperature (-1.0) in cell 0"),
    (dict(rho0=0.0), "non-positive or non-finite density (0.0) in cell 0"),
    (dict(theta0=float("nan")),
     "non-positive or non-finite temperature (nan) in cell 0"),
], ids=["normal-wall", "zero-width", "reversed", "infinite", "theta-negative",
        "rho-zero", "theta-nan"])
def test_preset_rejects_a_bad_wall_or_slab_with_one_message_for_both_solvers(
        solver, overrides, message):
    # one rule per input, shared by both solvers: the run fails when the
    # config is built, with the same message whichever solver would run it
    with pytest.raises(ValueError) as err:
        scenarios.preset("couette", solver=solver, **{**_SHORT, **overrides})
    assert str(err.value) == message


@pytest.mark.parametrize("scenario, overrides, message", [
    ("poiseuille", {}, "force must be zero"),
    ("couette", dict(u_wall_right=(0.0, 0.2, 0.0)), "moves along its normal"),
], ids=["force", "normal-wall"])
def test_cdvm_scenario_builds_its_dv_run_config(scenario, overrides, message):
    # a body force or a wall moving along its normal fails when the cdvm
    # scenario is built, not when it is solved
    with pytest.raises(ValueError, match=message):
        scenarios.preset(scenario, solver="cdvm", **{**_SHORT, **overrides})


@pytest.mark.parametrize("scenario, solver, limiter", [
    ("couette", "nrxx", "central"), ("couette", "cdvm", "none"),
    ("custom", "cdvm", "none"), ("shock", "nrxx", "minmod"),
    ("shock", "cdvm", "minmod"),
])
def test_unset_limiter_is_the_default_of_the_solver_that_runs(
        scenario, solver, limiter):
    # one key for both solvers: unset, it is the running solver class's
    # default, and the shock sets minmod for both
    sc = scenarios.preset(scenario, solver=solver, **_SHORT)
    assert sc.limiter == limiter
    to_config = (scenarios.to_dv_config if solver == "cdvm"
                 else scenarios.to_run_config)
    assert to_config(sc).limiter == limiter


def test_preset_limiter_reaches_the_cdvm_run():
    # a cdvm preset with limiter="minmod" once ran upwind transport
    short = dict(solver="cdvm", cells=8, dv_nodes=(12, 12, 12), t_end=0.02,
                 steady_tol=None)
    upwind = scenarios.preset("couette", **short)
    sc = scenarios.preset("couette", limiter="minmod", **short)
    assert scenarios.to_dv_config(sc).limiter == "minmod"
    got = scenarios.solve(sc).snapshots[-1][1]
    config = replace(scenarios.to_dv_config(upwind), limiter="minmod")
    want = dv_run(scenarios.build_dv_field(upwind), config).snapshots[-1][1]
    np.testing.assert_array_equal(got, want)
    assert not np.array_equal(got, scenarios.solve(upwind).snapshots[-1][1])


def test_preset_rejects_a_single_cell():
    with pytest.raises(ValueError, match="need at least 2 cells"):
        scenarios.preset("couette", **{**_SHORT, "cells": 1})


# ---------------------------------------------------------------------------
# config files


def test_config_round_trip(tmp_path):
    # a '%' is read back as written, not as interpolation
    sc = scenarios.preset("poiseuille", M=4, cells=36,
                          out_dir=str(tmp_path / "x%dir"))
    path = tmp_path / "case.ini"
    scenarios.save_config(sc, str(path))
    back = scenarios.load_config(str(path))
    for f in fields(sc):
        assert getattr(back, f.name) == getattr(sc, f.name), f.name


@pytest.mark.parametrize("solver, limiter", [("nrxx", "central"),
                                             ("cdvm", "none")])
def test_config_records_the_resolved_limiter(tmp_path, solver, limiter):
    # the file holds the limiter the run used, so a rerun from it needs no
    # default of its own
    sc = scenarios.preset("couette", solver=solver, **_SHORT)
    path = tmp_path / "case.ini"
    scenarios.save_config(sc, str(path))
    assert ("\nlimiter = %s\n" % limiter) in path.read_text()
    assert scenarios.load_config(str(path)) == sc


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nscenario = couette\nturbulence_model = k-epsilon\n")
    with pytest.raises(ValueError, match="unknown config key"):
        scenarios.load_config(str(path))
    # the HLL signal speed factor is a solver constant, not a config field
    path.write_text("[run]\nscenario = couette\nsignal_speed_factor = 1.2\n")
    with pytest.raises(ValueError, match="unknown config key 'signal_speed_factor'"):
        scenarios.load_config(str(path))
    # the force kick has one step order, so a config saved with a splitting
    # key names it
    path.write_text("[run]\nscenario = poiseuille\nsplitting = lie\n")
    with pytest.raises(ValueError, match="unknown config key 'splitting'"):
        scenarios.load_config(str(path))
    # limiter is read by whichever solver runs, so the cdvm run's own key
    # of older files is gone
    path.write_text("[run]\nscenario = couette\nsolver = cdvm\n"
                    "dv_limiter = minmod\n")
    with pytest.raises(ValueError, match="unknown config key 'dv_limiter'"):
        scenarios.load_config(str(path))


def test_config_partial_file_fills_from_preset(tmp_path):
    path = tmp_path / "short.ini"
    path.write_text("[run]\nscenario = shock\nM = 4\ncells = 40\n")
    sc = scenarios.load_config(str(path))
    assert sc.M == 4 and sc.cells == 40
    assert sc.kn == 0.5 and sc.u0 == (0.0, 0.5, 0.0)   # from the shock preset


# ---------------------------------------------------------------------------
# parser


def test_parser_accepts_documented_flags():
    p = build_parser()
    args = p.parse_args(
        [
            "run", "--scenario", "couette", "--solver", "cdvm", "--M", "6",
            "--kn", "0.5", "--pr", "0.9", "--chi", "0.7", "--cells", "64",
            "--tend", "2.5", "--steady-tol", "1e-7", "--max-steps", "99",
            "--limiter", "minmod", "--snapshot-interval", "25",
            "--dv-nodes", "16", "24", "16", "--dv-half-width", "9",
            "--out", "somewhere", "--threads", "2",
        ]
    )
    assert args.command == "run" and args.threads == 2
    # a run flag holds its text, which the run reads as a config file's
    # value, the words of a tuple joined
    assert (args.solver, args.M, args.kn) == ("cdvm", "6", "0.5")
    assert args.dv_nodes == ["16", "24", "16"]
    # every flag but --config and --threads is named by its config field
    known = {f.name: f for f in fields(scenarios.ScenarioConfig)}
    assert set(vars(args)) - {"command", "config", "threads"} <= set(known)
    assert (args.t_end, args.out_dir) == ("2.5", "somewhere")
    assert scenarios.parse_value(known["M"], args.M) == 6
    assert scenarios.parse_value(known["t_end"], args.t_end) == 2.5
    assert (scenarios.parse_value(known["dv_nodes"], " ".join(args.dv_nodes))
            == (16, 24, 16))
    args = p.parse_args(["compare", "a.csv", "b.csv"])
    assert args.norm == "l2rel"
    # the force kick has one step order, so there is no splitting flag
    with pytest.raises(SystemExit):
        p.parse_args(["run", "--splitting", "lie"])


def test_main_without_command_prints_help(capsys):
    assert main([]) == 2
    assert "run" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run subcommand


def test_run_couette_writes_outputs(tmp_path, capsys):
    out = tmp_path / "case"
    rc = main(
        [
            "run", "--scenario", "couette", "--M", "3", "--cells", "12",
            "--tend", "0.6", "--snapshot-interval", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "config.ini").exists()
    assert (out / "final.csv").exists()
    assert (out / "run_log.txt").exists()
    assert (out / "snapshot_0000.csv").exists()
    assert (out / "residual_history.csv").exists()
    prof = read_snapshot(str(out / "final.csv"))
    assert prof["y"].shape == (12,)
    assert np.all(np.isfinite(prof["theta"]))
    log = (out / "run_log.txt").read_text()
    assert "scenario=couette solver=nrxx" in log
    assert "couette/nrxx" in capsys.readouterr().out


def test_run_cdvm_smoke(tmp_path):
    out = tmp_path / "ref"
    rc = main(
        [
            "run", "--scenario", "couette", "--solver", "cdvm", "--cells", "8",
            "--tend", "0.02", "--dv-nodes", "12", "12", "12",
            "--dv-half-width", "6", "--out", str(out),
        ]
    )
    assert rc == 0
    prof = read_snapshot(str(out / "final.csv"))
    assert prof["rho"].shape == (8,)
    assert np.all(prof["rho"] > 0)
    assert "step 1 dt " in (out / "run_log.txt").read_text()


def test_run_to_its_end_time_does_not_warn(tmp_path, capsys):
    # --tend leaves the preset's steady tolerance set; stopping at the end
    # time before a steady state is what was asked, so nothing is reported
    # and the run converged
    rc = main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
               "--tend", "0.02", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    log = (tmp_path / "o" / "run_log.txt").read_text()
    assert "converged=True\n" in log
    # a run to an end time marches plainly, so no window restarts
    assert re.search(r"^steps=\d+ restarts=0 t=", log, re.M)


def test_steady_run_logs_its_steps_and_restarts(tmp_path, capsys):
    # no --tend: the preset's steady tolerance alone stops the mixed solve
    rc = main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    log = (tmp_path / "o" / "run_log.txt").read_text()
    assert re.search(r"^steps=\d+ restarts=\d+ t=\S+ converged=True$", log,
                     re.M)


def test_run_out_of_steps_warns(tmp_path, capsys):
    rc = main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
               "--max-steps", "3", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert ("warning: step budget exhausted before reaching steady state"
            in capsys.readouterr().err)
    assert "converged=False\n" in (tmp_path / "o" / "run_log.txt").read_text()


_DV_RUN = ["run", "--scenario", "couette", "--solver", "cdvm", "--cells", "8",
           "--dv-nodes", "12", "12", "12", "--tend", "0.05"]


def test_run_limiter_flag_sets_the_limiter_of_the_solver_that_runs(tmp_path,
                                                                   capsys):
    # one key for both solvers: --limiter and a config file's limiter both
    # reach the cdvm run, whose minmod table differs from the upwind one
    for limiter in ("none", "minmod"):
        out = tmp_path / limiter
        assert main(_DV_RUN + ["--limiter", limiter, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert ("\nlimiter = %s\n" % limiter) in (out / "config.ini").read_text()
    final = [(tmp_path / lim / "final.csv").read_bytes()
             for lim in ("none", "minmod")]
    assert final[0] != final[1]
    cfg = tmp_path / "minmod.ini"
    cfg.write_text("[run]\nscenario = couette\nsolver = cdvm\nlimiter = minmod\n"
                   "cells = 8\ndv_nodes = 12 12 12\nt_end = 0.05\n")
    out = tmp_path / "file"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "final.csv").read_bytes() == final[1]
    out = tmp_path / "nrxx"
    assert main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
                 "--tend", "0.02", "--limiter", "none", "--out", str(out)]) == 0
    assert "\nlimiter = none\n" in (out / "config.ini").read_text()


def test_run_cdvm_rejects_central_limiter(tmp_path, capsys):
    rc = main(_DV_RUN + ["--limiter", "central", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "limiter must be 'none' or 'minmod'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lines, option", [
    ("solver = cdvm\nlimiter = superbee\n", "error: limiter must be"),
    ("solver = cdvm\nM = 2\n", "moment order M"),
    ("solver = nrxx\ndv_nodes = 4 4 4\n", "at least 8 nodes"),
    ("solver = nrxx\ndv_half_width = 0\n", "half_width"),
], ids=["cdvm-limiter", "cdvm-M", "nrxx-dv_nodes", "nrxx-dv_half_width"])
def test_run_config_rejects_options_of_the_other_solver(tmp_path, capsys,
                                                        lines, option):
    # an option only the other solver reads is still checked, so a config
    # file never records a value no run could use
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nscenario = couette\ncells = 8\nt_end = 0.02\n" + lines)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert option in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--scenario", "lid-cavity"], "scenario must be 'shock', 'couette', "
                                   "'poiseuille' or 'custom', got 'lid-cavity'"),
    (["--solver", "lbm"], "solver must be 'nrxx' or 'cdvm', got 'lbm'"),
    (["--limiter", "superbee"], "limiter must be 'none', 'central' or 'minmod'"),
], ids=["scenario", "solver", "limiter"])
def test_run_rejects_unknown_choices_with_the_config_message(tmp_path, capsys,
                                                             flags, message):
    out = tmp_path / "o"
    rc = main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
               "--tend", "0.02", "--out", str(out)] + flags)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_failure_exits_nonzero(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "missing.ini")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    # custom scenario with neither an end time nor a steady tolerance
    rc = main(["run", "--scenario", "custom", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert (capsys.readouterr().err
            == "error: set an end time and/or a steady tolerance\n")
    # a run that fails when its config is built or while it marches prints
    # one "error:" line and leaves no output directory
    out = tmp_path / "o"
    for lines, message in (
        ("u_wall_right = 0.6296 0.2 0.0\n",
         "the right wall moves along its normal, which neither solver supports"),
        ("solver = cdvm\ny_lo = 0.5\ny_hi = 0.5\n", "empty domain"),
        # the mixed state heats until dt no longer advances t
        ("M = 3\ncells = 2\ncfl = 0.475\nsteady_tol = 1e-10\n",
         r"step \d+ does not advance the time: dt = \S+ at t = \S+"),
    ):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nscenario = couette\n" + lines)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert re.fullmatch("error: %s\n" % message, capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--tend", "nan"], ["--tend", "-1"], ["--tend", "0"],
    ["--max-steps", "0"], ["--steady-tol", "nan"],
])
def test_run_rejects_stop_conditions_that_run_no_step(tmp_path, capsys, flags):
    rc = main(["run", "--scenario", "shock", "--M", "3", "--cells", "8",
               "--out", str(tmp_path / "o")] + flags)
    assert rc == 1
    captured = capsys.readouterr()
    assert "must be positive" in captured.err
    assert "steps" not in captured.out


def _run_setting(tmp_path, source, key, text):
    """Exit code of a Couette run into ``tmp_path``/o with ``key`` set to
    ``text`` by its flag (the words of a tuple as its words) or by a line
    of a config file."""
    argv = ["run", "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--scenario", "couette", "--" + key.replace("_", "-")]
        argv += text.split()
    else:
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nscenario = couette\n%s = %s\n" % (key, text))
        argv += ["--config", str(cfg)]
    return main(argv)


def _both_sources(cases, flags):
    """``cases`` (id, *values) from a config file under their ids, and
    those whose id begins with a key in ``flags`` also from that key's
    flag, under id-flag."""
    return ([pytest.param("config", *v, id=i) for i, *v in cases]
            + [pytest.param("flag", *v, id=i + "-flag") for i, *v in cases
               if i.split("-")[0] in flags])


@pytest.mark.parametrize("source, key, kind", _both_sources([
    ("M-an integer", "M", "an integer"),
    ("cells-an integer", "cells", "an integer"),
    ("kn-a number", "kn", "a number"),
    ("u0-a list of numbers", "u0", "a list of numbers of length 3"),
], flags=("M", "cells", "kn")))
def test_config_none_names_a_key_whose_default_is_not_none(tmp_path, capsys,
                                                           source, key, kind):
    # a flag's text is read as a config file's: each gives the same error
    cfg = tmp_path / "none.ini"
    cfg.write_text("[run]\nscenario = couette\n%s = none\n" % key)
    with pytest.raises(ValueError, match="%s must be %s, got None" % (key, kind)):
        scenarios.load_config(str(cfg))
    assert _run_setting(tmp_path, source, key, "none") == 1
    assert ("error: %s must be %s, got None\n" % (key, kind)
            == capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source, line, message", _both_sources([
    ("u0-short", "u0 = 0 1",
     "u0 must be a list of numbers of length 3, got (0.0, 1.0)"),
    ("force-scalar", "force = 0.1",
     "force must be a list of numbers of length 3, got (0.1,)"),
    ("dv_nodes-float", "dv_nodes = 12 12.5 12",
     "dv_nodes must be a list of numbers of length 3, got '12 12.5 12'"),
    ("kn-text", "kn = abc", "kn must be a number, got 'abc'"),
    ("cells-float", "cells = 2.5", "cells must be an integer, got '2.5'"),
], flags=("dv_nodes", "kn", "cells")))
def test_config_value_of_the_wrong_kind_names_the_key(tmp_path, capsys, source,
                                                      line, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nscenario = couette\n%s\n" % line)
    with pytest.raises(ValueError) as err:
        scenarios.load_config(str(cfg))
    assert str(err.value) == message
    key, text = (w.strip() for w in line.split("="))
    assert _run_setting(tmp_path, source, key, text) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "o").exists()


def test_steady_tol_flag_none_unsets_the_preset_tolerance(tmp_path, capsys):
    # "none" unsets a field whose default is None from a flag as from a file,
    # so the Couette preset runs to its end time alone
    out = tmp_path / "o"
    assert main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
                 "--tend", "0.05", "--steady-tol", "none", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "\nsteady_tol = none\n" in (out / "config.ini").read_text()
    assert "message: reached end time\n" in (out / "run_log.txt").read_text()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_snapshot_interval_is_rejected(tmp_path, capsys, source):
    out = tmp_path / "o"
    argv = ["run", "--scenario", "couette", "--M", "3", "--cells", "8",
            "--max-steps", "2", "--out", str(out)]
    if source == "flag":
        argv += ["--snapshot-interval", "-1"]
    else:
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nscenario = couette\nsnapshot_interval = -1\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert (capsys.readouterr().err
            == "error: snapshot_interval must be non-negative, got -1\n")
    assert not out.exists()


def test_config_none_is_none_where_the_default_is_none(tmp_path):
    cfg = tmp_path / "none.ini"
    cfg.write_text("[run]\nscenario = couette\nt_end = none\nsteady_tol = 1e-3\n")
    sc = scenarios.load_config(str(cfg))
    assert sc.t_end is None and sc.steady_tol == 1e-3


def test_run_scenario_flag_overrides_the_config_file(tmp_path, capsys):
    # --scenario is an override like every other flag: it picks the preset
    # under the file's keys and is what the run records
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nscenario = couette\nM = 3\ncells = 8\n")
    out = tmp_path / "o"
    rc = main(["run", "--config", str(cfg), "--scenario", "shock",
               "--tend", "0.02", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "shock/nrxx" in captured.out and captured.err == ""
    back = scenarios.load_config(str(out / "config.ini"))
    assert back.scenario == "shock" and back.M == 3 and back.cells == 8
    assert (back.y_lo, back.u0) == (-5.0, (0.0, 0.5, 0.0))   # shock preset
    assert "scenario=shock solver=nrxx" in (out / "run_log.txt").read_text()


@pytest.mark.parametrize("flags", [
    # no --tend: the preset's steady tolerance stops the Anderson-mixed
    # solve, and a run out of steps would warn
    ["--scenario", "couette", "--M", "3", "--cells", "40", "--max-steps", "300"],
    ["--scenario", "shock", "--solver", "cdvm", "--cells", "12",
     "--dv-nodes", "12", "12", "12", "--tend", "0.05"],
    # the minmod transport walk crosses the xi_2 = 0 plane of an odd axis
    ["--scenario", "couette", "--solver", "cdvm", "--cells", "8",
     "--dv-nodes", "12", "13", "12", "--tend", "0.02", "--limiter", "minmod"],
    _DV_RUN[1:],
], ids=["nrxx-couette-steady", "cdvm-shock", "cdvm-couette-minmod-odd",
        "cdvm-couette-upwind"])
def test_rerun_from_its_config_writes_the_same_final_csv(tmp_path, capsys,
                                                         flags):
    # config.ini holds all a run reads, a '%' in its directory too, and the
    # Anderson mix and the cdvm Newton (started from the correction a new
    # field stores) are deterministic: the rerun's final.csv is the same
    # byte for byte
    out, again = tmp_path / "run%1", tmp_path / "again"
    assert main(["run", "--out", str(out)] + flags) == 0
    assert capsys.readouterr().err == ""
    assert "converged=True\n" in (out / "run_log.txt").read_text()
    assert main(["run", "--config", str(out / "config.ini"),
                 "--out", str(again)]) == 0
    assert (again / "final.csv").read_bytes() == (out / "final.csv").read_bytes()


@pytest.mark.parametrize("solver", ["nrxx", "cdvm"])
def test_run_config_with_none_max_steps_exits_nonzero(tmp_path, capsys, solver):
    cfg = tmp_path / "none.ini"
    cfg.write_text("[run]\nscenario = couette\nsolver = %s\nmax_steps = none\n"
                   % solver)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "max_steps must be an integer, got None" in captured.err
    assert not (tmp_path / "o").exists()


def test_run_nan_state_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text("[run]\nscenario = shock\nM = 3\ncells = 20\nu0 = 0 nan 0\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_run_cdvm_with_body_force_exits_nonzero(tmp_path, capsys):
    # the DVM has no force term: a force-driven run must fail, not report a
    # steady state of a gas left at rest
    out = tmp_path / "o"
    rc = main(["run", "--scenario", "poiseuille", "--solver", "cdvm",
               "--cells", "8", "--dv-nodes", "12", "12", "12", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "force must be zero" in captured.err
    assert "steady state" not in captured.out
    assert not (out / "final.csv").exists()


def test_run_threads_flag_pins_environment(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    rc = main(
        [
            "run", "--scenario", "couette", "--M", "3", "--cells", "8",
            "--tend", "0.01", "--threads", "3", "--out", str(tmp_path / "t"),
        ]
    )
    assert rc == 0
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_snapshot_round_trip_reproduces_derived_columns(tmp_path):
    sc = scenarios.preset("couette", M=3, cells=10, t_end=0.1, steady_tol=None)
    grid = scenarios.build_grid(sc)
    nrxx_run(grid, scenarios.to_run_config(sc))
    table = snapshot_table(grid.centers, grid.u, grid.theta, grid.coeffs)
    path = tmp_path / "prof.csv"
    write_table(str(path), table)
    prof = read_snapshot(str(path))
    again = snapshot_table(grid.centers, grid.u, grid.theta, grid.coeffs)
    for j, name in enumerate(
        ("y", "rho", "u1", "u2", "u3", "theta", "sigma11", "sigma12", "sigma22",
         "q1", "q2")
    ):
        np.testing.assert_allclose(prof[name], again[:, j], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# compare subcommand


def _write_profile(path, y, **cols):
    base = {name: np.zeros_like(y) for name in
            ("rho", "u1", "u2", "u3", "theta", "sigma11", "sigma12", "sigma22",
             "q1", "q2")}
    base.update(cols)
    table = np.column_stack([y] + [base[k] for k in
                                   ("rho", "u1", "u2", "u3", "theta", "sigma11",
                                    "sigma12", "sigma22", "q1", "q2")])
    write_table(str(path), table)


def test_compare_identical_files(tmp_path, capsys):
    y = np.linspace(-0.45, 0.45, 10)
    _write_profile(tmp_path / "a.csv", y, rho=1.0 + 0.1 * y)
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "a.csv")]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 11         # ten columns plus the max line
    assert lines[-1].startswith("max")
    assert "0.000000e+00" in lines[-1]


def test_compare_one_row_profile(tmp_path, capsys):
    # a one-row file reads back as 1-d columns, not 0-d scalars
    _write_profile(tmp_path / "one.csv", np.array([0.25]), rho=np.ones(1))
    assert main(["compare", str(tmp_path / "one.csv"), str(tmp_path / "one.csv")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.endswith(" 0.000000e+00") for line in lines)


def test_compare_norms(tmp_path, capsys):
    y = np.linspace(-0.45, 0.45, 10)
    _write_profile(tmp_path / "a.csv", y, u1=np.full(10, 1.5))
    _write_profile(tmp_path / "b.csv", y, u1=np.full(10, 1.0))
    for norm, want in (
        ("linf", 0.5),
        ("l2", 0.5 * np.sqrt(10.0)),
        ("l2rel", 0.5 * np.sqrt(10.0) / np.sqrt(10.0)),
    ):
        rc = main(
            ["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
             "--norm", norm, "--columns", "u1"]
        )
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        got = float(line.split()[-1])
        assert got == pytest.approx(want, rel=1e-6)
    # a NaN cell, which snapshot_table writes so that it shows, makes its
    # column's norm NaN and the max line NaN too
    u1 = np.full(10, 1.5)
    u1[3] = np.nan
    _write_profile(tmp_path / "nan.csv", y, u1=u1)
    for norm in ("linf", "l2", "l2rel"):
        assert main(["compare", str(tmp_path / "nan.csv"),
                     str(tmp_path / "b.csv"), "--norm", norm]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["rho", norm, "0.000000e+00"]
        assert lines[1].split()[-1] == lines[-1].split()[-1] == "nan"


def test_compare_interpolates_between_grids(tmp_path, capsys):
    ya = np.linspace(-0.4, 0.4, 9)
    yb = np.linspace(-0.5, 0.5, 33)
    _write_profile(tmp_path / "a.csv", ya, u1=2.0 * ya)
    _write_profile(tmp_path / "b.csv", yb, u1=2.0 * yb)
    rc = main(
        ["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
         "--columns", "u1", "--norm", "linf"]
    )
    assert rc == 0
    got = float(capsys.readouterr().out.strip().splitlines()[0].split()[-1])
    assert got <= 1e-14


def test_compare_missing_column(tmp_path, capsys):
    y = np.linspace(0.0, 1.0, 5)
    with open(tmp_path / "thin.csv", "w") as fh:
        fh.write("y,rho\n")
        for yy in y:
            fh.write("%r,%r\n" % (yy, 1.0))
    _write_profile(tmp_path / "full.csv", y)
    rc = main(
        ["compare", str(tmp_path / "thin.csv"), str(tmp_path / "full.csv")]
    )
    assert rc == 1
    assert "missing column" in capsys.readouterr().err


def test_compare_missing_file_exits_nonzero(tmp_path, capsys):
    # the one error path of every command: a message on stderr, exit 1
    rc = main(["compare", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.csv" in err
    assert "Traceback" not in err
