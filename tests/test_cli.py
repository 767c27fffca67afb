"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "HPCA 2003" in out
    assert "specjbb" in out and "ecperf" in out
    assert "fig16" in out


def test_unknown_figure_id(capsys):
    assert main(["figures", "fig99", "--quick"]) == 2
    # Diagnostics go to stderr; stdout stays clean for figure output.
    assert "unknown figure" in capsys.readouterr().err


def test_characterize_quick(capsys):
    assert main(["characterize", "specjbb", "-p", "2", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "specjbb on 2 processors" in out
    assert "CPI (total)" in out


def test_single_figure_quick(capsys):
    assert main(["figures", "fig11"]) in (0, 1)
    out = capsys.readouterr().out
    assert "fig11" in out
    assert "paper:" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_help_names_every_subcommand():
    """The module docstring is ``jmmw --help``'s description, so it
    must list every subcommand the parser accepts."""
    import argparse

    import repro.cli

    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    missing = [
        name for name in subparsers.choices
        if f"jmmw {name}" not in repro.cli.__doc__
    ]
    assert not missing, f"jmmw --help does not name: {missing}"


def test_loadplane_tiny_ladder(capsys):
    assert main([
        "loadplane", "--users", "4", "16", "--threads", "2",
        "--windows", "3", "--window-s", "0.5", "--no-cache", "--no-plot",
    ]) == 0
    out = capsys.readouterr().out
    assert "saturation sweep:" in out
    assert "bottleneck: threads" in out
    assert "measured knee:" in out
    assert "*=measured" not in out  # --no-plot suppresses the curve


def test_loadplane_bad_config_exits_2(capsys):
    assert main(["loadplane", "--users", "0", "--no-cache"]) == 2
    assert "bad sweep configuration" in capsys.readouterr().err
    assert main(["loadplane", "--users", "8", "8", "--no-cache"]) == 2
    assert "distinct" in capsys.readouterr().err


def test_loadplane_ecperf_reports_conn_utilization(capsys):
    assert main([
        "loadplane", "--workload", "ecperf", "--users", "64",
        "--threads", "8", "--connections", "1", "--windows", "3",
        "--window-s", "0.5", "--no-cache", "--no-plot",
    ]) == 0
    out = capsys.readouterr().out
    # With one connection under ECperf load the DB stage shows up.
    assert "workload=ecperf" in out
    assert "U_conn" in out
