"""CLI parsing, exit codes, file output, and determinism tests."""

import ast
import contextlib
import dataclasses
import errno
import io
import itertools
import json
import os
import stat
from decimal import Decimal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riemannmesh import CharismaKind, DomainGrid, IndexedFunction, JobSpec, parse_args, root_indices, run
from riemannmesh import cli, formats
from riemannmesh.cli import EXIT_DOMAIN, EXIT_INCOMPATIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE, FIGURE_PRESETS, main
from riemannmesh.formats import read_ply

ROOT3 = IndexedFunction.root(3)
FAST_GRID = ["--n-r", "3", "--n-theta", "8", "--r-min", "0.5", "--r-max", "2"]


class TestParseArgs:
    def test_defaults(self):
        job = parse_args([])
        assert job.function == ROOT3
        assert job.kind is CharismaKind.SIN
        assert job.branches == (-1, 0, 1)
        assert job.grid == DomainGrid(0.05, 2.0, 40, 240)
        assert job.weld and not job.walls
        assert job.fmt == "ply"
        assert job.output == Path("root3_sin.ply")

    def test_log_defaults_to_five_branch_window(self):
        job = parse_args(["--function", "log", "--charisma", "imag"])
        assert job.branches == (-2, -1, 0, 1, 2)
        assert job.output == Path("log_imag.ply")

    def test_branch_range_intersected_with_admissible_set(self):
        job = parse_args(["--branches", "-5..0"])
        assert job.branches == (-1, 0)
        single = parse_args(["--branches", "1"])
        assert single.branches == (1,)

    @pytest.mark.parametrize("window", ["7..9", "5..9", "-9..-2"])
    def test_empty_branch_intersection_is_usage_error(self, capsys, window):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--branches", window])
        assert exc.value.code == EXIT_USAGE
        assert f"argument --branches: no admissible branch of root:3 in {window!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["root:2", "root:3", "root:4", "root:5", "root:6", "log"])
    def test_every_small_window_matches_the_admissible_filter(self, capsys, label):
        function = IndexedFunction.from_label(label)
        for lo, hi in itertools.combinations_with_replacement(range(-5, 6), 2):
            argv = ["--function", label, "--charisma", "index", "--branches", f"{lo}..{hi}"]
            want = tuple(k for k in range(lo, hi + 1) if function.is_log or k in root_indices(function.n))
            if want:
                assert parse_args(argv).branches == want
            else:
                with pytest.raises(SystemExit) as exc:
                    parse_args(argv)
                assert exc.value.code == EXIT_USAGE
                assert f"no admissible branch of {label} in '{lo}..{hi}'" in capsys.readouterr().err

    def test_a_root_window_costs_nothing_for_its_width(self):
        # the window is intersected with root_indices(3), not scanned
        code = "from riemannmesh import parse_args; print(parse_args(['--branches', '-1000000000000..1000000000000']).branches)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(-1, 0, 1)"

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--function", "log", "--charisma", "imag", "--branches", "-1000000000000..1000000000000"], "--branches"),
            (["--function", "log", "--charisma", "imag", "--branches", f"-{10**40}..{10**40}"], "--branches"),
            (["--function", "log", "--charisma", "imag", "--n-r", "1000", "--n-theta", "1000"], "--branches"),
            (["--function", "root:100000", "--charisma", "index"], "--function"),
            (["--function", f"root:{10**30}", "--charisma", "index"], "--function"),
            (["--function", "root:4", "--n-r", "1000", "--n-theta", "1000"], "--function"),
            (["--function", "root:100000", "--charisma", "index", "--branches", "0..400"], "--branches"),
        ],
        ids=["log-1e12", "log-1e40", "log-default-window", "root-1e5", "root-1e30", "root-4-large-grid",
             "root-window"],
    )
    def test_a_surface_beyond_the_cap_is_a_usage_error_naming_its_flag(self, capsys, argv, flag):
        # counted from the window's ends: run in a child so a materialised
        # window would show as a timeout or a memory error, not as a slow test
        code = f"from riemannmesh import parse_args; parse_args({argv!r})"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert f"error: argument {flag}: " in proc.stderr and "a surface holds at most 3145728" in proc.stderr

    def test_the_cap_admits_a_surface_at_its_edge(self):
        # 326 sheets of 40x241 lattice points are 3,142,640 vertices, 327 are 3,152,280
        assert len(parse_args(["--function", "log", "--charisma", "imag", "--branches", "0..325"]).branches) == 326
        with pytest.raises(SystemExit):
            parse_args(["--function", "log", "--charisma", "imag", "--branches", "0..326"])
        assert len(parse_args(["--function", "root:326", "--charisma", "index"]).branches) == 326
        with pytest.raises(SystemExit):
            parse_args(["--function", "root:327", "--charisma", "index"])

    def test_an_incompatible_pair_is_left_to_build_sheets(self, tmp_path, capsys):
        # parse_args raises only SystemExit; the pair is build_sheets' rule, and run maps it to 3
        job = parse_args(["--function", "log", "--charisma", "sin"])
        assert (job.function, job.kind) == (IndexedFunction.log(), CharismaKind.SIN)
        # so a flag fault exits 2 first
        assert main(["--function", "log", "--charisma", "sin", "--n-r", "1"]) == EXIT_USAGE
        assert "argument --n-r: " in capsys.readouterr().err
        # a window beyond int64 is a flag fault too, so it exits 2, not 3
        argv = ["--function", "log", "--charisma", "sin", "--branches", "100000000000000000000", *FAST_GRID]
        assert main([*argv, "-o", str(tmp_path / "m.ply")]) == EXIT_USAGE
        assert "argument --branches: branch 100000000000000000000 lies outside int64" in capsys.readouterr().err
        # a window parse_args accepts leaves the pair to build_sheets
        argv = ["--function", "log", "--charisma", "sin", "--branches", "9223372036854775807", *FAST_GRID]
        assert main([*argv, "-o", str(tmp_path / "m.ply")]) == EXIT_INCOMPATIBLE
        assert "not defined for log" in capsys.readouterr().err
        # a range chart has no heights, so no pair
        argv = ["--figure", "3b-range", "--function", "log", "--charisma", "sin", *FAST_GRID]
        assert main([*argv, "-o", str(tmp_path / "chart.ply")]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chart.ply", "chart.seams.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--function", "log", "--branches", "9007199254740992..9007199254740994"],
            ["--function", "root:1152921504606846976", "--branches", "576460752303423486..576460752303423488"],
        ],
        ids=["log-2**53", "root-2**60"],
    )
    def test_an_index_window_whose_branches_share_a_height_is_a_usage_error(self, capsys, argv):
        # from |k| = 2**53 two branches may round to one float; welded, their sheets would be one
        with pytest.raises(SystemExit) as exc:
            parse_args([*argv, "--charisma", "index", "--walls"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: argument --branches: two branches of " in err and "share one index height" in err

    def test_an_imag_window_whose_heights_do_not_resolve_the_angular_step_is_a_usage_error(self, tmp_path, capsys):
        # its heights are 1.0 apart: one seam read open at a gap of 1.0 and the other welded at 0.0, and it exited 0
        argv = ["--function", "log", "--charisma", "imag", "--branches", "1000000000000000..1000000000000002"]
        assert main([*argv, "-o", str(tmp_path / "m.ply")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: argument --branches: the imag heights of branch 1000000000000002 are floats 1.0 apart" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "window,message",
        [
            ("2..1", "empty range '2..1'"),
            ("1..", "expected KMIN..KMAX or a single integer, got '1..'"),
            ("x", "expected KMIN..KMAX or a single integer, got 'x'"),
            # digits of other scripts, which \d and int() take: ARABIC-INDIC ONE and TWO, FULLWIDTH ONE
            ("١..٢", "expected KMIN..KMAX or a single integer, got '١..٢'"),
            ("١", "expected KMIN..KMAX or a single integer, got '١'"),
            ("-１..1", "expected KMIN..KMAX or a single integer, got '-１..1'"),
        ],
    )
    def test_a_malformed_branch_range_is_usage_error(self, capsys, window, message):
        assert main(["--branches", window, *FAST_GRID]) == EXIT_USAGE
        assert f"argument --branches: {message}\n" in capsys.readouterr().err

    def test_a_range_chart_parses_its_window_and_ignores_a_well_formed_one(self, tmp_path, capsys):
        out = tmp_path / "never.ply"
        argv = ["--figure", "3b-range", *FAST_GRID, "-o", str(out)]
        assert main([*argv, "--branches", "nonsense"]) == EXIT_USAGE
        assert "argument --branches: expected KMIN..KMAX or a single integer, got 'nonsense'\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert parse_args([*argv, "--branches", "7..9"]).branches == ()  # none of them admissible for root:3

    def test_bad_function_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--function", "root:one"])
        assert exc.value.code == EXIT_USAGE
        assert "--function" in capsys.readouterr().err

    # each is an integer to int(): a sign, spaces, an underscore, an ARABIC-INDIC DIGIT THREE
    @pytest.mark.parametrize("label", ["root:1_0", "root:+3", "root: 3", "root:3 ", "root:٣"], ids=repr)
    def test_a_root_degree_takes_ascii_digits_alone(self, capsys, label):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--function", label])
        assert exc.value.code == EXIT_USAGE
        assert f"argument --function: bad root degree in {label!r}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,flag_name",
        [
            (["--r-min", "0"], "--r-min"),
            (["--r-min", "3", "--r-max", "2"], "--r-max"),
            (["--n-r", "1"], "--n-r"),
            (["--n-theta", "4"], "--n-theta"),
            (["--n-r", "100000"], "--n-r"),
            (["--n-theta", "10000000"], "--n-theta"),
            (["--r-max", "nan"], "--r-max"),
            (["--r-min", "inf"], "--r-min"),
            # radii that repeat: fewer distinct floats between r_min and r_max than n_r
            (["--r-min", "1", "--r-max", "1.0000000000000002", "--n-r", "5"], "--r-max"),
            (["--r-min", "2.2250738585072014e-308", "--r-max", "2.2250738585072024e-308", "--n-r", "4",
              "--radial-spacing", "log"], "--r-max"),
            # below 2**-1022, r sin(-pi) rounds too coarsely for the theta = -pi column's phase to be -pi
            (["--r-min", "1e-318"], "--r-min"),
            (["--r-min", "5e-324", "--r-max", "1e-323", "--n-r", "4", "--radial-spacing", "log"], "--r-min"),
        ],
    )
    def test_grid_validation_names_the_flag(self, flags, flag_name, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(flags)
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag_name}: " in capsys.readouterr().err  # not just the usage line

    def test_figure_four_preset_matches_explicit_flags(self):
        assert parse_args(["--figure", "4"]) == parse_args(
            ["--function", "root:3", "--charisma", "sin"]
        )

    def test_figure_six_preset_matches_explicit_flags(self):
        assert parse_args(["--figure", "6"]) == parse_args(
            ["--function", "log", "--charisma", "imag", "--branches", "-2..2"]
        )

    def test_figure_presets_cover_the_documented_surfaces(self):
        fig3a = parse_args(["--figure", "3a"])
        assert fig3a.kind is CharismaKind.INDEX and fig3a.walls
        chart = parse_args(["--figure", "3b-range"])
        assert chart.range_chart and chart.output == Path("root3_range.ply")
        fig5 = parse_args(["--figure", "5"])
        assert fig5.kind is CharismaKind.COS

    def test_explicit_flags_override_preset(self):
        job = parse_args(["--figure", "4", "--format", "json", "--no-weld"])
        assert job.fmt == "json" and not job.weld
        assert job.output == Path("root3_sin.json")

    def test_an_explicit_flag_equal_to_the_default_beats_the_preset(self):
        # 3a turns walls on; --no-walls asks for the built-in default
        assert not parse_args(["--figure", "3a", "--no-walls"]).walls
        assert parse_args(["--figure", "6", "--function", "root:3", "--charisma", "sin"]) == parse_args(
            ["--branches", "-2..2"]
        )

    def test_weld_tolerance_flag(self):
        assert parse_args(["--weld-tol", "1e-6"]).weld_tol == 1e-6


class TestRun:
    def run_job(self, tmp_path, argv):
        out = tmp_path / "mesh.ply"
        code = main(argv + ["-o", str(out)])
        return code, out

    def test_writes_mesh_and_seam_sidecar(self, tmp_path):
        code, out = self.run_job(tmp_path, FAST_GRID)
        assert code == EXIT_OK
        assert out.exists()
        sidecar = out.with_suffix(".seams.json")
        assert sidecar.exists()
        doc = json.loads(sidecar.read_text())
        assert doc["schema"] == 1 and len(doc["seams"]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, first = self.run_job(tmp_path / "a", ["--figure", "4"] + FAST_GRID)
        _, second = self.run_job(tmp_path / "b", ["--figure", "4"] + FAST_GRID)
        assert first.read_bytes() == second.read_bytes()
        assert (
            first.with_suffix(".seams.json").read_bytes()
            == second.with_suffix(".seams.json").read_bytes()
        )

    def test_obj_writes_material_sidecar(self, tmp_path):
        out = tmp_path / "mesh.obj"
        assert main(FAST_GRID + ["--format", "obj", "-o", str(out)]) == EXIT_OK
        assert out.exists() and out.with_suffix(".mtl").exists()

    def test_json_and_csv_formats(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(FAST_GRID + ["--format", "json", "-o", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["sheets"] == [-1, 0, 1]
        out2 = tmp_path / "m.csv"
        assert main(FAST_GRID + ["--format", "csv", "-o", str(out2)]) == EXIT_OK
        assert out2.read_text().splitlines()[0] == "x,y,c,k"

    def test_ply_output_reparses(self, tmp_path):
        code, out = self.run_job(tmp_path, FAST_GRID)
        assert code == EXIT_OK
        data = read_ply(out.read_text())
        assert len(data.vertices) == 3 * 27 - 3 * 3  # welded sin surface
        assert len(data.faces) == 3 * 32

    def test_io_error_leaves_no_partial_output(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "mesh.ply"
        code = main(FAST_GRID + ["-o", str(missing)])
        assert code == EXIT_IO
        assert not missing.parent.exists()
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_target_exits_four_and_leaves_no_file(self, tmp_path, capsys):
        # os.replace onto the directory would fail only after the sidecar is renamed
        target = tmp_path / "outdir"
        target.mkdir()
        assert main(["--figure", "4", "--n-r", "4", "--n-theta", "8", "-o", str(target)]) == EXIT_IO
        assert "Is a directory" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [target]

    @pytest.mark.parametrize("fmt,name", [("ply", "x.seams.json"), ("obj", "x.mtl")])
    def test_a_directory_at_a_companion_path_exits_four_and_leaves_no_file(self, tmp_path, capsys, fmt, name):
        # render_outputs checks only the mesh path; _write_atomic checks each path before it stages it
        (tmp_path / name).mkdir()
        assert main([*FAST_GRID, "--format", fmt, "-o", str(tmp_path / f"x.{fmt}")]) == EXIT_IO
        assert "Is a directory" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [tmp_path / name]

    @pytest.mark.parametrize("output", [".", "", "/"])
    def test_a_directory_without_a_name_exits_four_and_leaves_no_file(self, tmp_path, capsys, monkeypatch, output):
        # a path with an empty name has no suffix to replace, so this must be refused before the sidecar is named
        monkeypatch.chdir(tmp_path)
        assert main(["--figure", "4", "--n-r", "4", "--n-theta", "8", "-o", output]) == EXIT_IO
        assert "Is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_files_sharing_a_path_exit_five_and_write_nothing(self, tmp_path, capsys):
        # an OBJ mesh and its material file would both be x.mtl
        out = tmp_path / "x.mtl"
        assert main([*FAST_GRID, "--format", "obj", "-o", str(out)]) == EXIT_DOMAIN
        assert "share a path" in capsys.readouterr().err
        job = JobSpec(ROOT3, CharismaKind.SIN, (-1, 0, 1), DomainGrid(0.5, 2.0, 3, 8), fmt="obj", output=out)
        assert run(job) == EXIT_DOMAIN
        assert list(tmp_path.iterdir()) == []

    def test_an_obj_whose_material_file_name_holds_whitespace_exits_five_and_writes_nothing(self, tmp_path, capsys):
        # "mtllib my surface.mtl" names two files to an OBJ reader; a PLY of that name has no such line
        out = tmp_path / "my surface.obj"
        assert main([*FAST_GRID, "--format", "obj", "-o", str(out)]) == EXIT_DOMAIN
        assert "'my surface.mtl' holds whitespace" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert main([*FAST_GRID, "--format", "ply", "-o", str(out.with_suffix(".ply"))]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["my surface.ply", "my surface.seams.json"]

    def test_usage_error_exits_before_writing(self, tmp_path, capsys):
        out = tmp_path / "never.ply"
        code = main(["--branches", "7..9", "-o", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_weld_tolerance_is_usage_error(self, tmp_path, capsys, tol):
        out = tmp_path / "never.ply"
        assert main([*FAST_GRID, "--weld-tol", tol, "-o", str(out)]) == EXIT_USAGE
        assert "--weld-tol" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_incompatibility_exit_code(self, capsys):
        assert main(["--function", "log", "--charisma", "sin"]) == EXIT_INCOMPATIBLE
        assert "not defined for log" in capsys.readouterr().err

    def test_domain_errors_propagate_as_exit_five(self, tmp_path, capsys):
        job = JobSpec(
            function=ROOT3,
            kind=CharismaKind.SIN,
            branches=(5,),  # inadmissible: bypasses CLI validation
            grid=DomainGrid(0.5, 2.0, 3, 8),
            output=tmp_path / "bad.ply",
        )
        assert run(job) == EXIT_DOMAIN
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "changes,code",
        [
            (dict(weld_tol=float("nan")), EXIT_DOMAIN),
            (dict(weld_tol=float("inf")), EXIT_DOMAIN),
            (dict(weld_tol=-1.0), EXIT_DOMAIN),
            (dict(weld_tol=None), EXIT_DOMAIN),
            (dict(fmt="stl"), EXIT_DOMAIN),
            (dict(kind=CharismaKind.IMAG), EXIT_INCOMPATIBLE),
            (dict(branches=(1.5,)), EXIT_DOMAIN),
            (dict(branches=()), EXIT_DOMAIN),
            (dict(branches=(0, 0)), EXIT_DOMAIN),
            (dict(function=IndexedFunction.log(), kind=CharismaKind.IMAG, branches=tuple(range(-80, 80)),
                  grid=DomainGrid(0.5, 2.0, 1000, 20)), EXIT_DOMAIN),
        ],
    )
    def test_hand_built_job_maps_every_invalid_value_to_an_exit_code(self, tmp_path, capsys, changes, code):
        job = JobSpec(
            function=ROOT3,
            kind=CharismaKind.SIN,
            branches=(-1, 0, 1),
            grid=DomainGrid(0.5, 2.0, 3, 8),
            output=tmp_path / "bad.ply",
        )
        assert run(dataclasses.replace(job, **changes)) == code
        assert capsys.readouterr().err.startswith("riemannmesh: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", ["build_mesh", "render_outputs"])
    def test_running_out_of_memory_exits_five(self, tmp_path, capsys, monkeypatch, stage):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, stage, exhausted)
        assert main([*FAST_GRID, "-o", str(tmp_path / "m.ply")]) == EXIT_DOMAIN
        assert "out of memory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_str_output_path_writes_the_mesh_and_its_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        job = JobSpec(ROOT3, CharismaKind.SIN, (-1, 0, 1), DomainGrid(0.5, 2.0, 3, 8), output="x.ply")
        assert run(job) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ply", "x.seams.json"]
        files = formats.render_outputs(cli.build_mesh(job), "ply", "x.ply", 1e-9)
        assert list(files) == [Path("x.ply"), Path("x.seams.json")]

    @pytest.mark.parametrize("tol", [Decimal("1e-9"), 0])
    def test_hand_built_weld_tolerance_is_written_as_a_float(self, tmp_path, tol):
        out = tmp_path / "m.ply"
        job = JobSpec(ROOT3, CharismaKind.SIN, (-1, 0, 1), DomainGrid(0.5, 2.0, 3, 8), weld_tol=tol, output=out)
        assert run(job) == EXIT_OK
        written = json.loads(out.with_suffix(".seams.json").read_text())["weld_tol"]
        assert type(written) is float and written == float(tol)

    @pytest.mark.parametrize("weld", [np.True_, 1], ids=["numpy-bool", "int"])
    def test_hand_built_weld_flag_is_written_as_a_bool(self, tmp_path, weld):
        out = tmp_path / "m.json"
        job = JobSpec(ROOT3, CharismaKind.SIN, (-1, 0, 1), DomainGrid(0.5, 2.0, 3, 8), weld=weld, fmt="json", output=out)
        assert run(job) == EXIT_OK
        for path in (out, out.with_suffix(".seams.json")):
            assert json.loads(path.read_text())["welded"] is True

    @pytest.mark.parametrize(
        "argv",
        [["--figure", "3b-range", "--function", "log", "--r-max", "1e20"]],
        ids=["log-range-chart"],
    )
    def test_an_index_beyond_int64_exits_five(self, tmp_path, capsys, argv):
        # a chart's indices are read off its grid: the range classifier refuses them, not the window reader
        assert main([*argv, "--n-r", "3", "--n-theta", "8", "-o", str(tmp_path / "m.ply")]) == EXIT_DOMAIN
        assert "int64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("branch", ["9223372036854775808", "-9223372036854775809"], ids=["log-branch", "log-below"])
    def test_a_window_beyond_int64_is_a_usage_error(self, tmp_path, capsys, branch):
        argv = ["--function", "log", "--charisma", "imag", "--branches", branch, "--n-r", "3", "--n-theta", "8"]
        assert main([*argv, "-o", str(tmp_path / "m.ply")]) == EXIT_USAGE
        assert f"argument --branches: branch {branch} lies outside int64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [[], ["--function", "log", "--charisma", "imag"]], ids=["root3-sin", "log-imag"])
    def test_an_r_max_beyond_2_to_the_1023_is_a_usage_error(self, tmp_path, capsys, argv):
        # at the largest float, abs of some lattice points overflowed (n_theta 239 among them)
        argv = [*argv, "--r-max", "1.7976931348623157e308", "--n-theta", "239", "--n-r", "4"]
        assert main([*argv, "-o", str(tmp_path / "m.ply")]) == EXIT_USAGE
        assert "argument --r-max: r_max must exceed r_min and be at most 2**1023" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_is_usage_error(self):
        assert main(["--walls-of-text"]) == EXIT_USAGE

    def test_figure_3a_adds_wall_quads(self, tmp_path):
        walled = tmp_path / "walled.ply"
        plain = tmp_path / "plain.ply"
        assert main(["--figure", "3a", *FAST_GRID, "-o", str(walled)]) == EXIT_OK
        assert main(["--figure", "3a", "--no-walls", *FAST_GRID, "-o", str(plain)]) == EXIT_OK
        n_walled = len(read_ply(walled.read_text()).faces)
        n_plain = len(read_ply(plain.read_text()).faces)
        assert n_walled == n_plain + 3 * 2 * (3 - 1)  # three seams, n_r = 3

    def test_figure_3b_range_chart(self, tmp_path):
        out = tmp_path / "chart.json"
        assert main(["--figure", "3b-range", *FAST_GRID, "--format", "json", "-o", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["chart"] == "range"
        assert doc["sheets"] == [-1, 0, 1]
        assert all(v["c"] == 0.0 for v in doc["vertices"])


class TestWriteAtomic:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def test_files_honour_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "m.obj"
        old = os.umask(umask)
        try:
            assert main(["--format", "obj", "-o", str(out), *FAST_GRID]) == EXIT_OK
        finally:
            os.umask(old)
        for name in ("m.obj", "m.seams.json", "m.mtl"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name

    def test_staging_never_touches_the_umask(self, tmp_path, monkeypatch):
        # setting the umask to read it would give a file another thread makes meanwhile mode 0o666
        def touched(*args):
            raise AssertionError("staging set the process umask")

        monkeypatch.setattr(os, "umask", touched)
        assert main(["--format", "obj", "-o", str(tmp_path / "m.obj"), *FAST_GRID]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mtl", "m.obj", "m.seams.json"]

    def test_writes_every_piece_byte_for_byte_as_it_comes(self, tmp_path):
        # pieces larger than any write buffer reach the staged file as each is
        # consumed, so joining them first would leave the file empty here
        piece = b"0.5 -0.0 1e-300 7\n" * 4000

        def pieces():
            yield b"ply 10\n"
            for i in range(3):
                yield piece
                if i:
                    (staged,) = tmp_path.glob(".a.ply.*.tmp")
                    assert staged.stat().st_size >= i * len(piece)
            yield b""
            yield b"end"

        cli._write_atomic({tmp_path / "a.ply": pieces(), tmp_path / "b.json": [b"{", b"}\n"]})
        assert (tmp_path / "a.ply").read_bytes() == b"ply 10\n" + 3 * piece + b"end"
        assert (tmp_path / "b.json").read_bytes() == b"{}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ply", "b.json"]

    def test_a_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def refused(src, dst):
            raise PermissionError(errno.EACCES, "refused", str(dst))

        monkeypatch.setattr(cli.os, "replace", refused)
        with pytest.raises(PermissionError):
            cli._write_atomic({tmp_path / "a.ply": [b"ply\n"], tmp_path / "b.json": [b"{}\n"]})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("link", [True, False], ids=["hard-link", "no-hard-link"])
    @pytest.mark.parametrize("old", [False, True], ids=["new-files", "over-old-files"])
    def test_a_failed_later_rename_leaves_the_directory_as_it_was(self, tmp_path, capsys, monkeypatch, old, link):
        out, sidecar = tmp_path / "m.ply", tmp_path / "m.seams.json"
        if old:
            out.write_bytes(b"old mesh\n")
            sidecar.write_bytes(b"old seams\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace, targets = os.replace, []

        def second_fails(src, dst):
            targets.append(dst)
            if len(targets) == 2:
                raise PermissionError(errno.EPERM, "refused", str(dst))
            replace(src, dst)

        def no_link(*args, **kwargs):
            raise PermissionError(errno.EPERM, "no hard links here")

        monkeypatch.setattr(cli.os, "replace", second_fails)
        if not link:
            monkeypatch.setattr(cli.os, "link", no_link)
        assert main([*FAST_GRID, "-o", str(out)]) == EXIT_IO
        assert "refused" in capsys.readouterr().err
        assert targets[:2] == [sidecar, out]  # the sidecar was renamed, then the mesh's rename failed
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_replacing_old_files_leaves_only_the_new_ones(self, tmp_path):
        for name in ("a.ply", "b.json"):
            (tmp_path / name).write_text("old\n")
        cli._write_atomic({tmp_path / "a.ply": [b"ply\n"], tmp_path / "b.json": [b"{}\n"]})
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.ply": "ply\n", "b.json": "{}\n"}

    @pytest.mark.parametrize("fmt,names", [("ply", (".ply", ".seams.json")), ("obj", (".obj", ".mtl", ".seams.json"))])
    @pytest.mark.parametrize("stem", ["a" * 240, "\u00e9" * 120], ids=["ascii", "two-byte"])
    def test_a_name_of_up_to_255_bytes_is_staged_under_a_name_that_fits(self, tmp_path, fmt, names, stem):
        # the 240-byte stem's files have names of 244 to 251 bytes; staging them as .{name}.{16 hex}.tmp, and
        # linking a replaced one as that plus .old, would pass 255 bytes, unless the staging name is cut
        assert len(os.fsencode(stem)) == 240
        for _ in range(2):  # the second run replaces every file of the first
            assert main([*FAST_GRID, "--format", fmt, "-o", str(tmp_path / f"{stem}.{fmt}")]) == EXIT_OK
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(stem + name for name in names)

    def test_a_companion_name_over_255_bytes_exits_four_and_leaves_no_file(self, tmp_path, capsys):
        # the mesh file's name, of 249 bytes, is legal; its sidecar's, of 256, is not
        assert main([*FAST_GRID, "-o", str(tmp_path / ("a" * 245 + ".ply"))]) == EXIT_IO
        assert "File name too long" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_write_leaves_no_file(self, tmp_path):
        # the files are written as bytes, so the text piece fails the second file
        pieces = {tmp_path / "a.ply": [b"ply\n"] * 9, tmp_path / "b.ply": [b"x" * 15, "not bytes"]}
        with pytest.raises(TypeError):
            cli._write_atomic(pieces)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "error,message", [(ValueError("bad piece"), "riemannmesh: bad piece\n"), (MemoryError(), "out of memory")]
    )
    def test_a_piece_raising_after_a_staged_file_leaves_no_file(self, tmp_path, capsys, monkeypatch, error, message):
        render = cli.render_outputs
        out = tmp_path / "m.ply"

        def failing(mesh, fmt, output, weld_tol):
            # the mesh file moves behind the fully staged sidecar and fails
            # after its first pieces are on disk
            files = render(mesh, fmt, output, weld_tol)
            pieces = files.pop(output)
            assert iter(pieces) is pieces

            def broken():
                yield from itertools.islice(pieces, 3)
                (sidecar,) = tmp_path.glob(".m.seams.json.*.tmp")
                (staged,) = tmp_path.glob(".m.ply.*.tmp")
                assert sidecar.stat().st_size > 0 and staged.stat().st_size > 0
                assert sorted(p.suffix for p in tmp_path.iterdir()) == [".tmp", ".tmp"]  # nothing renamed yet
                raise error

            files[output] = broken()
            return files

        monkeypatch.setattr(cli, "render_outputs", failing)
        # at the default grid a block of rows outgrows every write buffer
        assert run(parse_args(["-o", str(out)])) == EXIT_DOMAIN
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_non_finite_json_value_exits_five_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        build = cli.build_mesh

        def with_nan(job):
            mesh = build(job)
            # the last vertex's height, in the height table the mesh reads it from
            values, at = mesh.heights
            values = values.copy()
            sheet, point = divmod(int(mesh.source[-1]), at.size)
            values[sheet, at.reshape(-1)[point]] = float("nan")
            mesh.heights = (values, at)
            return mesh

        monkeypatch.setattr(cli, "build_mesh", with_nan)
        job = parse_args([*FAST_GRID, "--format", "json", "-o", str(tmp_path / "m.json")])
        # rendering is lazy: the value is refused while the file is staged
        cli.render_outputs(with_nan(job), job.fmt, job.output, job.weld_tol)
        assert run(job) == EXIT_DOMAIN
        assert "not JSON compliant" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRenderOutputs:
    @pytest.mark.parametrize("fmt", formats.FORMATS)
    def test_formats_alone_knows_the_formats_and_their_files(self, tmp_path, fmt):
        job = parse_args([*FAST_GRID, "--format", fmt, "-o", str(tmp_path / f"a.b.{fmt}")])
        files = formats.render_outputs(cli.build_mesh(job), fmt, job.output, job.weld_tol)
        mtl = [tmp_path / "a.b.mtl"] if fmt == "obj" else []
        assert list(files) == [job.output, *mtl, tmp_path / "a.b.seams.json"]
        (choices,) = [a.choices for a in cli._build_parser()._actions if a.dest == "format"]
        assert tuple(choices) == formats.FORMATS
        imported = [
            alias.name
            for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "formats"
            for alias in node.names
        ]
        assert imported and not [name for name in imported if name.startswith("_")]

    @pytest.mark.parametrize("fmt", ["ply", "obj", "json", "csv"])
    def test_the_mesh_file_is_a_lazy_iterator(self, tmp_path, fmt):
        job = parse_args([*FAST_GRID, "--format", fmt, "-o", str(tmp_path / f"m.{fmt}")])
        pieces = cli.render_outputs(cli.build_mesh(job), fmt, job.output, job.weld_tol)[job.output]
        assert not isinstance(pieces, (str, list, tuple))
        assert iter(pieces) is pieces

    @pytest.mark.parametrize("fmt", ["ply", "obj", "json", "csv"])
    def test_no_piece_holds_more_than_a_block_of_rows(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(formats, "_BLOCK_BYTES", 128)
        job = parse_args([*FAST_GRID, "--format", fmt, "-o", str(tmp_path / f"m.{fmt}")])
        mesh = cli.build_mesh(job)
        pieces = list(cli.render_outputs(mesh, fmt, job.output, job.weld_tol)[job.output])
        assert all(type(p) is bytes for p in pieces)
        # a JSON row holds one "[", a row of the other formats ends in a newline
        rows = [p.count(b"[" if fmt == "json" else b"\n") for p in pieces]
        # a block holds as many rows as fit the byte budget, and no row is narrower than 8 bytes ("3 0 1 2\n")
        assert max(rows) <= 128 // 8
        assert sum(rows) >= mesh.n_vertices + (0 if fmt == "csv" else mesh.n_faces) > 4 * 128 // 8


# values each flag accepts, on grids small enough to build in milliseconds;
# -o names a plain file, one without a suffix, the OBJ material's own path,
# a directory and a file in a missing directory
_GOOD_VALUES = {
    "--function": ["log", "root:2", "root:3", "root:5"],
    "--charisma": [k.value for k in CharismaKind],
    "--n-r": ["2", "3", "4", "7"],
    "--n-theta": ["8", "9", "239"],
    "--r-min": ["0.5", "2.2250738585072014e-308"],
    "--r-max": ["2", "8.98846567431158e307"],
    "--radial-spacing": ["linear", "log"],
    "--weld-tol": ["0", "1e-9", "1e300", "-0.0"],
    "--format": ["ply", "obj", "json", "csv"],
    "--figure": list(FIGURE_PRESETS),
    "-o": ["mesh.ply", "mesh", "x.mtl", "outdir", "missing/mesh.ply"],
}
# the default grid is slow to build; -o and --format are always drawn, so
# that every output name meets every format
_ALWAYS_GIVEN = ("--n-r", "--n-theta", "--format", "-o")
# values each flag refuses
_BAD_VALUES = {
    "--function": ["root:1", "tan"],
    "--n-r": ["1", "2.5"],
    "--n-theta": ["7", "-8"],
    "--r-min": ["0", "-1", "nan", "3", "5e-324"],
    "--r-max": ["inf", "0.25", "1.7976931348623157e308"],
    "--weld-tol": ["-1", "nan", "inf"],
    "--format": ["stl"],
}


@st.composite
def cli_argv(draw):
    """Flags the CLI may be given: each good flag, left out unless always
    given, a branch window within -6..6, the weld flags, and in about one
    example in four a bad value, which argparse reads last, so it wins."""
    argv = []
    for flag, values in _GOOD_VALUES.items():
        value = st.sampled_from(values)
        value = draw(value if flag in _ALWAYS_GIVEN else st.none() | value)
        if value is not None:
            argv += [flag, value]
    lo, hi = sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
    argv += draw(st.sampled_from([[], ["--branches", f"{lo}..{hi}"], ["--branches", str(lo)]]))
    argv += draw(st.sampled_from([[], ["--weld"], ["--no-weld"]]))
    argv += draw(st.sampled_from([[], ["--walls"], ["--no-walls"]]))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(sorted(_BAD_VALUES)))
        argv += [bad, draw(st.sampled_from(_BAD_VALUES[bad]))]
    return argv


def _no_constant(name):
    raise AssertionError(f"{name} in strict JSON")


_SURFACE_CAP = 3145728  # vertices before welding: three sheets of MAX_GRID_POINTS


@st.composite
def wide_windows(draw):
    """(function, --branches or None, n_r, n_theta) for parse_args alone:
    window ends up to +-10**12, root degrees up to 10**6, small grids, and
    widths and degrees drawn near the surface cap's edge for the grid."""
    n_r, n_theta = draw(st.integers(2, 8)), draw(st.integers(8, 40))
    most = _SURFACE_CAP // (n_r * (n_theta + 1))  # the most sheets the cap admits on this grid
    near_edge = st.integers(most - 2, most + 2)
    function = draw(st.just("log") | (st.integers(2, 10**6) | near_edge).map(lambda n: f"root:{n}"))
    lo = draw(st.integers(-10**12, 10**12) | st.integers(-10**12, -10**6) | st.integers(-most, 3))
    hi = min(lo + draw(st.integers(most + 3, 2 * 10**12) | near_edge | st.integers(0, 5)), 10**12)
    window = draw(st.sampled_from([None, f"{lo}..{hi}", str(lo)]))
    return function, window, n_r, n_theta


class TestFlagGrammar:
    HEADERS = {"ply": "ply\n", "obj": "mtllib ", "json": '{"schema":1', "csv": "x,y,c,k\n"}

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(wide_windows())
    # the cap's edge on a 2x9 lattice: 174762 sheets fit, 174763 do not
    @example(("log", "0..174761", 2, 8))
    @example(("log", "-174762..0", 2, 8))
    @example(("root:174762", None, 2, 8))
    @example(("root:174763", None, 2, 8))
    def test_the_surface_cap_alone_decides_a_wide_window(self, drawn):
        # parse_args only: no surface is built, so windows of any width are cheap
        function, window, n_r, n_theta = drawn
        argv = ["--function", function, "--charisma", "index", "--n-r", str(n_r), "--n-theta", str(n_theta)]
        f = IndexedFunction.from_label(function)
        admissible = range(-10**13, 10**13) if f.is_log else root_indices(f.n)
        if window is None:
            want = range(-2, 3) if f.is_log else admissible
        else:
            argv += ["--branches", window]
            lo, _, hi = window.partition("..")
            asked = range(int(lo), int(hi or lo) + 1)
            want = range(max(asked.start, admissible.start), min(asked.stop, admissible.stop))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                job = parse_args(argv)
            except SystemExit as e:
                job, code = None, e.code
        if want and len(want) * n_r * (n_theta + 1) <= _SURFACE_CAP:
            assert job is not None, err.getvalue()
            assert job.branches == tuple(want)
            return
        assert job is None and code == EXIT_USAGE
        if not want:
            assert "argument --branches: no admissible branch" in err.getvalue()
        else:
            flag = "--function" if window is None else "--branches"
            assert f"error: argument {flag}: " in err.getvalue()
            assert f"a surface holds at most {_SURFACE_CAP}" in err.getvalue()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(cli_argv())
    # abs of a lattice point overflowed here, and main raised OverflowError
    @example(["--r-max", "1.7976931348623157e308", "--n-r", "4", "--n-theta", "239", "--format", "ply", "-o", "m.ply"])
    def test_every_flag_combination_exits_with_a_documented_code(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "outdir").mkdir()
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                before = sorted(Path().rglob("*"))
                code = main(argv)
                assert code in (EXIT_OK, EXIT_USAGE, EXIT_INCOMPATIBLE, EXIT_IO, EXIT_DOMAIN)
                if code != EXIT_OK:
                    assert sorted(Path().rglob("*")) == before
                    return
                job = parse_args(argv)
                text = job.output.read_text()
                assert text.startswith(self.HEADERS[job.fmt])
                seams = json.loads(job.output.with_suffix(".seams.json").read_text())["seams"]
                if job.fmt == "ply":
                    read_ply(text)
                elif job.fmt == "json":
                    assert json.loads(text, parse_constant=_no_constant)["seams"] == seams
            finally:
                os.chdir(cwd)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "cli.ply"
        proc = subprocess.run(
            [sys.executable, "-m", "riemannmesh", *FAST_GRID, "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists() and out.with_suffix(".seams.json").exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
