"""CLI parsing, exit codes, file output, and determinism tests."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from riemannmesh import CharismaKind, DomainGrid, IndexedFunction, JobSpec, parse_args, run
from riemannmesh import cli
from riemannmesh.cli import EXIT_DOMAIN, EXIT_INCOMPATIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
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

    def test_empty_branch_intersection_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--branches", "7..9"])
        assert exc.value.code == EXIT_USAGE
        assert "--branches" in capsys.readouterr().err

    def test_incompatible_charisma_raises_for_exit_three(self):
        from riemannmesh import CharismaCompatibilityError

        with pytest.raises(CharismaCompatibilityError):
            parse_args(["--function", "log", "--charisma", "sin"])

    def test_bad_function_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--function", "root:one"])
        assert exc.value.code == EXIT_USAGE
        assert "--function" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,flag_name",
        [
            (["--r-min", "0"], "--r-min"),
            (["--r-min", "3", "--r-max", "2"], "--r-max"),
            (["--n-r", "1"], "--n-r"),
            (["--n-theta", "4"], "--n-theta"),
            (["--r-max", "nan"], "--r-max"),
            (["--r-min", "inf"], "--r-min"),
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
    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(cli, "_WRITE_SLICE", 7)

    def test_writes_every_slice_byte_for_byte(self, tmp_path):
        # a newline ends the first slice; the last slice is short
        text = "ply 10\n" + "0.5 -0.0 1e-300 7\n" * 9 + "end"
        assert text[6] == "\n" and len(text) % 7
        texts = {tmp_path / "a.ply": text, tmp_path / "b.json": "{}\n"}
        cli._write_atomic(texts)
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == {p: t.encode() for p, t in texts.items()}

    def test_a_failing_write_leaves_no_file(self, tmp_path):
        # the lone surrogate cannot be encoded, so the third slice fails
        texts = {tmp_path / "a.ply": "ply\n" * 9, tmp_path / "b.ply": "x" * 15 + "\ud800"}
        with pytest.raises(UnicodeEncodeError):
            cli._write_atomic(texts)
        assert list(tmp_path.iterdir()) == []


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
