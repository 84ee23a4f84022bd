"""CLI: subcommands, exit codes, determinism, defaults provenance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fullstab import defaults as dflt
from fullstab.cli import _build_parser, run

from conftest import BOUNDARY_TOL_ACT, half_planes

MODELS = Path(__file__).resolve().parent.parent / "models"


class TestExitCodes:
    def test_certify_worked_example_exit_zero(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run([
            "certify", str(MODELS / "ex64.model"), "--seed", "7",
            "--samples", "60", "--grid-v", "3", "--grid-p", "3",
            "--json", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["fully_stable"] is True
        assert rep["schema"] == 1

    def test_certify_skew_exit_zero_not_stable(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run([
            "certify", str(MODELS / "skew.model"), "--samples", "30",
            "--json", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["fully_stable"] is False

    def test_missing_model_exit_one(self, capsys):
        code = run(["certify", "missing.model"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_model_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("dims n=1 d=0\nf = (q1)\n")
        code = run(["certify", str(bad)])
        assert code == 1
        assert "unknown identifier" in capsys.readouterr().err

    def test_pole_in_newton_box_exit_one(self, tmp_path, capsys):
        # the start x = 1/5 of the face sweep lands on the pole: the run
        # stops with the evaluation error that names the subexpression
        model = tmp_path / "pole.model"
        model.write_text("dims n=1 d=0\nf = (x1 + 1/(x1 - 1/5))\nreference x=(0) p=() v=(-5)\n")
        code = run(["certify", str(model), "--samples", "30", "--json", str(tmp_path / "rep.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: division by zero in subexpression '1/(x1 - 1/5)'\n"
        )
        assert not (tmp_path / "rep.json").exists()

    def test_pole_in_the_affine_sweep_exit_one(self, tmp_path, capsys):
        # the p grid meets both poles; the error names the pole of the first
        # failing distinct p row, as one evaluation per row would, not the
        # first pole met by one evaluation over all rows
        model = tmp_path / "poles.model"
        model.write_text(
            "dims n=2 d=2\nf = (x1 + 1/(p1 - 1/20), x2 + 1/(p2 + 1/20))\n"
            "reference x=(20, -20) p=(0, 0) v=(0, 0)\n"
        )
        code = run(["certify", str(model), "--samples", "30", "--json", str(tmp_path / "rep.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: division by zero in subexpression '1/(p2 + 1/20)'\n"
        )
        assert not (tmp_path / "rep.json").exists()

    def test_float_overflow_in_the_sweep_exit_one(self, tmp_path, capsys):
        # (1 + x1)^4000 overflows a float at the Newton starts away from the
        # reference: the run ends with the typed error naming the power
        model = tmp_path / "overflow.model"
        model.write_text("dims n=1 d=0\nf = (x1 + (1 + x1)^4000)\nreference x=(0) p=() v=(1)\n")
        code = run([
            "certify", str(model), "--samples", "10", "--grid-v", "3", "--grid-p", "3",
            "--json", str(tmp_path / "rep.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: float overflow in subexpression '(1 + x1)^4000'\n"
        )
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags, message", [
        (["--eta", "0"], "eta must be finite and positive"),
        (["--eta", "nan"], "eta must be finite and positive"),
        (["--rho-v", "0"], "rho_v must be finite and positive"),
        (["--rho-p", "inf"], "rho_p must be finite and positive"),
        (["--samples", "0"], "samples must be at least 1"),
        (["--grid-v", "0"], "grid_v must be at least 2"),
        (["--grid-p", "1"], "grid_p must be at least 2"),
        (["--seed", "-1"], "seed must be at least 0"),
        (["--tol-pd", "nan"], "tol_pd must be finite and nonnegative"),
        (["--tol-act", "nan"], "tol_act must be finite and nonnegative"),
        (["--tol-act", "-1"], "tol_act must be finite and nonnegative"),
    ])
    def test_out_of_range_option_exit_one(self, flags, message, capsys):
        # each flag on a subcommand that reads it: --eta only probe-monotone
        command = "probe-monotone" if flags[0] == "--eta" else "certify"
        code = run([command, str(MODELS / "identity.model"), *flags])
        assert code == 1
        assert message in capsys.readouterr().err

    # cones and probe-monotone check the flags they read by the rule of
    # certify's test above
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["probe-monotone", "--seed", "-2"], "option seed must be at least 0, got -2"),
        (["probe-monotone", "--seed", "-1"], "option seed must be at least 0, got -1"),
        (["cones", "--tol-act", "nan"], "option tol_act must be finite and nonnegative, got nan"),
        (["cones", "--tol-act", "-1"], "option tol_act must be finite and nonnegative, got -1.0"),
    ])
    def test_other_subcommands_check_flags_alike(self, argv, message, tmp_path, capsys):
        command, *flags = argv
        code = run([command, str(MODELS / "ex64.model"), *flags,
                    "--json", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--v", "1"], "--v has 1 entries, the model needs 3"),
        (["--p", "1,2,3"], "--p has 3 entries, the model needs 2"),
        (["--x0", "0,0"], "--x0 has 2 entries, the model needs 3"),
        (["--v", "nan,0,0"], "vector entries must be finite, got 'nan,0,0'"),
        (["--p", "0,inf"], "vector entries must be finite, got '0,inf'"),
    ])
    def test_bad_solve_vector_exit_one(self, flags, message, tmp_path, capsys):
        code = run(["solve", str(MODELS / "ex64.model"), *flags,
                    "--json", str(tmp_path / "s.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, what", [
        ("certify", "active constraints"),  # multiplier_polytope
        ("cones", "inequality rows"),  # generators of the critical cone
    ])
    def test_over_the_cap_exit_one(self, command, what, tmp_path, capsys):
        model = tmp_path / "thirteen.model"
        model.write_text(half_planes())
        code = run([command, str(model), "--json", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: 13 {what} exceed the face-enumeration cap (12)\n"
        )

    def test_grid_over_the_cap_exit_one(self, tmp_path, capsys):
        # 50^3 v-nodes times 5^2 p-nodes on ex64
        out = tmp_path / "r.json"
        code = run(["certify", str(MODELS / "ex64.model"), "--grid-v", "50", "--json", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: localization grid of 3125000 nodes exceeds the desk-scale cap "
            f"({dflt.MAX_GRID_NODES}); lower the grid sizes\n"
        )
        assert dflt.MAX_GRID_NODES == 100_000
        assert not out.exists()

    def test_inconsistent_report_exit_two(self, monkeypatch, tmp_path, capsys):
        # force a verdict disagreement through the pipeline seam
        import fullstab.cli as cli_mod

        class FakeReport:
            verdict = "inconsistent"
            notes = ["forced for the exit-code contract"]

            def to_json_dict(self):
                return {"verdict": self.verdict, "schema": 1}

            def to_text(self):
                return "verdict: inconsistent\n"

        monkeypatch.setattr(cli_mod, "certify", lambda model, opts: FakeReport())
        code = run(["certify", str(MODELS / "identity.model"), "--json", str(tmp_path / "r.json")])
        assert code == 2
        assert "inconsistency" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_seeds_byte_identical_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "certify", str(MODELS / "ex64.model"), "--seed", "11",
            "--samples", "40", "--grid-v", "3", "--grid-p", "3",
        ]
        assert run(argv + ["--json", str(a)]) == 0
        assert run(argv + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_sampled_details(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["certify", str(MODELS / "ex64.model"), "--samples", "40",
                "--grid-v", "3", "--grid-p", "3"]
        run(base + ["--seed", "1", "--json", str(a)])
        run(base + ["--seed", "2", "--json", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["verdict"] == rb["verdict"]  # verdict is seed-robust


class TestParserBuiltOnce:
    def test_first_run_builds_it_and_later_runs_share_it(self):
        # not at import, so importing the CLI stays as cheap as before
        code = (
            "import fullstab.cli as cli\n"
            "before = cli._build_parser.cache_info().currsize\n"
            "cli.run(['report', 'missing.json'])\n"
            "first = cli._build_parser()\n"
            "cli.run(['report', 'missing.json'])\n"
            "print(before, cli._build_parser() is first, cli._build_parser.cache_info().misses)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(MODELS.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=300)
        assert out.stdout.split() == ["0", "True", "1"], out.stderr


class TestDefaultsSingleSource:
    def test_parser_defaults_match_module_table(self):
        parser = _build_parser()
        args = parser.parse_args(["certify", "x.model"])
        assert parser.parse_args(["probe-monotone", "x.model"]).eta == dflt.ETA
        assert args.rho_v == dflt.RHO_V
        assert args.rho_p == dflt.RHO_P
        assert args.samples == dflt.SAMPLES
        assert args.seed == dflt.SEED
        assert args.tol_pd == dflt.TOL_PD
        assert args.tol_act == dflt.TOL_ACT
        assert args.grid_v == dflt.GRID_V
        assert args.grid_p == dflt.GRID_P

    def test_options_dataclass_matches_module_table(self):
        from fullstab.stabharness import CertifyOptions

        opts = CertifyOptions()
        assert opts.eta == dflt.ETA
        assert opts.samples == dflt.SAMPLES
        assert opts.rho_v == dflt.RHO_V
        assert opts.rho_p == dflt.RHO_P
        assert opts.tol_pd == dflt.TOL_PD


class TestSubcommands:
    def test_solve_agreement(self, tmp_path):
        out = tmp_path / "s.json"
        code = run([
            "solve", str(MODELS / "ex64.model"), "--v", "0.0,0.0,0.0",
            "--p", "0.02,-0.01", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["face_solutions"]) == 1
        assert payload["face_solutions"][0]["x"] == pytest.approx(
            [0.02, -0.01, 0.0], abs=1e-9
        )
        assert payload["agreement_gap"] < 1e-7

    def test_probe_monotone_from_csv(self, tmp_path):
        csv = tmp_path / "g.csv"
        csv.write_text("u1,u2,v1,v2\n0,0,0,0\n1,0,1,0\n0,1,0,-1\n")
        out = tmp_path / "m.json"
        code = run([
            "probe-monotone", str(MODELS / "skew.model"),
            "--from-csv", str(csv), "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kappa_hat"] == pytest.approx(-1.0)

    @pytest.mark.parametrize("rows, message", [
        ("0,0,0,0\n1,0,1,0\n0.5,0.5,nan,0.5\n", "CSV line 3 has a non-finite entry"),
        ("u1,u2,v1,v2\n0,0,0,0\n1,0,1,0\n0.5,0.5,0.5,O.5\n0,1,0,-1\n",
         "CSV line 4 is not numeric"),
    ])
    def test_probe_monotone_bad_csv_row_exit_one(self, tmp_path, capsys, rows, message):
        csv = tmp_path / "g.csv"
        csv.write_text(rows)
        code = run([
            "probe-monotone", str(MODELS / "skew.model"),
            "--from-csv", str(csv), "--json", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_cones_payload(self, tmp_path):
        out = tmp_path / "c.json"
        csv = tmp_path / "c.csv"
        code = run([
            "cones", str(MODELS / "ex64.model"),
            "--json", str(out), "--csv-table", str(csv),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["active_set"] == [1, 2, 3, 4]
        assert payload["critical_span_dim"] == 0
        assert payload["tangent_span_dim"] == 3
        assert payload["mfcq"]["verdict"] == "holds"
        assert "ineq," in csv.read_text()

    def test_cones_evaluates_reference_once(self, tmp_path, monkeypatch):
        # the rational reference is evaluated once, in Fractions: MFCQ,
        # CRCQ and Lambda read that bundle, and the active set, tangent
        # cone and LICQ its float cast (kkt evaluates no bundle itself)
        import fullstab.modelspec as modelspec
        import fullstab.polycone as polycone

        points = []
        exact = []
        for module in (modelspec, polycone):
            inner = module.eval_bundle
            monkeypatch.setattr(
                module, "eval_bundle",
                lambda model, x, p, inner=inner: points.append([float(c) for c in x])
                or inner(model, x, p),
            )
        inner_exact = modelspec.eval_bundle_exact
        monkeypatch.setattr(
            modelspec, "eval_bundle_exact",
            lambda model, x, p: exact.append(list(x)) or inner_exact(model, x, p),
        )
        code = run(["cones", str(MODELS / "ex64.model"), "--json", str(tmp_path / "c.json")])
        assert code == 0
        assert points.count([0.0, 0.0, 0.0]) == 0
        assert exact == [[0, 0, 0]]

    def test_cones_takes_one_active_set(self, tmp_path):
        # the active set of the exact reference bundle, for the cones and
        # for every check (see BOUNDARY_TOL_ACT)
        model = tmp_path / "m.model"
        model.write_text(BOUNDARY_TOL_ACT)
        out = tmp_path / "c.json"
        assert run(["cones", str(model), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["active_set"] == []
        for cq in ("mfcq", "licq", "crcq"):
            assert payload[cq]["witness"]["active_set"] == []
        assert payload["multipliers"]["active_set"] == []

    def test_report_renders_text(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["certify", str(MODELS / "identity.model"), "--samples", "20",
             "--json", str(out)])
        code = run(["report", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "verdict: fully_stable" in captured

    def test_csv_table_emission(self, tmp_path):
        csv = tmp_path / "table.csv"
        code = run([
            "certify", str(MODELS / "identity.model"), "--samples", "20",
            "--json", str(tmp_path / "r.json"), "--csv-table", str(csv),
        ])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "v1,x1,residual,method"
        assert len(lines) > 5


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["solve", str(MODELS / "ex64.model"), "--grid-v", "3"],
        ["cones", str(MODELS / "ex64.model"), "--text"],
        ["certify", str(MODELS / "identity.model"), "--eta", "0.5"],
        ["cones", str(MODELS / "ex64.model"), "--seed", "1"],
    ])
    def test_unread_flag_is_rejected(self, argv, capsys):
        assert run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestModuleEntryPoint:
    @staticmethod
    def certify_identity(module):
        src = str(MODELS.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, "certify", str(MODELS / "identity.model")],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_python_m_cli_certify_prints_report(self):
        out = self.certify_identity("fullstab.cli")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["verdict"] == "fully_stable"

    def test_python_m_fullstab_certify_prints_report(self):
        out = self.certify_identity("fullstab")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["verdict"] == "fully_stable"
