import argparse
import csv
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from indexvar import cli, estimators
from indexvar.cli import main
from indexvar.tscore import Panel, read_panel_csv, subspace_distance


def run_cli(*args):
    return main([str(a) for a in args])


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run_cli(
        "simulate", "--model", "ciaar", "--n", 5, "--q", 2, "--p", 2, "--s", 2,
        "--r", 1, "--T", 500, "--seed", 42, "--out", out,
    ) == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert (sim_dir / "panel.csv").exists()
        assert (sim_dir / "dgp_params.json").exists()
        assert (sim_dir / "manifest.txt").exists()

    def test_panel_round_trips_at_full_precision(self, sim_dir):
        from indexvar.simulate import random_ciaar_params, simulate_ciaar

        panel = read_panel_csv(sim_dir / "panel.csv")
        params = random_ciaar_params(5, 2, 1, 2, 2, seed=42)
        direct = simulate_ciaar(params, 500, seed=42)
        assert np.array_equal(panel.values, direct.values)

    def test_seed_reruns_are_byte_identical(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        run_cli(
            "simulate", "--model", "ciaar", "--n", 5, "--q", 2, "--p", 2, "--s", 2,
            "--r", 1, "--T", 500, "--seed", 42, "--out", out2,
        )
        a = read_bytes_tree(sim_dir)
        b = read_bytes_tree(out2)
        assert set(a) == set(b)
        for name in a:
            if name != "manifest.txt":  # manifests echo the out path
                assert a[name] == b[name], name

    def test_manifest_reproduces_run(self, sim_dir, tmp_path):
        out2 = tmp_path / "repro"
        assert run_cli("simulate", "--config", sim_dir / "manifest.txt", "--out", out2) == 0
        assert (out2 / "panel.csv").read_bytes() == (sim_dir / "panel.csv").read_bytes()


class TestFitPipeline:
    def test_fit_reports_monotone_trace(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        assert run_cli(
            "fit", "--input", sim_dir / "panel.csv", "--model", "ciaar",
            "--p", 2, "--s", 2, "--q", 2, "--r", 1, "--out", out,
        ) == 0
        lines = (out / "loglik_trace.csv").read_text().strip().splitlines()[1:]
        trace = [float(line.split(",")[1]) for line in lines]
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))
        text = (out / "fit_params.txt").read_text()
        assert "converged = True" in text

    def test_decompose_writes_components(self, sim_dir, tmp_path):
        out = tmp_path / "dec"
        assert run_cli(
            "decompose", "--input", sim_dir / "panel.csv", "--model", "ciaar",
            "--p", 2, "--s", 2, "--q", 2, "--r", 1, "--out", out,
        ) == 0
        header = (out / "components.csv").read_text().splitlines()[0]
        assert "pi_" in header and "tau_" in header and "iota_" in header

    def test_decompose_reads_no_horizon(self, sim_dir, tmp_path):
        written = []
        for h in (5, 200):
            out = tmp_path / f"dec{h}"
            assert run_cli(
                "decompose", "--input", sim_dir / "panel.csv", "--model", "ciaar",
                "--p", 2, "--s", 2, "--q", 2, "--r", 1, "--horizon", h, "--out", out,
            ) == 0
            written.append((out / "components.csv").read_bytes())
        assert written[0] == written[1]

    def test_reports_keep_every_column_of_a_repeated_name(self, sim_dir, tmp_path):
        # the sim_dir panel re-headed with a repeated name and a name "step":
        # each report keeps every column under its name, in panel order, with
        # the values the panel's own names y1..y5 get
        Y = read_panel_csv(sim_dir / "panel.csv")
        names = ["step", "a", "a", "b", "c"]
        cli.write_panel_csv(Panel(Y.values, names), tmp_path / "named.csv")
        reports = {}
        for label, panel in (("named", tmp_path / "named.csv"), ("plain", sim_dir / "panel.csv")):
            for command, report in (("forecast", "forecast.csv"), ("decompose", "components.csv")):
                out = tmp_path / f"{label}-{command}"
                assert run_cli(command, "--input", panel, "--model", "mai", "--p", 1, "--q", 1,
                               "--horizon", 4, "--out", out) == 0
                with open(out / report, newline="") as fh:
                    reports[label, command] = list(csv.reader(fh))
        labels = {"forecast": lambda ns: ["step", *ns],
                  "decompose": lambda ns: [f"{part}_{n}" for part in ("chi", "iota") for n in ns]}
        for command, header in labels.items():
            named, plain = reports["named", command], reports["plain", command]
            assert named[0] == header(names)
            assert plain[0] == header(Y.names)
            assert named[1:] == plain[1:]
            assert {len(row) for row in named} == {len(named[0])}

    def test_forecast_and_rolling(self, sim_dir, tmp_path):
        out = tmp_path / "fc"
        assert run_cli(
            "forecast", "--input", sim_dir / "panel.csv", "--model", "vecim",
            "--p", 2, "--q", 2, "--r", 1, "--horizon", 4, "--origins", 3, "--out", out,
        ) == 0
        lines = (out / "forecast.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        assert (out / "msfe.csv").read_text().count("\n") >= 4
        rerun = tmp_path / "fc2"
        assert run_cli(
            "forecast", "--input", sim_dir / "panel.csv", "--model", "vecim",
            "--p", 2, "--q", 2, "--r", 1, "--horizon", 4, "--origins", 3, "--out", rerun,
        ) == 0
        assert (rerun / "msfe.csv").read_bytes() == (out / "msfe.csv").read_bytes()

    def test_select_two_point_grid(self, sim_dir, tmp_path):
        out = tmp_path / "sel"
        assert run_cli(
            "select", "--input", sim_dir / "panel.csv", "--model", "mai",
            "--p-min", 1, "--p-max", 2, "--q-min", 1, "--q-max", 1, "--out", out,
        ) == 0
        lines = [
            line for line in (out / "ic_table.csv").read_text().strip().splitlines()
            if not line.startswith("#")
        ]
        assert len(lines) == 3  # header + 2 candidates
        header = lines[0].split(",")
        assert lines[0].endswith(",hq,sigma_cond,converged,failed,stop,error,best")
        best_flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert best_flags.count("1") == 1
        cells = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert all(row["stop"] in ("tol", "max_iter") for row in cells)
        assert all(0.0 < float(row["sigma_cond"]) <= 1.0 for row in cells)

    def test_select_reruns_write_identical_tables(self, sim_dir, tmp_path):
        # c15 for select, on a grid that prunes: pruned rows, bounds and all
        tables = []
        for name in ("sel", "again"):
            assert run_cli(
                "select", "--input", sim_dir / "panel.csv", "--model", "ciaar",
                "--p-min", 1, "--p-max", 2, "--q-min", 1, "--q-max", 3, "--out", tmp_path / name,
            ) == 0
            tables.append((tmp_path / name / "ic_table.csv").read_bytes())
        assert tables[0] == tables[1]
        lines = [line for line in tables[0].decode().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        assert header[5:8] == ["loglik", "n_params", "loglik_bound"]
        cells = [dict(zip(header, line.split(","))) for line in lines[1:]]
        pruned = [row for row in cells if row["stop"] == "pruned"]
        assert pruned and all(row["best"] == "0" and row["sigma_cond"] == "" for row in pruned)
        assert all(float(row["loglik_bound"]) >= float(row["loglik"]) for row in cells
                   if row["stop"] != "pruned")

    def test_montecarlo(self, tmp_path):
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", "--model", "mai", "--n", 4, "--q", 1, "--p", 1,
            "--T", 300, "--reps", 3, "--seed", 7, "--out", out,
        ) == 0
        lines = (out / "mc_results.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        rerun = tmp_path / "mc2"
        run_cli(
            "montecarlo", "--model", "mai", "--n", 4, "--q", 1, "--p", 1,
            "--T", 300, "--reps", 3, "--seed", 7, "--out", rerun,
        )
        assert (out / "mc_results.csv").read_bytes() == (rerun / "mc_results.csv").read_bytes()

    MC_ARGS = ("montecarlo", "--model", "mai", "--n", 4, "--q", 1, "--p", 1,
               "--T", 200, "--reps", 2, "--seed", 7)

    def test_montecarlo_fails_on_a_programming_error(self, tmp_path, monkeypatch):
        def broken(cfg, panels):
            raise TypeError("not a fit failure")

        monkeypatch.setattr(cli, "_fit_from_config", broken)
        assert run_cli(*self.MC_ARGS, "--out", tmp_path / "mc") == 1

    def test_montecarlo_records_a_failed_fit(self, tmp_path, monkeypatch):
        def failing(cfg, panels):
            raise np.linalg.LinAlgError("x")

        monkeypatch.setattr(cli, "_fit_from_config", failing)
        out = tmp_path / "mc"
        assert run_cli(*self.MC_ARGS, "--out", out) == 0
        rows = (out / "mc_results.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith(",LinAlgError: x") for row in rows)

    def test_montecarlo_quotes_an_error_cell_holding_commas(self, tmp_path, monkeypatch):
        message = "need 1 <= q < n, got q=4, n=4"

        def failing(cfg, panels):
            raise ValueError(message)

        monkeypatch.setattr(cli, "_fit_from_config", failing)
        out = tmp_path / "mc"
        assert run_cli(*self.MC_ARGS, "--out", out) == 0
        with open(out / "mc_results.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(header) == 6 and len(rows) == 2 and all(len(row) == 6 for row in rows)
        assert all(row[-1] == f"ValueError: {message}" for row in rows)


class TestFitMeans:
    @pytest.mark.parametrize("model", list(estimators.MODELS))
    def test_every_fit_reports_the_panel_means(self, model, sim_dir):
        # every fit demeans its panel: decomp and forecast read fit.means["level"], and an
        # error-correction fit's "diff"
        Y = read_panel_csv(sim_dir / "panel.csv")
        cfg = cli.RunConfig(subcommand="fit", out=".", model=model, p=2, s=2, q=2, r=1)
        fit, = cli._fit_from_config(cfg, [Y])
        assert np.array_equal(fit.means["level"], Y.values.mean(axis=0))
        if model in ("ciaar", "vecim", "vecm"):
            assert np.array_equal(fit.means["diff"], np.diff(Y.values, axis=0).mean(axis=0))
        else:
            assert fit.means.keys() == {"level"}


class TestMontecarloBatch:
    """montecarlo fits cli.MC_CHUNK replications in one lockstep run; every
    row equals a loop of the model's single fitter over the same panels."""

    ORDERS = {
        "mai": ("--p", 2, "--q", 1),
        "iaar": ("--p", 2, "--s", 1, "--q", 1),
        "vhari": ("--q", 1),
        "ciaar": ("--p", 2, "--s", 2, "--q", 2, "--r", 1),
        "drvar": ("--p", 1, "--q", 1),
    }

    @staticmethod
    def single_fit(cfg, Y):
        if cfg.model == "drvar":
            omega, _ = estimators.fit_drvar_omega(Y, cfg.p0, cfg.q)
            return estimators.fit_drvar_coeffs(Y, omega, cfg.p, method=cfg.method)
        orders = {k: getattr(cfg, k) for k in estimators.MODELS[cfg.model].orders}
        return getattr(estimators, f"fit_{cfg.model}")(Y, opts=cfg.fit_options(), **orders)

    def check_rows(self, model, reps, out):
        args = ["montecarlo", "--model", model, "--n", 4, *self.ORDERS[model],
                "--T", 150, "--max-iter", 60, "--reps", reps, "--seed", 3, "--out", out]
        assert run_cli(*args) == 0
        cfg = cli.build_config(cli._parser().parse_args([str(a) for a in args]))
        params = cli._dgp_params(cfg)
        with open(out / "mc_results.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == reps
        errors = []
        for rep, (row, child) in enumerate(zip(rows, np.random.SeedSequence(3).spawn(reps))):
            got = dict(zip(header, row))
            assert got["rep"] == str(rep)
            try:
                fit = self.single_fit(cfg, cli._simulate_panel(cfg, params, child))
            except (ValueError, np.linalg.LinAlgError) as exc:
                errors.append(rep)
                assert (got["loglik"], got["iterations"], got["converged"]) == ("nan", "0", "0")
                assert got["error"] == f"{type(exc).__name__}: {exc}"
                continue
            assert (got["iterations"], got["converged"], got["error"]) == (
                str(fit.iterations), str(int(fit.converged)), "")
            dist = subspace_distance(fit.params.omega, params.omega)
            for name, want in (("loglik", fit.loglik), ("omega_subspace_distance", dist)):
                assert float(got[name]) == pytest.approx(want, rel=1e-10, abs=0), (rep, name)
        return errors

    @pytest.mark.parametrize("model", list(ORDERS))
    def test_rows_equal_the_single_fits(self, model, tmp_path):
        # one chunk more than MC_CHUNK, so the trailing chunk holds a single panel
        assert self.check_rows(model, cli.MC_CHUNK + 1, tmp_path / "mc") == []

    @pytest.mark.parametrize("model", list(ORDERS))
    def test_a_degenerate_rep_fails_alone(self, model, tmp_path, monkeypatch):
        simulate = cli._simulate_panel

        def constant_column_at_rep_2(cfg, params, child):
            Y = simulate(cfg, params, child)
            if child.spawn_key == (2,):
                values = Y.values.copy()
                values[:, 0] = 1.0
                Y = Panel(values, Y.names)
            return Y

        monkeypatch.setattr(cli, "_simulate_panel", constant_column_at_rep_2)
        out = tmp_path / "mc"
        assert self.check_rows(model, 5, out) == [2]
        error = list(csv.reader((out / "mc_results.csv").read_text().splitlines()))[3][-1]
        assert ("rank deficient" if model != "drvar" else "not positive definite") in error


class TestOtherModels:
    """fit and decompose for the models outside the CIAAR family; each
    report is byte-identical on a rerun (c15)."""

    @staticmethod
    def run_twice(tmp_path, *args):
        trees = []
        for name in ("first", "again"):
            assert run_cli(*args, "--out", tmp_path / name) == 0
            tree = read_bytes_tree(tmp_path / name)
            del tree["manifest.txt"]                   # manifests echo the out path
            trees.append(tree)
        assert trees[0] == trees[1]
        return trees[0]

    @pytest.mark.parametrize("model, labels", [
        ("drvar", ("dynamic", "static", "nu")),
        ("mai", ("chi", "iota")),
    ])
    def test_decompose(self, model, labels, sim_dir, tmp_path):
        tree = self.run_twice(tmp_path, "decompose", "--input", sim_dir / "panel.csv",
                              "--model", model, "--p", 2, "--q", 2)
        header = tree["components.csv"].decode().splitlines()[0]
        names = read_panel_csv(sim_dir / "panel.csv").names
        assert header == ",".join(f"{label}_{name}" for label in labels for name in names)

    @pytest.mark.parametrize("model, want", [
        ("drvar", 2 * (5 - 2) + 2 * 2 ** 2),           # q(n - q) + p q^2, n = 5, q = 2, p = 2
        ("vecm", 2 * 5 * 1 - 1 ** 2 + (2 - 1) * 5 ** 2),   # 2nr - r^2 + (p - 1)n^2, r = 1
    ])
    def test_fit_counts_free_params(self, model, want, sim_dir, tmp_path):
        tree = self.run_twice(tmp_path, "fit", "--input", sim_dir / "panel.csv",
                              "--model", model, "--p", 2, "--q", 2, "--r", 1)
        assert f"n_free_params = {want}" in tree["fit_params.txt"].decode().splitlines()
        trace = tree["loglik_trace.csv"].decode().splitlines()
        assert trace[0] == "iteration,loglik" and trace[1].startswith("1,") and len(trace) == 2


class TestErrors:
    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("fit", "--input", tmp_path / "nope.csv", "--model", "mai",
                       "--p", 1, "--q", 1, "--out", tmp_path / "o")
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "decompose", "forecast"])
    def test_twelve_row_panel_fails_with_the_reduced_rank_message(self, command, tmp_path, capsys):
        # Johansen's start has singular level moments on 12 rows; select on
        # the same panel still exits 0, its larger orders failing the sample check
        from indexvar.simulate import random_ciaar_params, simulate_ciaar

        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 400, seed=1)
        cli.write_panel_csv(Panel(Y.values[:12], Y.names), tmp_path / "short.csv")
        code = run_cli(command, "--input", tmp_path / "short.csv", "--model", "ciaar",
                       "--p", 2, "--s", 2, "--q", 2, "--r", 1, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert "Matrix is not positive definite" not in err
        assert estimators.RRR_ERROR in err
        assert run_cli("select", "--input", tmp_path / "short.csv", "--model", "ciaar",
                       "--out", tmp_path / "s") == 0

    def test_vecm_fit_of_a_lagged_copy_fails_the_sigma_guard(self, tmp_path, capsys):
        # y4_t = y1_{t-1} leaves the Johansen residual covariance singular
        from indexvar.simulate import random_ciaar_params, simulate_ciaar

        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=2)
        values = Y.values.copy()
        values[1:, 3] = values[:-1, 0]
        cli.write_panel_csv(Panel(values, Y.names), tmp_path / "copy.csv")
        code = run_cli("fit", "--input", tmp_path / "copy.csv", "--model", "vecm",
                       "--p", 2, "--r", 1, "--out", tmp_path / "o")
        assert code == 1
        assert estimators.SIGMA_ERROR in capsys.readouterr().err

    def test_a_non_finite_tol_is_refused(self, sim_dir, tmp_path, capsys):
        # inf stopped every fit after two sweeps as converged, and nan ran
        # every fit silently to the sweep cap
        config = tmp_path / "nan.cfg"
        config.write_text("tol = nan\n")
        fit = ("fit", "--input", sim_dir / "panel.csv", "--model", "ciaar", "--p", 2, "--s", 2,
               "--q", 2, "--r", 1, "--out", tmp_path / "o")
        for extra in (("--tol", "inf"), ("--config", config)):
            assert run_cli(*fit, *extra) == 1
            assert capsys.readouterr().err == "indexvar: error: tol must be finite and > 0\n"

    def test_inadmissible_orders_rejected(self, tmp_path, capsys):
        code = run_cli("simulate", "--model", "ciaar", "--n", 4, "--q", 2,
                       "--p", 2, "--s", 3, "--r", 1, "--out", tmp_path / "o")
        assert code == 1
        assert "s <= p" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_iaar_orders_the_fitter_rejects(self, command, tmp_path, capsys):
        # q index directions with no index lag: rejected before anything is drawn
        out = tmp_path / "o"
        shared = ("--model", "iaar", "--n", 4, "--p", 1, "--s", 0, "--T", 200, "--out", out)
        shared += ("--reps", 2) if command == "montecarlo" else ()
        code = run_cli(command, *shared, "--q", 1)
        assert code == 1
        err = capsys.readouterr().err
        assert "need 1 <= s <= p, or s = 0 with q = 0 (got p=1, s=0, q=1)" in err
        assert not out.exists()
        # the diagonal model (s = q = 0) is admissible
        assert run_cli(command, *shared, "--q", 0) == 0

    # the orders each simulated model reads, and their box: n = 4, p and s in 0..3, q and r in 0..4
    SIM_ORDERS = {"mai": "pq", "vhari": "q", "iaar": "psq", "ciaar": "psqr", "drvar": "pq"}
    BOX = {"p": range(4), "s": range(4), "q": range(5), "r": range(5)}

    @staticmethod
    def error_of(call, *args, **kwargs):
        try:
            call(*args, **kwargs)
        except ValueError as exc:
            return str(exc)
        return None

    @staticmethod
    def fit_drvar(Y, p, q):
        omega, _ = estimators.fit_drvar_omega(Y, cli.RunConfig.p0, q)
        estimators.fit_drvar_coeffs(Y, omega, p)

    @pytest.mark.parametrize("model", list(SIM_ORDERS))
    def test_simulated_orders_are_the_fitters(self, model):
        # simulate and montecarlo reject exactly the orders the model's fitter
        # rejects on a 4-column panel, with its message, before drawing anything
        Y = Panel(np.random.default_rng(0).standard_normal((60, 4)))
        setup = self.fit_drvar if model == "drvar" else estimators.MODELS[model].setup
        names = self.SIM_ORDERS[model]
        for values in product(*(self.BOX[k] for k in names)):
            orders = dict(zip(names, values))
            cfg = cli.RunConfig(subcommand="simulate", out="unused", model=model, n=4, **orders)
            assert self.error_of(cfg.validate) == self.error_of(setup, Y, **orders), orders

    @pytest.mark.parametrize("model, orders, message", [
        ("mai", ("--p", 1, "--q", 0), "need 1 <= q <= n, got q=0"),
        ("mai", ("--p", 0, "--q", 1), "need p >= 1"),
        ("drvar", ("--p", 0, "--q", 1), "need p >= 1"),
    ])
    def test_montecarlo_rejects_before_simulating(self, model, orders, message, tmp_path, capsys):
        out = tmp_path / "mc"
        code = run_cli("montecarlo", "--model", model, "--n", 4, *orders, "--T", 100,
                       "--reps", 2, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"indexvar: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, config, message", [
        ("forecast", ("--origins", -3), "", "--origins must be >= 0, got -3"),
        ("forecast", ("--refit", 7), "", "--refit must be 0 or 1, got 7"),
        ("forecast", ("--refit", -1), "", "--refit must be 0 or 1, got -1"),
        ("forecast", ("--horizon", 0), "", "--horizon must be >= 1, got 0"),
        ("montecarlo", ("--reps", -2), "", "--reps must be >= 0, got -2"),
        ("montecarlo", ("--seed", -1), "", "--seed must be >= 0, got -1"),
        ("montecarlo", ("--dgp-seed", -2), "", "--dgp-seed must be >= -1, got -2"),
        ("simulate", ("--seed", -1), "", "--seed must be >= 0, got -1"),
        ("simulate", ("--dgp-seed", -2), "", "--dgp-seed must be >= -1, got -2"),
        ("simulate", ("--T", 0), "", "--T must be >= 1, got 0"),
        ("montecarlo", ("--burn", -1), "", "--burn must be >= 0, got -1"),
        ("forecast", (), "origins = -3\n", "--origins must be >= 0, got -3"),
        ("simulate", ("--model", "vhari", "--burn", 5), "", "--burn must be >= 22 for model vhari, got 5"),
        ("montecarlo", ("--model", "vhari", "--burn", 21), "",
         "--burn must be >= 22 for model vhari, got 21"),
        ("select", ("--p-min", 3, "--p-max", 1), "", "--p-min must be <= --p-max, got 3 > 1"),
        ("select", ("--q-min", 3, "--q-max", 2), "", "--q-min must be <= --q-max, got 3 > 2"),
        ("select", ("--p-max", 0), "", "--p-max must be >= 1, got 0"),
        ("select", (), "q_max = -1\n", "--q-max must be >= 1, got -1"),
        ("simulate", (), "dist = cauchy\n", "unknown dist 'cauchy'"),
        ("montecarlo", (), "dist = cauchy\n", "unknown dist 'cauchy'"),
        ("fit", ("--model", "drvar"), "method = wls\n", "unknown method 'wls'"),
    ])
    def test_out_of_range_values_are_refused_before_any_output(
        self, command, flags, config, message, sim_dir, tmp_path, capsys
    ):
        # each is refused by RunConfig.validate, naming its flag, before the output directory
        # is made: no numpy message, no partial report
        base = {"forecast": ("--input", sim_dir / "panel.csv", "--model", "mai", "--p", 1),
                "fit": ("--input", sim_dir / "panel.csv"),
                "simulate": ("--model", "mai", "--n", 4, "--T", 100),
                "montecarlo": ("--model", "mai", "--n", 4, "--T", 100, "--reps", 2),
                "select": ("--input", sim_dir / "panel.csv")}[command]
        if config:
            (tmp_path / "run.cfg").write_text(config)
            flags = ("--config", tmp_path / "run.cfg", *flags)
        out = tmp_path / "o"
        assert run_cli(command, *base, *flags, "--out", out) == 1
        assert capsys.readouterr().err == f"indexvar: error: {message}\n"
        assert not out.exists()

    def test_forecast_refuses_a_short_panel_before_any_report(self, sim_dir, tmp_path, capsys):
        # the rolling window is checked on the panel before the fit writes its reports
        out = tmp_path / "fc"
        assert run_cli("forecast", "--input", sim_dir / "panel.csv", "--model", "mai", "--p", 1,
                       "--origins", 5000, "--out", out) == 1
        message = "sample too short for the requested evaluation window"
        assert capsys.readouterr().err == f"indexvar: error: {message}\n"
        assert list(out.iterdir()) == []

    def test_decompose_rejects_vecm_before_writing(self, sim_dir, tmp_path, capsys):
        # the flag is not among decompose's --model choices; a configuration
        # file's value is refused by RunConfig.validate
        out = tmp_path / "dec"
        with pytest.raises(SystemExit) as info:
            run_cli("decompose", "--input", sim_dir / "panel.csv", "--model", "vecm",
                    "--p", 2, "--r", 1, "--out", out)
        assert info.value.code == 2
        assert "argument --model: invalid choice: 'vecm'" in capsys.readouterr().err
        config = tmp_path / "vecm.cfg"
        config.write_text("model = vecm\np = 2\nr = 1\n")
        code = run_cli("decompose", "--config", config, "--input", sim_dir / "panel.csv",
                       "--out", out)
        assert code == 1
        message = "no common/uncommon split for model 'vecm'"
        assert capsys.readouterr().err == f"indexvar: error: {message}\n"
        assert not out.exists()
        # an IAAR at q = 0 has no omega either: refused before it is fitted
        code = run_cli("decompose", "--input", sim_dir / "panel.csv", "--model", "iaar",
                       "--p", 2, "--s", 2, "--q", 0, "--out", out)
        assert code == 1
        message = "no common/uncommon split for model 'iaar' at q = 0"
        assert capsys.readouterr().err == f"indexvar: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_models_that_cannot_be_simulated_are_refused(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        for model in ("vecim", "vecm"):
            with pytest.raises(SystemExit):
                run_cli(command, "--model", model, "--out", out)
            assert f"invalid choice: '{model}'" in capsys.readouterr().err
            config = tmp_path / f"{model}.cfg"
            config.write_text(f"model = {model}\n")
            assert run_cli(command, "--config", config, "--out", out) == 1
            assert capsys.readouterr().err == f"indexvar: error: cannot simulate model '{model}'\n"
        assert not out.exists()

    def test_vecm_takes_no_q(self, sim_dir, tmp_path):
        # r = 2 exceeds the default q = 1, which a VECM does not read
        assert run_cli("fit", "--input", sim_dir / "panel.csv", "--model", "vecm",
                       "--p", 2, "--r", 2, "--out", tmp_path / "vecm") == 0

    @pytest.mark.parametrize("model", ["mai", "vhari"])
    def test_simulate_takes_q_equal_to_n(self, model, tmp_path):
        # the MAI and VHARI fitters take q = n, the unrestricted VAR
        orders = ("--model", model, "--p", 1, "--q", 4)
        assert run_cli("simulate", *orders, "--n", 4, "--T", 200, "--out", tmp_path / "sim") == 0
        assert run_cli("fit", *orders, "--input", tmp_path / "sim" / "panel.csv",
                       "--out", tmp_path / "fit") == 0

    def test_select_rejects_a_model_it_cannot_search(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "select.cfg"
        cfg.write_text("model = vhari\n")
        out = tmp_path / "sel"
        code = run_cli("select", "--config", cfg, "--input", sim_dir / "panel.csv", "--out", out)
        assert code == 1
        assert "'vhari'" in capsys.readouterr().err
        assert not (out / "ic_table.csv").exists()

    @pytest.mark.parametrize("model, orders", [
        ("iaar", "s = 2\np = 1\n"),                    # s > p: no IAAR fit takes it
        ("ciaar", "r = 3\n"),                          # r > q = 1
    ], ids=["iaar-s-above-p", "ciaar-r-above-q"])
    def test_select_ignores_single_fit_orders(self, model, orders, sim_dir, tmp_path):
        # select searches its own grid and reads no p, s, q or r, so a config
        # holding orders no single fit takes still selects
        cfg = tmp_path / "select.cfg"
        cfg.write_text(f"model = {model}\n{orders}p_max = 1\nq_max = 1\n")
        out = tmp_path / "sel"
        assert run_cli("select", "--config", cfg, "--input", sim_dir / "panel.csv",
                       "--out", out) == 0
        assert (out / "ic_table.csv").exists()

    def test_select_has_no_workers_flag(self, sim_dir, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli("select", "--input", sim_dir / "panel.csv", "--workers", 2,
                    "--out", tmp_path / "flag")
        assert "--workers" in capsys.readouterr().err
        # an old manifest's workers key still parses, and select fits in one process
        cfg = tmp_path / "select.cfg"
        cfg.write_text("workers = 2\nmodel = mai\np_max = 1\nq_max = 1\n")
        out = tmp_path / "sel"
        assert run_cli("select", "--config", cfg, "--input", sim_dir / "panel.csv",
                       "--out", out) == 0
        assert (out / "ic_table.csv").exists()
        assert not any(line.startswith("workers") for line in
                       (out / "manifest.txt").read_text().splitlines())

    def test_an_old_montecarlo_manifest_still_reproduces(self, tmp_path):
        # montecarlo has no workers or ridge field; an old manifest holds
        # workers and ridge = 0, and still runs to the same results
        first = tmp_path / "first"
        assert run_cli(*TestFitPipeline.MC_ARGS, "--out", first) == 0
        old = tmp_path / "old_manifest.txt"
        old.write_text((first / "manifest.txt").read_text() + "workers = 2\nridge = 0\n")
        again = tmp_path / "again"
        assert run_cli("montecarlo", "--config", old, "--out", again) == 0
        assert (again / "mc_results.csv").read_bytes() == (first / "mc_results.csv").read_bytes()
        assert "ridge" not in (again / "manifest.txt").read_text()

    def test_a_nonzero_ridge_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli(*TestFitPipeline.MC_ARGS, "--ridge", 0.1, "--out", tmp_path / "flag")
        assert "--ridge" in capsys.readouterr().err
        cfg = tmp_path / "ridge.cfg"
        cfg.write_text("ridge = 1e-3\n")
        assert run_cli(*TestFitPipeline.MC_ARGS, "--config", cfg, "--out", tmp_path / "o") == 1
        assert "ridge.cfg:1: the ridge penalty was removed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_config_value_of_the_wrong_type_names_its_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "orders.cfg"
        cfg.write_text("# orders\nmodel = mai\np = 1.5\n")
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 1
        message = f"{cfg}:3: p must be of type int, got '1.5'"
        assert capsys.readouterr().err == f"indexvar: error: {message}\n"
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code = run_cli("simulate", "--config", cfg, "--model", "mai",
                       "--n", 3, "--q", 1, "--out", tmp_path / "o")
        assert code == 1
        assert "bogus" in capsys.readouterr().err


class TestParser:
    def test_parser_is_built_once_and_keeps_no_flags_between_calls(self, tmp_path):
        from indexvar.cli import _parser

        def manifest(out):
            lines = (out / "manifest.txt").read_text().splitlines()
            return dict(line.split(" = ", 1) for line in lines if not line.startswith("#"))

        base = ["simulate", "--model", "mai", "--n", 3, "--q", 1, "--p", 1, "--T", 60]
        flags = ["--burn", 7, "--dist", "lognormal_garch", "--seed", 9]
        assert run_cli(*base, *flags, "--out", tmp_path / "a") == 0
        parser = _parser()
        assert run_cli(*base, "--out", tmp_path / "b") == 0
        assert _parser() is parser
        first, second = manifest(tmp_path / "a"), manifest(tmp_path / "b")
        assert (first["burn"], first["dist"], first["seed"]) == ("7", "lognormal_garch", "9")
        assert (second["burn"], second["dist"], second["seed"]) == ("500", "gaussian", "0")

    @pytest.mark.parametrize("flag, value", [("--p0", 7), ("--max-iter", 3), ("--tol", 0.5),
                                             ("--method", "gls")])
    def test_simulate_takes_no_fitting_flag(self, flag, value, tmp_path, capsys):
        # simulate fits nothing, so it has no fitting flag: argparse refuses it before any output
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--model", "mai", "--n", 3, "--T", 60, flag, value, "--out", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_manifest_with_fitting_values_still_reproduces_simulate(self, tmp_path):
        # a manifest echoes every RunConfig field, so an older simulate run's holds the
        # fitting values it was given; fed back, they still parse and change no output
        first = tmp_path / "first"
        assert run_cli("simulate", "--model", "ciaar", "--n", 4, "--q", 2, "--p", 2, "--s", 2,
                       "--r", 1, "--T", 80, "--seed", 5, "--out", first) == 0
        fitting = {"max_iter": "3", "tol": "0.5", "method": "gls", "p0": "7"}
        lines = (first / "manifest.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert sum(key in fitting for key in keys) == 4
        old = tmp_path / "old_manifest.txt"
        old.write_text("".join(f"{key} = {fitting[key]}\n" if key in fitting else line + "\n"
                               for key, line in zip(keys, lines)))
        again = tmp_path / "again"
        assert run_cli("simulate", "--config", old, "--out", again) == 0
        for name in ("panel.csv", "dgp_params.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name
        manifest = (again / "manifest.txt").read_text()
        assert "max_iter = 3\n" in manifest and "method = gls\n" in manifest

    # each subcommand's flags as (option, dest, type, choices, default), in --help order
    COMMON = [("--config", "config", None, None, None), ("--out", "out", None, None, None),
              ("--seed", "seed", int, None, None)]
    # --model's choices: what fit and forecast take, what decompose splits,
    # and what simulate and montecarlo draw
    FIT = [("--model", "model", None, ("mai", "vhari", "iaar", "ciaar", "vecim", "vecm", "drvar"), None)]
    SPLIT = [("--model", "model", None, ("mai", "vhari", "iaar", "ciaar", "vecim", "drvar"), None)]
    DRAW = [("--model", "model", None, ("mai", "vhari", "iaar", "ciaar", "drvar"), None)]
    ORDERS = [
        ("--p", "p", int, None, None), ("--s", "s", int, None, None),
        ("--q", "q", int, None, None), ("--r", "r", int, None, None),
    ]
    FITTING = ORDERS + [
        ("--p0", "p0", int, None, None), ("--max-iter", "max_iter", int, None, None),
        ("--tol", "tol", float, None, None), ("--method", "method", None, ("ols", "gls"), None),
    ]
    DGP = [("--n", "n", int, None, None), ("--T", "T", int, None, None),
           ("--burn", "burn", int, None, None), ("--dgp-seed", "dgp_seed", int, None, None)]
    DIST = [("--dist", "dist", None, ("gaussian", "lognormal_garch"), None)]
    INPUT = [("--input", "input", None, None, None)]
    HORIZON = [("--horizon", "horizon", int, None, None)]
    EXPECTED = {
        "simulate": COMMON + DRAW + ORDERS + DGP + DIST,
        "fit": COMMON + FIT + FITTING + INPUT,
        "decompose": COMMON + SPLIT + FITTING + INPUT + HORIZON,
        "forecast": COMMON + FIT + FITTING + INPUT + HORIZON + [
            ("--origins", "origins", int, None, None), ("--refit", "refit", int, None, None)],
        "select": COMMON + INPUT + [
            ("--model", "model", None, ("ciaar", "iaar", "mai"), None),
            ("--p-min", "p_min", int, None, None), ("--p-max", "p_max", int, None, None),
            ("--q-min", "q_min", int, None, None), ("--q-max", "q_max", int, None, None),
            ("--max-iter", "max_iter", int, None, None),
            ("--criterion", "criterion", None, ("aic", "bic", "hq"), None),
            ("--tol", "tol", float, None, None),
        ],
        "montecarlo": COMMON + DRAW + FITTING + DGP + [("--reps", "reps", int, None, None)] + DIST,
    }

    def test_each_subcommand_keeps_its_flags(self):
        from indexvar.cli import _parser

        subparsers, = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(self.EXPECTED)
        counts = {"simulate": 13, "fit": 13, "decompose": 14, "forecast": 16, "select": 12,
                  "montecarlo": 18}
        for name, parser in subparsers.choices.items():
            flags = [
                (a.option_strings[0], a.dest, a.type, a.choices and tuple(a.choices), a.default)
                for a in parser._actions if a.dest != "help"
            ]
            assert flags == self.EXPECTED[name], name
            assert len(flags) == counts[name], name

    @pytest.mark.parametrize("sub", [[], ["simulate"], ["fit"], ["decompose"], ["forecast"],
                                     ["select"], ["montecarlo"]], ids=lambda s: s[0] if s else "top")
    def test_help_exits_zero(self, sub):
        done = subprocess.run([sys.executable, "-m", "indexvar.cli", *sub, "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"usage: indexvar {sub[0] + ' ' if sub else ''}[-h]")


class TestReportFormatting:
    """The report writers format through one "%.17g" row template; the
    per-cell format(v, ".17g") they replaced is the reference."""

    VALUES = np.array([
        [0.0, -0.0, 1.0, -1.0, 0.1],
        [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308],
        [1.7976931348623157e308, -1e300, 123456789012345678.0, 1 / 3, -2.5e-17],
    ])

    @staticmethod
    def per_cell(rows, sep):
        return [sep.join(format(v, ".17g") for v in row) for row in rows]

    def test_rows_match_the_per_cell_format(self):
        from indexvar.cli import _array_lines
        from indexvar.tscore import format_rows

        assert format_rows(self.VALUES.tolist(), ",") == self.per_cell(self.VALUES, ",")
        assert _array_lines(self.VALUES) == ["  " + s for s in self.per_cell(self.VALUES, " ")]
        assert _array_lines(np.zeros((1, 0))) == ["  "]
        assert format_rows([], ",") == []

    def test_csv_writers_write_the_per_cell_bytes(self, tmp_path):
        from indexvar.cli import _write_series_csv, write_panel_csv
        from indexvar.tscore import Panel

        finite = self.VALUES[[0, 2]]
        write_panel_csv(Panel(finite, ["a", "b", "c", "d", "e"]), tmp_path / "panel.csv")
        want = "\n".join(["a,b,c,d,e"] + self.per_cell(finite, ",")) + "\n"
        assert (tmp_path / "panel.csv").read_text() == want
        columns = {"step": np.arange(1.0, 4.0), "x": self.VALUES[:, 1], "y": self.VALUES[:, 3]}
        _write_series_csv(tmp_path / "series.csv", list(columns), list(columns.values()))
        rows = np.column_stack(list(columns.values()))
        want = "\n".join(["step,x,y"] + self.per_cell(rows, ",")) + "\n"
        assert (tmp_path / "series.csv").read_text() == want

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_csv_writers_write_the_per_cell_bytes_across_blocks(self, tmp_path, blocks, extra):
        from indexvar.cli import REPORT_BLOCK, _write_series_csv, write_panel_csv

        T = blocks * REPORT_BLOCK + extra
        finite = np.resize(self.VALUES[[0, 2]], (T, 5))
        write_panel_csv(Panel(finite, list("abcde")), tmp_path / "panel.csv")
        want = "\n".join(["a,b,c,d,e"] + self.per_cell(finite, ",")) + "\n"
        assert (tmp_path / "panel.csv").read_text() == want
        tiled = np.resize(self.VALUES, (T, 5))
        columns = {"step": np.arange(1.0, T + 1), **{k: tiled[:, j] for j, k in enumerate("vwxyz")}}
        _write_series_csv(tmp_path / "series.csv", list(columns), list(columns.values()))
        rows = np.column_stack(list(columns.values()))
        want = "\n".join(["step,v,w,x,y,z"] + self.per_cell(rows, ",")) + "\n"
        assert (tmp_path / "series.csv").read_text() == want

    def test_headers_that_need_quoting_read_back_as_written(self, tmp_path):
        from indexvar.cli import _write_series_csv, write_panel_csv
        from indexvar.forecast import MsfeTable

        def header(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {len(rows[0])}
            return rows[0]

        names = ["a,b", "c", 'say "d"', "e\r\nf"]
        values = self.VALUES[[0, 2], :4]
        write_panel_csv(Panel(values, names), tmp_path / "panel.csv")
        back = read_panel_csv(tmp_path / "panel.csv")
        assert back.names == names
        assert np.array_equal(back.values, values)
        write_panel_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "panel.csv").read_bytes()
        _write_series_csv(tmp_path / "forecast.csv", ["step", *names],
                          [np.arange(1.0, 3.0), *values.T])
        assert header(tmp_path / "forecast.csv") == ["step", *names]
        MsfeTable(values, np.array([5, 4]), names).to_csv(tmp_path / "msfe.csv")
        assert header(tmp_path / "msfe.csv") == ["horizon", *names, "n_origins"]

    def test_series_report_memory_does_not_grow_with_its_rows(self, tmp_path):
        import tracemalloc

        from indexvar.cli import _write_series_csv

        rng = np.random.default_rng(0)
        columns = {f"c{j}": rng.standard_normal(2000) for j in range(24)}
        path = tmp_path / "series.csv"
        tracemalloc.start()
        try:
            _write_series_csv(path, list(columns), list(columns.values()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole report held as rows, lines and text at once peaks near 5x the file
        assert peak < path.stat().st_size / 2
