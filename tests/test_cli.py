import numpy as np
import pytest

from indexvar import cli
from indexvar.cli import main
from indexvar.tscore import read_panel_csv


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

    def test_montecarlo_worker_pool_matches_serial(self, tmp_path):
        written = []
        for workers in (1, 2):
            out = tmp_path / f"mc{workers}"
            assert run_cli(
                "montecarlo", "--model", "mai", "--n", 4, "--q", 1, "--p", 1,
                "--T", 200, "--reps", 4, "--seed", 7, "--workers", workers, "--out", out,
            ) == 0
            written.append((out / "mc_results.csv").read_bytes())
        assert written[0] == written[1]


class TestErrors:
    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("fit", "--input", tmp_path / "nope.csv", "--model", "mai",
                       "--p", 1, "--q", 1, "--out", tmp_path / "o")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_inadmissible_orders_rejected(self, tmp_path, capsys):
        code = run_cli("simulate", "--model", "ciaar", "--n", 4, "--q", 2,
                       "--p", 2, "--s", 3, "--r", 1, "--out", tmp_path / "o")
        assert code == 1
        assert "s <= p" in capsys.readouterr().err

    def test_select_rejects_a_model_it_cannot_search(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "select.cfg"
        cfg.write_text("model = vhari\n")
        out = tmp_path / "sel"
        code = run_cli("select", "--config", cfg, "--input", sim_dir / "panel.csv", "--out", out)
        assert code == 1
        assert "'vhari'" in capsys.readouterr().err
        assert not (out / "ic_table.csv").exists()

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
        flags = ["--max-iter", 7, "--tol", 0.5, "--seed", 9]
        assert run_cli(*base, *flags, "--out", tmp_path / "a") == 0
        parser = _parser()
        assert run_cli(*base, "--out", tmp_path / "b") == 0
        assert _parser() is parser
        first, second = manifest(tmp_path / "a"), manifest(tmp_path / "b")
        assert (first["max_iter"], first["tol"], first["seed"]) == ("7", "0.5", "9")
        assert (second["max_iter"], second["tol"], second["seed"]) == ("500", "1e-08", "0")


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
        from indexvar.cli import _array_lines, _format_rows

        assert _format_rows(self.VALUES.tolist(), ",") == self.per_cell(self.VALUES, ",")
        assert _array_lines(self.VALUES) == ["  " + s for s in self.per_cell(self.VALUES, " ")]
        assert _array_lines(np.zeros((1, 0))) == ["  "]
        assert _format_rows([], ",") == []

    def test_csv_writers_write_the_per_cell_bytes(self, tmp_path):
        from indexvar.cli import _write_series_csv, write_panel_csv
        from indexvar.tscore import Panel

        finite = self.VALUES[[0, 2]]
        write_panel_csv(Panel(finite, ["a", "b", "c", "d", "e"]), tmp_path / "panel.csv")
        want = "\n".join(["a,b,c,d,e"] + self.per_cell(finite, ",")) + "\n"
        assert (tmp_path / "panel.csv").read_text() == want
        columns = {"step": np.arange(1.0, 4.0), "x": self.VALUES[:, 1], "y": self.VALUES[:, 3]}
        _write_series_csv(tmp_path / "series.csv", columns)
        rows = np.column_stack(list(columns.values()))
        want = "\n".join(["step,x,y"] + self.per_cell(rows, ",")) + "\n"
        assert (tmp_path / "series.csv").read_text() == want
