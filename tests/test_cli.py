import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from zetalab import cli, zeros


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_outputs(out_dir):
    out = Path(out_dir)
    return (
        (out / "results.csv").read_text(),
        json.loads((out / "results.json").read_text()),
        json.loads((out / "manifest.json").read_text()),
    )


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2 + 0j),
            ("-1", -1 + 0j),
            ("0.5+0.5i", 0.5 + 0.5j),
            ("1+i", 1 + 1j),
            ("i", 1j),
            ("-2.5j", -2.5j),
            ("1-i", 1 - 1j),
        ],
    )
    def test_forms(self, text, expected):
        assert cli.parse_complex(text) == expected


class TestRmtMoment:
    def test_row_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        status = run_cli(
            ["--output-dir", out, "rmt-moment", "--n", 8, "--k", "2",
             "--samples", 20000, "--seed", 7]
        )
        assert status == 0
        csv_text, rows, manifest = read_outputs(out)
        assert csv_text.splitlines()[0] == ",".join(cli.CSV_COLUMNS)
        assert rows[0]["experiment"] == "rmt-moment"
        assert float(rows[0]["predicted_re"]) == pytest.approx(-15.0, abs=1e-9)
        # estimate lands in a loose band around the exact value at 2e4 samples
        assert float(rows[0]["empirical_re"]) == pytest.approx(-15.0, abs=10.0)
        assert manifest["config"]["seed"] == 7
        assert manifest["checksums"]["results.csv"]
        assert manifest["column_contract"]["provenance"]["empirical_re"] == "empirical"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["rmt-moment", "--n", 4, "--k", "1", "--samples", 5000, "--seed", 3]
        run_cli(["--output-dir", tmp_path / "a"] + args)
        run_cli(["--output-dir", tmp_path / "b"] + args)
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b


class TestGates:
    def test_toeplitz_k0_gate_passes(self, tmp_path):
        status = run_cli(
            ["--output-dir", tmp_path, "toeplitz-check", "--k", "0", "--sizes", "8,16,32"]
        )
        assert status == 0
        _, rows, manifest = read_outputs(tmp_path)
        assert len(rows) == 3
        assert manifest["gates"]
        assert manifest["gate_failures"] == []

    def test_failing_gate_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gates": [{"name": "impossible", "column": "ratio_re", "min": 0.999999, "max": 1.000001}]
        }))
        status = run_cli(
            ["--config", cfg, "--output-dir", tmp_path / "out", "toeplitz-check",
             "--k", "1", "--sizes", "8"]
        )
        assert status == 3
        err = capsys.readouterr().err
        assert "impossible" in err

    @pytest.mark.parametrize(
        "gate",
        [
            {"name": "band", "column": "ratio_re", "min": 0.9, "max": 1.1},
            {"name": "band", "column": "ratio_re", "abs_max": 2.0},
        ],
    )
    def test_nan_fails_its_gate(self, gate):
        failures = cli.evaluate_gates([gate], [{"ratio_re": "1.0"}, {"ratio_re": "nan"}, {"ratio_re": ""}])
        assert len(failures) == 1 and "'band'" in failures[0] and "row 1" in failures[0]

    def test_config_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "k": "1", "samples": 2000, "seed": 1}))
        status = run_cli(
            ["--config", cfg, "--output-dir", tmp_path / "out", "rmt-moment", "--samples", 4000]
        )
        assert status == 0
        _, rows, manifest = read_outputs(tmp_path / "out")
        assert manifest["config"]["samples"] == 4000  # flag wins
        assert manifest["config"]["n"] == 2  # config survives

    def test_missing_field_config_error(self, tmp_path):
        status = run_cli(["--output-dir", tmp_path, "rmt-moment", "--n", 4])
        assert status == 2

    @pytest.mark.parametrize(
        "workers, k_flag",
        [(1, "--k=abc"), (1, "--k=-4"), (0, "--k=1")],
        ids=["--k=abc", "--k=-4", "--workers=0"],
    )
    def test_invalid_input_exit_2(self, tmp_path, capsys, workers, k_flag):
        status = run_cli(
            ["--output-dir", tmp_path, "--workers", workers, "rmt-moment", "--n", 4, k_flag,
             "--samples", 100]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestZerosSubcommands:
    def test_compute_load_cross_validate(self, tmp_path, published_table_path):
        out_file = tmp_path / "computed.txt"
        status = run_cli(
            ["--output-dir", tmp_path / "c", "zeros", "compute", "--t-max", 60, "--out", out_file]
        )
        assert status == 0
        assert out_file.exists()

        status = run_cli(["--output-dir", tmp_path / "l", "zeros", "load", "--path", out_file])
        assert status == 0
        _, rows, _ = read_outputs(tmp_path / "l")
        assert int(rows[0]["n_zeros"]) == 13  # zeros below 60

        status = run_cli(
            ["--output-dir", tmp_path / "x", "zeros", "cross-validate",
             "--a", out_file, "--b", published_table_path]
        )
        assert status == 0
        _, rows, _ = read_outputs(tmp_path / "x")
        assert float(rows[0]["empirical_re"]) < 1e-6  # max |delta gamma|

    def test_compute_count_is_certified(self, tmp_path, monkeypatch):
        # round(theta/pi + 1) says 51 here; N(145.6793) is 50
        monkeypatch.delenv(zeros.CACHE_ENV, raising=False)
        assert run_cli(["--output-dir", tmp_path, "zeros", "compute", "--t-max", 145.6793]) == 0
        _, rows, _ = read_outputs(tmp_path)
        assert float(rows[0]["empirical_re"]) == float(rows[0]["predicted_re"]) == 50

    def test_missing_zero_error_exit_2(self, tmp_path, monkeypatch, capsys):
        real = zeros._brackets

        def lossy(pts, z):
            lo, hi, zz = real(pts, z)
            return lo[:-2], hi[:-2], zz[:-2]

        monkeypatch.delenv(zeros.CACHE_ENV, raising=False)
        monkeypatch.setattr(zeros, "_brackets", lossy)
        assert run_cli(["--output-dir", tmp_path, "zeros", "compute", "--t-max", 50]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "MissingZeroError" in err

    def test_cross_validate_tol_gate(self, tmp_path, published_table_path):
        args = ["zeros", "cross-validate", "--a", "compute", "--b", published_table_path]
        assert run_cli(["--output-dir", tmp_path / "d"] + args) == 0
        assert run_cli(["--output-dir", tmp_path / "t"] + args + ["--tol", 1e-12]) == 3
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        assert manifest["gate_failures"]


class TestOracleAndHybrid:
    def test_rmt_oracle(self, tmp_path):
        status = run_cli(
            ["--output-dir", tmp_path, "rmt-oracle", "--n", 2, "--k", "1", "--grid", 512]
        )
        assert status == 0
        _, rows, _ = read_outputs(tmp_path)
        assert float(rows[0]["empirical_im"]) == pytest.approx(1.5, abs=1e-5)

    def test_hybrid_fourier_check(self, tmp_path):
        status = run_cli(
            ["--output-dir", tmp_path, "hybrid-fourier-check", "--x", math.e**2,
             "--k", "1", "--j-window", 40, "--grid", 64, "--m-max", 4]
        )
        assert status == 0
        _, rows, _ = read_outputs(tmp_path)
        assert len(rows) == 4
        for row in rows:
            emp = complex(float(row["empirical_re"]), float(row["empirical_im"]))
            pred = complex(float(row["predicted_re"]), float(row["predicted_im"]))
            assert abs(emp - pred) < 1e-5

    @pytest.mark.parametrize(
        "args",
        [
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--grid", 0],
            ["rmt-oracle", "--n", 2, "--k", "1", "--grid", 0],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--grid", -4],
            ["rmt-oracle", "--n", 2, "--k", "1", "--grid", -3],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--j-window", -1],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--m-max", -1],
        ],
        ids=["fourier-grid-0", "oracle-grid-0", "fourier-grid-neg", "oracle-grid-neg",
             "j-window-neg", "m-max-neg"],
    )
    def test_senseless_grid_exit_2(self, tmp_path, capsys, args):
        assert run_cli(["--output-dir", tmp_path, *args]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "DomainError" in err
        assert not (tmp_path / "results.csv").exists()

    def test_heine_routes_at_k_minus_2(self, tmp_path):
        # k = -2 is admissible: the power law is 0 there, and the Heine value exists
        status = run_cli(["--output-dir", tmp_path / "t", "toeplitz-check", "--k=-2", "--sizes", "8,16"])
        assert status == 0
        _, rows, _ = read_outputs(tmp_path / "t")
        assert [float(r["predicted_re"]) for r in rows] == [0.0, 0.0]
        status = run_cli(["--output-dir", tmp_path / "h", "hybrid-mc", "--n", 4, "--x", 20.09,
                          "--k=-2", "--samples", 1000])
        assert status == 0
        _, rows, _ = read_outputs(tmp_path / "h")
        assert math.isfinite(float(rows[0]["predicted_re"]))


class TestExperimentSubcommands:
    def test_landau_gonek_with_table(self, tmp_path, zeros_5000, zeros_cache_dir):
        table = tmp_path / "zeros.txt"
        table.write_text("".join(f"{g:.11f}\n" for g in zeros_5000.gammas))
        status = run_cli(
            ["--output-dir", tmp_path / "lg", "landau-gonek", "--t", 5000,
             "--m", 2, "--zeros", table]
        )
        assert status == 0
        _, rows, _ = read_outputs(tmp_path / "lg")
        assert float(rows[0]["predicted_re"]) == pytest.approx(-275.8, abs=0.1)
        assert float(rows[0]["empirical_re"]) == pytest.approx(-275.8, rel=0.2)

    def test_conjecture_table(self, tmp_path, zeros_5000):
        table = tmp_path / "zeros.txt"
        table.write_text("".join(f"{g:.11f}\n" for g in zeros_5000.gammas))
        status = run_cli(
            ["--output-dir", tmp_path / "ct", "conjecture-table", "--k", "1",
             "--t", "1000,2500", "--zeros", table]
        )
        assert status == 0
        _, rows, _ = read_outputs(tmp_path / "ct")
        assert [float(r["T"]) for r in rows] == [1000.0, 2500.0]
        assert all(r["n_zeros"] for r in rows)


class TestRuntimeWithoutScipy:
    # runs in a fresh process: output directory as argv[1]
    _SCRIPT = textwrap.dedent(
        """
        import sys
        from pathlib import Path
        from zetalab import cli
        assert "scipy" not in sys.modules, "import zetalab.cli"
        runs = {
            "toeplitz-check": ["--k", "1", "--sizes", "8,16"],
            "hybrid-mc": ["--n", "4", "--x", "20.09", "--k", "1", "--samples", "1000"],
            "hybrid-fourier-check": ["--x", "7.39", "--k", "1", "--j-window", "40",
                                     "--grid", "64", "--m-max", "4"],
        }
        for name, args in runs.items():
            status = cli.main(["--output-dir", str(Path(sys.argv[1]) / name), name, *args])
            assert status == 0, (name, status)
            assert "scipy" not in sys.modules, name
        """
    )

    def test_cli_and_subcommands_leave_scipy_unimported(self, tmp_path):
        # scipy serves the tests only: a fresh process that imports the CLI and
        # runs the Toeplitz, hybrid Monte-Carlo and Fourier-quadrature
        # subcommands never loads it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", self._SCRIPT, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
