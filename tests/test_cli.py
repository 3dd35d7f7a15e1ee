import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from zetalab import cli, experiments, hybrid, rmt, toeplitz, zeros

TABLE_5000 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "zeros_t5000.txt"


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

    @pytest.mark.parametrize("text", ["nan", "1e400", "-1e400i", "1+1e400i", "1e400+1i"])
    def test_non_finite_refused(self, text):
        with pytest.raises(ValueError, match="is not a finite complex number"):
            cli.parse_complex(text)


@pytest.mark.parametrize("value", [float("nan"), np.float64("nan")], ids=["float", "float64"])
def test_fmt_nan(value):
    assert cli._fmt(value) == "nan"


def test_readme_commands_parse():
    # a renamed flag or subcommand fails here instead of leaving the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^zetalab (.+)$", readme, flags=re.MULTILINE)
    assert lines
    parser = cli._parser()
    for line in lines:
        parser.parse_args(shlex.split(line))


def test_row_splits_a_complex_extra():
    row = cli._row("x", real=0.5, count=3, text="a", value=complex(1.5, -2.0), zero=0j)
    assert (row["real"], row["count"], row["text"]) == (0.5, 3, "a")
    assert (row["value_re"], row["value_im"], row["zero_re"], row["zero_im"]) == (1.5, -2.0, 0.0, 0.0)
    assert all(type(row[key]) is float for key in ("value_re", "value_im", "zero_re", "zero_im"))
    assert "value" not in row and "zero" not in row


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
        for name in ("results.csv", "results.json"):
            assert manifest["checksums"][name] == hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert manifest["column_contract"]["provenance"]["empirical_re"] == "empirical"

    def test_two_workers_split_into_two_streams(self, tmp_path):
        assert run_cli(["--output-dir", tmp_path, "--workers", 2, "rmt-moment", "--n", 4, "--k", "1",
                        "--samples", 1000, "--seed", 9]) == 0
        _, rows, _ = read_outputs(tmp_path)
        two = rmt.mc_moment(4, 1, 1000, seed=9, workers=2).mean
        assert complex(float(rows[0]["empirical_re"]), float(rows[0]["empirical_im"])) == two
        assert two != rmt.mc_moment(4, 1, 1000, seed=9, workers=1).mean

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
        cfg.write_text(json.dumps({"gates": [
            {"name": "impossible", "column": "ratio_re", "min": 0.999999, "max": 1.000001},
            {"name": "floor", "column": "ratio_re", "min": 1e6},
        ]}))
        status = run_cli(
            ["--config", cfg, "--output-dir", tmp_path / "out", "toeplitz-check",
             "--k", "1", "--sizes", "8"]
        )
        assert status == 3
        err = capsys.readouterr().err
        assert "'impossible'" in err and "'floor'" in err and "< min 1e+06" in err

    def test_gates_read_json_extras(self, tmp_path, capsys, published_table_path):
        # a numeric extra can be gated; a gate on a text column is a config error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gates": [{"column": "count_a", "max": 10}]}))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "x", "zeros", "cross-validate",
                        "--a", published_table_path, "--b", published_table_path]) == 3
        cfg.write_text(json.dumps({"gates": [{"column": "source", "max": 10}]}))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "l", "zeros", "load",
                        "--path", published_table_path]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 2

    def test_gate_on_text_exits_2_naming_the_gate(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gates": [{"column": "source", "max": 2}]}))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "zeros", "load",
                        "--path", TABLE_5000]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"zeros load: ValueError: gate 'source': row 0 source is the text "
                       f"'ingested:{TABLE_5000}', not a number"]

    @pytest.mark.parametrize("low, high, status", [(3.4, 3.6, 0), (3.6, 3.8, 3)])
    def test_gate_on_a_complex_extra(self, tmp_path, low, high, status):
        # normalized_by_formula is 3.48... at T = 5000: its real part is gated as a number
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gates": [{"column": "normalized_by_formula_re", "min": low, "max": high}]}))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "conjecture-table", "--k", "1",
                        "--t", "5000", "--zeros", TABLE_5000]) == status

    @pytest.mark.parametrize("gate", [{"column": "ratio_rr", "max": -1}, {"name": "nameless", "max": -1}])
    def test_gate_naming_no_column_exits_2(self, tmp_path, capsys, gate):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gates": [gate]}))
        status = run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "toeplitz-check",
                          "--k", "1", "--sizes", "8"])
        assert status == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

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

    @pytest.mark.parametrize("bad", [{"seeed": 5, "gird": 8}, {"output-dir": "elsewhere"}],
                             ids=["seeed", "output-dir"])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, bad):
        # a misspelled key would otherwise run with the default it meant to replace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "k": "1", "samples": 1000, **bad}))
        status = run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "rmt-moment"])
        assert status == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and all(repr(key) in err[0] for key in bad)
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_output_dir_that_cannot_be_made_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        # the directory is made before the job, so a long run is not lost to a path that is a file
        def job(*args):
            raise AssertionError("the job ran")

        monkeypatch.setattr(cli.rmt, "weyl_quadrature_oracle", job)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(["--output-dir", taken, "rmt-oracle", "--n", 2, "--k", "1", "--grid", 64]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "FileExistsError" in err[0]
        # a run refused at config time makes no directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2.5, "k": "1"}))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "rmt-oracle"]) == 2
        assert not (tmp_path / "out").exists()

    def test_output_file_that_cannot_be_written_exit_2(self, tmp_path, capsys):
        # a directory where results.csv goes: one line and exit 2, not a traceback
        (tmp_path / "results.csv").mkdir()
        assert run_cli(["--output-dir", tmp_path, "rmt-oracle", "--n", 2, "--k", "1", "--grid", 64]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "IsADirectoryError" in err[0]

    def test_config_holding_no_object_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"n": 4}]))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "rmt-oracle", "--n", 2, "--k", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "holds no JSON object" in err[0]

    @pytest.mark.parametrize(
        "name, bad",
        [("rmt-oracle", {"n": 2.7, "k": "1", "grid": 64}), ("rmt-moment", {"n": True, "k": "1", "samples": 1000}),
         ("rmt-oracle", {"n": 2, "k": "1", "grid": 64.5})],
        ids=["oracle-n-2.7", "moment-n-true", "oracle-grid-64.5"],
    )
    def test_int_field_refuses_bool_and_fraction(self, tmp_path, capsys, name, bad):
        # int(2.7) and int(True) would run at n = 2 and n = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", name]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "needs an integer" in err[0]
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "name, bad, field",
        [("hybrid-fourier-check", {"x": 7.389, "k": "1", "y": True, "j_window": 20, "grid": 32}, "y"),
         ("landau-gonek", {"t": True, "m": 2, "zeros": str(TABLE_5000)}, "t"),
         ("zeros compute", {"t_max": 50, "out": True}, "out")],
        ids=["fourier-y-true", "landau-gonek-t-true", "zeros-out-true"],
    )
    def test_every_field_refuses_bool(self, tmp_path, capsys, monkeypatch, name, bad, field):
        # float(True) would run at Y = 1 or T = 1, and str(True) write the table to a file "True"
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", *name.split()]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"field {field!r} needs a" in err[0]
        assert not (tmp_path / "out" / "results.csv").exists() and not (tmp_path / "True").exists()

    def test_int_field_takes_an_integral_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2.0, "k": "1", "samples": 1e3}))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "rmt-moment"]) == 0
        config = read_outputs(tmp_path / "out")[2]["config"]
        assert (config["n"], config["samples"]) == (2, 1000)
        assert type(config["samples"]) is int
        # the flag text of the same numbers is taken as the JSON numbers are
        assert run_cli(["--output-dir", tmp_path / "flag", "rmt-moment", "--n", "2.0", "--k", "1", "--samples", "1e3"]) == 0
        assert (tmp_path / "flag" / "results.csv").read_bytes() == (tmp_path / "out" / "results.csv").read_bytes()

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize(
        "name, fields, field, value",
        [("rmt-moment", {"k": "1", "samples": 100}, "n", 1.5),
         ("toeplitz-check", {"k": "1", "sizes": "8"}, "x", "e3"),
         ("rmt-moment", {"n": 4, "k": "1", "samples": 100}, "workers", 1.5),
         ("rmt-moment", {"n": 4, "k": "1"}, "samples", "1e400"),
         ("rmt-moment", {"n": 4, "k": "1"}, "samples", "nan"),
         ("rmt-moment", {"n": 4, "samples": 100}, "k", "1+"),
         ("toeplitz-check", {"k": "1"}, "sizes", ""),
         ("toeplitz-check", {"k": "1"}, "sizes", "8,1.5"),
         ("conjecture-table", {"k": "1", "zeros": str(TABLE_5000)}, "t", "1000,,5000")],
        ids=["int-n", "float-x", "workers", "int-samples-1e400", "int-samples-nan", "complex-k",
             "sizes-empty", "sizes-fraction", "heights-empty"],
    )
    def test_bad_value_exits_2_naming_the_field(self, tmp_path, capsys, route, name, fields, field, value):
        # the flags stay text and _resolve casts them as it casts the config
        # file: one line either way, no argparse usage
        given = fields | {field: value}
        if route == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            args = ["--config", cfg, name]
        else:
            workers = ["--workers", given.pop("workers")] if "workers" in given else []
            args = [*workers, name, *(f"--{key.replace('_', '-')}={val}" for key, val in given.items())]
        assert run_cli(["--output-dir", tmp_path / "out", *args]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"field {field!r} needs a" in err[0], err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [["rmt-oracle", "--n", rmt._WEYL_N_MAX + 1, "--k", "1", "--grid", 4],
         ["toeplitz-check", "--k", "1", "--sizes", f"8,{toeplitz._SERIES_N_MAX + 1}"],
         ["hybrid-mc", "--n", toeplitz._SERIES_N_MAX + 1, "--x", 20.0855, "--k", "1", "--samples", 100],
         ["hybrid-mc", "--n", 8, "--x", 1e6, "--k", "1", "--samples", 100],
         ["toeplitz-check", "--k", "1", "--sizes", "8,4096", "--x", 1e300],
         ["rmt-oracle", "--n", 2, "--k", "1", "--grid", 10**9],
         ["hybrid-fourier-check", "--x", 20, "--k", "1", "--grid", 10**8],
         ["hybrid-fourier-check", "--x", 20, "--k", "1", "--m-max", 10**9],
         ["hybrid-fourier-check", "--x", 20, "--k", "1", "--j-window", 10**9],
         ["rmt-moment", "--n", 10**9, "--k", "1", "--samples", 100]],
        ids=["rmt-oracle-n", "toeplitz-check-sizes", "hybrid-mc-n", "hybrid-mc-x", "toeplitz-check-x",
             "rmt-oracle-grid", "fourier-grid", "fourier-m-max", "fourier-j-window", "rmt-moment-n"],
    )
    def test_size_above_cap_exits_2_at_once(self, tmp_path, capsys, args):
        # the Weyl oracle, the Fourier quadrature, the Monte-Carlo draw and the
        # Toeplitz series refuse before they allocate (each of the last five
        # sizes asks for 7.45 GiB or more), and the hybrid model's prime cutoff
        # before any series
        start = time.perf_counter()
        assert run_cli(["--output-dir", tmp_path, *args]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "CapabilityError" in err[0], err

    @pytest.mark.parametrize(
        "args, field, cap",
        [(["rmt-oracle", "--n", 2, "--k", "1", "--grid"], "grid", rmt._WEYL_GRID_MAX),
         (["rmt-moment", "--k", "1", "--samples", 100, "--n"], "n", rmt._MC_N_MAX),
         *((["hybrid-fourier-check", "--x", 20, "--k", "1", "--" + field.replace("_", "-")], field, cap)
           for field, cap in hybrid._QUADRATURE_CAPS.items())],
        ids=["rmt-oracle-grid", "rmt-moment-n", "fourier-grid", "fourier-j-window", "fourier-m-max"],
    )
    def test_one_above_cap_names_the_field_and_its_cap(self, tmp_path, capsys, args, field, cap):
        assert run_cli(["--output-dir", tmp_path, *args, cap + 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"supports {field} <= {cap} (got {cap + 1})" in err[0], err

    def test_text_fields_keep_their_text(self, tmp_path):
        # k, conjecture-table's t and toeplitz-check's sizes are checked where
        # every field is cast, and the CSV and the manifest show them as given
        assert run_cli(["--output-dir", tmp_path, "toeplitz-check", "--k", " 0.5+0.5i", "--sizes", "8, 16"]) == 0
        _, rows, manifest = read_outputs(tmp_path)
        assert [row["k"] for row in rows] == [" 0.5+0.5i"] * 2
        assert (manifest["config"]["k"], manifest["config"]["sizes"]) == (" 0.5+0.5i", "8, 16")

    def test_manifest_records_every_default(self, tmp_path):
        assert run_cli(["--output-dir", tmp_path / "o", "rmt-oracle", "--n", 2, "--k", "1"]) == 0
        assert read_outputs(tmp_path / "o")[2]["config"]["grid"] == 1024
        assert run_cli(["--output-dir", tmp_path / "f", "hybrid-fourier-check", "--x", 7.389, "--k", "1",
                        "--j-window", 20, "--grid", 32]) == 0
        config = read_outputs(tmp_path / "f")[2]["config"]
        assert (config["y"], config["m_max"], config["workers"]) == (4.0, 8, 1)
        assert run_cli(["--output-dir", tmp_path / "p", "px-mean", "--t", 100, "--zeros", "compute"]) == 0
        _, rows, manifest = read_outputs(tmp_path / "p")
        assert manifest["config"]["x"] == math.log(100) == float(rows[0]["X"])
        assert manifest["config"]["k"] == "1" and "m_max" not in manifest["config"]

    def test_m_max_is_no_field_of_the_zeta_side_predictions(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 100, "m_max": 10**6}))
        assert run_cli(["--config", cfg, "--output-dir", tmp_path / "out", "twisted"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'m_max'" in err[0]
        with pytest.raises(SystemExit) as exc:
            run_cli(["--output-dir", tmp_path / "out", "px-mean", "--t", 100, "--m-max", 10**6])
        assert exc.value.code == 2
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("name", ["zeros", *cli._SUBCOMMANDS])
    def test_help_for_every_subcommand(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([*name.split(), "--help"])
        assert exc.value.code == 0
        assert "usage: zetalab " + name in capsys.readouterr().out

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

    @pytest.mark.parametrize("workers, fault", [(0, "needs an integer >= 1, got 0"),
                                                (2, "must be 1 for zeros compute, which draws no samples")])
    def test_workers_exit_2_naming_the_field(self, tmp_path, capsys, workers, fault):
        status = run_cli(["--output-dir", tmp_path, "--workers", workers, "zeros", "compute", "--t-max", 100])
        assert status == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"field 'workers' {fault}" in err[0], err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("k", ["nan", "1e400"])
    @pytest.mark.parametrize(
        "args",
        [
            ["rmt-moment", "--n", 4, "--samples", 100],
            ["rmt-oracle", "--n", 2],
            ["hybrid-fourier-check", "--x", 20],
            ["hybrid-mc", "--x", 20, "--samples", 100],
            ["toeplitz-check"],
            ["px-mean", "--t", 100],
            ["conjecture-table", "--t", 100],
        ],
        ids=lambda args: args[0],
    )
    def test_non_finite_k_exit_2(self, tmp_path, capsys, published_table_path, args, k):
        zeros_flag = ["--zeros", published_table_path] if "--t" in args else []
        assert run_cli(["--output-dir", tmp_path, *args, "--k", k, *zeros_flag]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "is not a finite complex number" in err[0]
        assert not (tmp_path / "results.csv").exists()


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

    def test_cache_and_out_file_hold_the_same_bytes(self, tmp_path, monkeypatch):
        # the table is formatted once, for both files, as one %.11f line an ordinate
        monkeypatch.setenv(zeros.CACHE_ENV, str(tmp_path / "cache"))
        out_file = tmp_path / "computed.txt"
        assert run_cli(["--output-dir", tmp_path / "c", "zeros", "compute", "--t-max", 1000, "--out", out_file]) == 0
        cached = (tmp_path / "cache" / "zeros_t1000.txt").read_bytes()
        monkeypatch.delenv(zeros.CACHE_ENV)
        gammas = zeros.compute_zeros(1000).gammas
        assert len(gammas) == 649
        assert out_file.read_bytes() == cached == "".join(f"{g:.11f}\n" for g in gammas).encode()

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


    def test_cross_validate_counts_differ_exit_3(self, tmp_path, published_table_path):
        # the 29 zeros below 100 and a spurious 30th at 99.5: the first 29 pair
        # up within 1e-10, but the lists disagree and the default gate fails
        lines = published_table_path.read_text().splitlines()[:29]
        b = tmp_path / "b.txt"
        b.write_text("\n".join(lines + ["99.5"]) + "\n")
        args = ["zeros", "cross-validate", "--a", "compute", "--t-max", 100, "--b", b]
        assert run_cli(["--output-dir", tmp_path / "x"] + args) == 3
        _, rows, _ = read_outputs(tmp_path / "x")
        assert (rows[0]["count_a"], rows[0]["count_b"]) == (29, 30)
        assert rows[0]["empirical_re"] == "inf"


class TestOracleAndHybrid:
    def test_rmt_oracle(self, tmp_path):
        status = run_cli(
            ["--output-dir", tmp_path, "rmt-oracle", "--n", 2, "--k", "1", "--grid", 512]
        )
        assert status == 0
        _, rows, _ = read_outputs(tmp_path)
        assert float(rows[0]["empirical_im"]) == pytest.approx(1.5, abs=1e-5)

    def test_rmt_oracle_beyond_three(self, tmp_path):
        assert run_cli(["--output-dir", tmp_path, "rmt-oracle", "--n", 4, "--k", "0.5"]) == 0
        csv_text, rows, _ = read_outputs(tmp_path)
        assert len(rows) == 1 and len(csv_text.splitlines()) == 2
        assert float(rows[0]["ratio_re"]) == pytest.approx(1.0, abs=1e-9)

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

    def test_hybrid_fourier_check_at_y1(self, tmp_path):
        # criterion 4's bounds at Y = 1, where the support starts at l = log y = 0
        # and the kernel's sum by parts divides by l; measured 3.7e-14 at worst
        status = run_cli(["--output-dir", tmp_path, "hybrid-fourier-check", "--x", math.e**3, "--y", 1,
                          "--k=1+i", "--j-window", 40, "--grid", 64])
        assert status == 0
        _, rows, _ = read_outputs(tmp_path)
        assert len(rows) == 12
        for row in rows:
            emp = complex(float(row["empirical_re"]), float(row["empirical_im"]))
            pred = complex(float(row["predicted_re"]), float(row["predicted_im"]))
            assert abs(emp - pred) < 1e-6
            if row["m"] >= 3:
                assert abs(emp) < 1e-8

    @pytest.mark.parametrize(
        "args",
        [
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--grid", 0],
            ["rmt-oracle", "--n", 2, "--k", "1", "--grid", 0],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--grid", -4],
            ["rmt-oracle", "--n", 2, "--k", "1", "--grid", -3],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--j-window", -1],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--m-max", -1],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--m-max", 0],
        ],
        ids=["fourier-grid-0", "oracle-grid-0", "fourier-grid-neg", "oracle-grid-neg",
             "j-window-neg", "m-max-neg", "m-max-0"],
    )
    def test_senseless_grid_exit_2(self, tmp_path, capsys, args):
        assert run_cli(["--output-dir", tmp_path, *args]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "DomainError" in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["px-mean", "--t", 100, "--x", "inf"],
            ["twisted", "--t", 100, "--x", "inf"],
            ["hybrid-fourier-check", "--x", "inf", "--k", "1"],
            ["toeplitz-check", "--k", "1", "--x", "inf"],
            ["hybrid-mc", "--x", "inf", "--k", "1", "--samples", 100],
            ["hybrid-fourier-check", "--x", 20, "--k", "1", "--y", "inf"],
            ["px-mean", "--t", 100, "--x", "nan"],
        ],
        ids=["px-mean-x-inf", "twisted-x-inf", "fourier-x-inf", "toeplitz-x-inf", "hybrid-mc-x-inf",
             "fourier-y-inf", "px-mean-x-nan"],
    )
    def test_non_finite_cutoff_exit_2(self, tmp_path, capsys, args):
        assert run_cli(["--output-dir", tmp_path, *args]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "DomainError" in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("k", ["0", "1", "-0.5", "0.5+0.5i", "1+i", "-2"])
    def test_toeplitz_check_rows_are_per_size_es_comparison(self, tmp_path, k):
        # the subcommand builds one series to its largest size; every row must
        # carry the bits es_comparison gives at that size alone
        sizes = [32, 8, 512, 64]
        status = run_cli(["--output-dir", tmp_path, "toeplitz-check", "--k=" + k, "--x", math.e**3,
                          "--sizes", ",".join(map(str, sizes))])
        assert status == 0
        _, rows, _ = read_outputs(tmp_path)
        assert [row["n"] for row in rows] == sizes
        series = toeplitz.es_comparisons(cli.parse_complex(k), hybrid.HybridParams(
            n=1, x_cutoff=math.e**3, smoothing=hybrid.SmoothingSpec(4.0)), sizes)
        assert [complex(row["det_re"], row["det_im"]) for row in rows] == [res.det for res in series]
        for n, row in zip(sizes, rows):
            params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=hybrid.SmoothingSpec(4.0))
            res = toeplitz.es_comparison(cli.parse_complex(k), params)
            assert (row["det_re"], row["det_im"]) == (res.det.real, res.det.imag)
            for column, value in (("empirical", res.expectation), ("predicted", res.asymptotic)):
                assert (row[f"{column}_re"], row[f"{column}_im"]) == (cli._fmt(value.real), cli._fmt(value.imag))

    def test_toeplitz_check_refuses_size_0(self, tmp_path, capsys):
        assert run_cli(["--output-dir", tmp_path, "toeplitz-check", "--k", "1", "--sizes", "8,0"]) == 2
        assert "DomainError" in capsys.readouterr().err

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
    def test_landau_gonek_with_table(self, tmp_path, zeros_5000):
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

    def test_table_with_a_gap_exit_2(self, tmp_path, zeros_5000, capsys):
        # the table still reaches T = 4000: only N(4000) = 3474 shows the missing ordinate
        table = tmp_path / "gap.txt"
        table.write_text("".join(f"{g:.11f}\n" for g in np.delete(zeros_5000.gammas, 1000)))
        status = run_cli(["--output-dir", tmp_path / "lg", "landau-gonek", "--t", 4000, "--m", 2,
                          "--zeros", table])
        assert status == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "3473 zeros, expected 3474" in err[0]
        assert not (tmp_path / "lg" / "results.csv").exists()

    @pytest.mark.parametrize("x_flag", [[], ["--x", 8]], ids=["x-default", "x-8"])
    def test_twisted_on_the_stored_table(self, tmp_path, x_flag):
        table = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "zeros_t5000.txt"
        assert run_cli(["--output-dir", tmp_path, "twisted", "--t", 5000, "--zeros", table, *x_flag]) == 0
        _, rows, manifest = read_outputs(tmp_path)
        x = manifest["config"]["x"]
        assert x == (8.0 if x_flag else math.log(5000))
        res = experiments.twisted_first_moment(zeros.load_zeros(table), 5000.0, x)
        assert len(rows) == 1 and rows[0]["n_zeros"] == "4520" and float(rows[0]["X"]) == x
        assert complex(float(rows[0]["empirical_re"]), float(rows[0]["empirical_im"])) == res.empirical
        assert complex(float(rows[0]["predicted_re"]), float(rows[0]["predicted_im"])) == res.predicted

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

    def test_conjecture_table_k1_main_term(self, tmp_path):
        assert run_cli(["--output-dir", tmp_path, "conjecture-table", "--k", "1", "--t", "1000,2500,5000",
                        "--zeros", TABLE_5000]) == 0
        _, rows, _ = read_outputs(tmp_path)
        assert [row["polynomial_main_term"] for row in rows] == [
            experiments.cgg_main_term(t) for t in (1000.0, 2500.0, 5000.0)]
        for row in rows:
            assert row["ratio_to_polynomial"] == row["sum_re"] / row["polynomial_main_term"]
            assert row["n_formula"] > 0 and isinstance(row["normalized_by_formula_re"], float)

    def test_conjecture_table_main_term_only_at_k1(self, tmp_path):
        assert run_cli(["--output-dir", tmp_path, "conjecture-table", "--k=-1", "--t", "5000",
                        "--zeros", TABLE_5000]) == 0
        _, (row,), _ = read_outputs(tmp_path)
        assert "polynomial_main_term" not in row and "ratio_to_polynomial" not in row
        assert {"sum_re", "sum_im", "n_formula"} <= row.keys()

    def test_px_mean_keeps_a_complex_subsidiary_sum(self, tmp_path):
        assert run_cli(["--output-dir", tmp_path, "px-mean", "--t", 5000, "--k", "1+i",
                        "--zeros", TABLE_5000]) == 0
        _, (row,), _ = read_outputs(tmp_path)
        assert row["subsidiary_sum_im"] != 0 and row["predicted_bare"] == 4520.0
        predicted = 4520 - (5000.0 / (2.0 * math.pi)) * complex(row["subsidiary_sum_re"], row["subsidiary_sum_im"])
        assert (row["predicted_re"], row["predicted_im"]) == (cli._fmt(predicted.real), cli._fmt(predicted.imag))

    @pytest.mark.parametrize("args, fault", [
        (["landau-gonek", "--t", -100, "--m", 2], "height T = -100 is not a positive finite number"),
        (["landau-gonek", "--t", 0, "--m", 2], "height T = 0 is not a positive finite number"),
        (["landau-gonek", "--t", "inf", "--m", 2], "height T = inf is not a positive finite number"),
        (["conjecture-table", "--k", "1", "--t", "nan"], "height T = nan is not a positive finite number"),
        (["px-mean", "--t", 2e5, "--k", "1"], "zero list reaches only t = 4999.33, below T = 200000"),
        (["twisted", "--t", 2e5, "--x", 20], "zero list reaches only t = 4999.33, below T = 200000"),
        (["landau-gonek", "--t", 2e5, "--m", 2], "zero list reaches only t = 4999.33, below T = 200000"),
        # the default X = log T is taken only for a height that can pass the check
        (["px-mean", "--t", -100, "--k", "1"], "height T = -100 is not a positive finite number"),
        (["twisted", "--t", 0], "height T = 0 is not a positive finite number"),
    ], ids=["negative", "zero", "inf", "nan", "px-mean-beyond", "twisted-beyond", "landau-gonek-beyond",
            "px-mean-negative-default-x", "twisted-zero-default-x"])
    def test_height_the_table_cannot_read_exit_2(self, tmp_path, capsys, args, fault):
        status = run_cli(["--output-dir", tmp_path, *args, "--zeros", TABLE_5000])
        assert status == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"DomainError: {fault}" in err[0]
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("args, fault", [
        (["landau-gonek", "--t", 5000, "--m", "1" + "0" * 400],
         "DomainError: Landau-Gonek takes m <= 10^12"),
        (["landau-gonek", "--t", 5000, "--m", 1000000000000000003],
         "DomainError: Landau-Gonek takes m <= 10^12"),
        (["twisted", "--t", 1000, "--x", 1e9], "CapabilityError: prime cutoff X = 1e+09 exceeds the supported 100000"),
    ], ids=["landau-gonek-m-10^400", "landau-gonek-m-10^18+3", "twisted-x-1e9"])
    def test_size_beyond_the_caps_exits_2_at_once(self, tmp_path, capsys, args, fault):
        # an overflow of m^-1/2, a minute of trial division and a 1 GB sieve
        # before the caps
        start = time.perf_counter()
        status = run_cli(["--output-dir", tmp_path, *args, "--zeros", TABLE_5000])
        assert status == 2 and time.perf_counter() - start < 5.0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and fault in err[0]
        assert not (tmp_path / "results.csv").exists()

    def test_landau_gonek_at_the_m_cap(self, tmp_path):
        # the prime 999,999,999,989 is below the cap and factorizes in 0.06 s
        assert run_cli(["--output-dir", tmp_path, "landau-gonek", "--t", 5000, "--m", 999_999_999_989,
                        "--zeros", TABLE_5000]) == 0

    def test_ordinate_below_10_exit_2(self, tmp_path, capsys):
        # N(5) = 0: the table's ordinate 3.0 is no zero
        table = tmp_path / "zeros.txt"
        table.write_text("3.0\n20.0\n")
        assert run_cli(["--output-dir", tmp_path, "landau-gonek", "--t", 5, "--m", 2, "--zeros", table]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        fault = "DomainError: zero list reaching t = 20 has extra ordinates (1 zeros, expected 0 below 5)"
        assert len(err) == 1 and fault in err[0]
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("table, args, fault", [
        # zero 3001 deleted and 4999.9999 appended: N(5000) still matches, and every later index is one short
        ("deleted-3001", ["conjecture-table", "--k", "1", "--t", 5000], "at zero n = 3001, gamma = 3535.772577:"),
        # an extra ordinate below the second zero, with N(30) matched by the count of 3
        ("extra-14.5", ["conjecture-table", "--k", "0.5", "--t", 30], "at zero n = 2, gamma = 14.5:"),
        ("extra-14.5", ["twisted", "--t", 30], "at zero n = 2, gamma = 14.5:"),
        # N(15) = 1 equals the count, but zeta has no zero at or below 10
        *[("ordinate-3", args, "zero list holds the ordinate 3, at or below 10, where zeta has no zero")
          for args in (["landau-gonek", "--t", 15, "--m", 2], ["px-mean", "--t", 15, "--k", "1"],
                       ["conjecture-table", "--k", "1", "--t", 15], ["twisted", "--t", 15])],
    ], ids=["deleted-3001", "extra-conjecture-table", "extra-twisted", *(f"ordinate-3-{name}" for name in (
        "landau-gonek", "px-mean", "conjecture-table", "twisted"))])
    def test_table_with_a_wrong_index_exits_2_naming_its_zero(self, tmp_path, capsys, stored_table_5000,
                                                             table, args, fault):
        gammas = {"deleted-3001": np.append(np.delete(stored_table_5000, 3000), 4999.9999),
                  "extra-14.5": [14.134725142, 14.5, 21.022039639],
                  "ordinate-3": [3.0]}[table]
        path = tmp_path / "zeros.txt"
        path.write_text("".join(f"{float(g)!r}\n" for g in gammas))
        assert run_cli(["--output-dir", tmp_path / "out", *args, "--zeros", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "DomainError: " in err[0] and fault in err[0]
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("heights", ["10", "5", "14", "10,200"])
    def test_conjecture_table_below_the_first_zero_exit_2(self, tmp_path, capsys, published_table_path, heights):
        status = run_cli(["--output-dir", tmp_path, "conjecture-table", "--k", "1", "--t", heights,
                          "--zeros", published_table_path])
        assert status == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "DomainError: no zero at or below T = " in err[0]
        assert not (tmp_path / "results.csv").exists()


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


class TestRuntimeWithoutNumpyMa:
    # runs in a fresh process: output directory and stored table as argv[1:3]
    _SCRIPT = textwrap.dedent(
        """
        import sys
        from pathlib import Path
        from zetalab import cli
        table = sys.argv[2]
        runs = {
            "zeros": ["compute", "--t-max", "300"],
            "conjecture-table": ["--k", "1", "--t", "1000,5000", "--zeros", table],
            "twisted": ["--t", "5000", "--zeros", table],
            "px-mean": ["--t", "5000", "--zeros", table],
            "landau-gonek": ["--t", "5000", "--m", "2", "--zeros", table],
        }
        for name, args in runs.items():
            status = cli.main(["--output-dir", str(Path(sys.argv[1]) / name), name, *args])
            assert status == 0, (name, status)
            assert "numpy.ma" not in sys.modules, name
        """
    )

    def test_zeta_side_subcommands_leave_numpy_ma_unimported(self, tmp_path):
        # numpy.ma costs about 10 ms to import: the Rosser scan's grid and the
        # sums at the zeros never load it (np.union1d's np.unique would, on numpy 2)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop(zeros.CACHE_ENV, None)  # zeros compute scans afresh
        proc = subprocess.run([sys.executable, "-c", self._SCRIPT, str(tmp_path), str(TABLE_5000)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
