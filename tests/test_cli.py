import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divisorlab import cli
from divisorlab.config import load_config


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_point(self, capsys):
        code, out, _ = run(capsys, "compute", "--x", "10")
        assert code == 0
        assert "d_sum=27" in out

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "compute", "--x", "1", "--json")
        assert code == 0
        assert json.loads(out)["d_sum"] == 1

    def test_below_domain(self, capsys):
        code, _, err = run(capsys, "compute", "--x", "0.5")
        assert code == 2
        assert "domain" in err

    def test_bad_flags(self, capsys):
        assert run(capsys, "compute")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("x, want", [("nan", 2), ("inf", 2), ("1e30", 3)])
    def test_unusable_x_one_line(self, capsys, x, want):
        code, out, err = run(capsys, "compute", "--x", x)
        assert code == want
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


class TestScan:
    def test_not_finite(self, capsys):
        code, _, err = run(capsys, "scan", "--to", "inf")
        assert code == 2
        assert err.count("\n") == 1

    def test_thousand_rows(self, capsys, tmp_path):
        out_path = tmp_path / "d.csv"
        code, _, _ = run(capsys, "scan", "--to", "1000", "--step", "1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 1001  # header + 1000 rows
        row10 = lines[10].split(",")
        assert row10[0] == "10.0" and row10[1] == "27"
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert set(meta) == {"command", "config_hash", "seed"}

    def test_deterministic_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "scan", "--to", "200", "--out", str(p1))
        run(capsys, "scan", "--to", "200", "--out", str(p2))
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_unwritable_path(self, capsys, tmp_path):
        target = tmp_path / "no_such_dir" / "d.csv"
        code, _, err = run(capsys, "scan", "--to", "10", "--out", str(target))
        assert code == 3

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, _, _ = run(capsys, "scan", "--to", "3", "--format", "json", "--out", str(out_path))
        assert code == 0
        recs = json.loads(out_path.read_text())
        assert [r["d_sum"] for r in recs] == [1, 3, 5]


class TestCoeffs:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--order", "6")
        assert code == 0
        data = json.loads(out)
        assert data["fractions"] == [
            "1", "-1/8", "9/128", "-75/1024",
            "3675/32768", "-59535/262144", "2401245/4194304",
        ]


class TestVerify:
    def test_coeffs_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "coeffs")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all("tag" in c for c in report["checks"])

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "nope")[0] == 2

    def test_seeded_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "theta", "--count", "25", "--seed", "7")
        assert code == 0
        assert json.loads(out)["n_failed"] == 0

    def test_tolerance_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"theta-identity": 1e-30}}))
        code, out, _ = run(
            capsys, "verify", "theta", "--count", "10", "--config", str(cfg)
        )
        assert code == 1  # impossible tolerance must fail the run


class TestSubcommands:
    def test_voronoi_eval(self, capsys):
        code, out, _ = run(capsys, "voronoi", "eval", "--x", "100.5", "--terms", "50")
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {"approx", "exact", "residual", "bound_scale"}

    def test_voronoi_integer_x(self, capsys):
        code, _, err = run(capsys, "voronoi", "eval", "--x", "100", "--terms", "50")
        assert code == 2 and "1/2" in err

    def test_theta_verify(self, capsys):
        code, out, _ = run(
            capsys, "theta", "verify", "--v", "1.7,-0.3", "--b", "0.25",
            "--m0", "3", "--x", "0.4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert (data["lhs_terms"], data["rhs_terms"]) == (17, 13)

    def test_theta_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "theta", "sweep", "--count", "10", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 11
        assert lines[0].startswith("re_v,")

    def test_sumcheck_verbs(self, capsys):
        for verb, extra in (
            ("lemma33", ["--terms", "20"]),
            ("lemma25", ["--terms", "50"]),
        ):
            code, out, _ = run(capsys, "sumcheck", verb, *extra)
            assert code == 0
            data = json.loads(out)
            assert set(data) >= {"lhs", "rhs", "residual", "params"}

    def test_sumcheck_lemma23(self, capsys):
        code, out, _ = run(
            capsys, "sumcheck", "lemma23", "--a", "10.1", "--b", "11.2",
            "--h0", "0.05", "--terms", "20",
        )
        assert code == 0
        assert "residual" in json.loads(out)

    def test_expsum_eval(self, capsys):
        code, out, _ = run(
            capsys, "expsum", "eval", "--x", "10000", "--alpha", "0.25",
            "--beta", "0", "--a", "1", "--b", "1000",
        )
        assert code == 0
        data = json.loads(out)
        assert data["h"] == pytest.approx(70.48695268297588, rel=1e-9)

    def test_expsum_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "es.csv"
        code, _, _ = run(
            capsys, "expsum", "sweep", "--count", "5", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().strip().split("\n")) == 6

    def test_diffop_check(self, capsys):
        code, out, _ = run(
            capsys, "diffop", "check", "--k", "5", "--nu0", "0.01",
            "--radius", "1", "--fn", "exp",
        )
        assert code == 0
        assert json.loads(out)["ratio"] <= 1.0

    def test_construct_check(self, capsys):
        code, out, _ = run(
            capsys, "construct", "check", "--u", "1000000", "--samples", "100",
            "--seed", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["in_band_rate"] == 1.0 and data["zero_count_rate"] == 1.0

    def test_construct_lambda(self, capsys, tmp_path):
        import warnings

        from divisorlab import construction as con

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = con.build_params(10**4, 10**4, 200.0)
        coeffs = tmp_path / "c.json"
        c1 = [0.0] * (4 * p.k_diff)
        c1[0] = 1.0
        coeffs.write_text(json.dumps({"c1": c1, "c2": [0.0] * (4 * p.k_diff + 2)}))
        code, out, _ = run(
            capsys, "construct", "lambda", "--coeffs", str(coeffs),
            "--x", "10000", "--n-cut", "100",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["lambda"]) <= data["triangle_ceiling"]


class TestVerifyDeterminism:
    def test_byte_identical_reports(self, capsys, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (r1, r2):
            code, _, _ = run(
                capsys, "verify", "coeffs", "--seed", "5", "--out", str(path)
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()


SRC = str(Path(cli.__file__).resolve().parents[1])
KNOB_COMMANDS = (("compute", "--x", "10"), ("verify", "coeffs"))


def run_process(argv, **env):
    """The CLI in a fresh interpreter, so that import-time code sees ``env``."""
    full = {k: v for k, v in os.environ.items() if not k.startswith("DIVISORLAB_")}
    full.update(env, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from divisorlab.cli import main; sys.exit(main())", *argv],
        capture_output=True, env=full, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestRemovedKnobs:
    @pytest.fixture(scope="class")
    def unset(self):
        return {argv: run_process(argv) for argv in KNOB_COMMANDS}

    @pytest.mark.parametrize(
        "env",
        [{"DIVISORLAB_BACKEND": "numba"}, {"DIVISORLAB_BACKEND": "bogus"}, {"DIVISORLAB_THREADS": "abc"}],
        ids=["backend-numba", "backend-bogus", "threads-abc"],
    )
    def test_environment_ignored(self, unset, env):
        for argv in KNOB_COMMANDS:
            got = run_process(argv, **env)
            assert got[0] == 0
            assert got == unset[argv]

    def test_config_with_thread_count_loads(self, tmp_path):
        new = tmp_path / "new.json"
        new.write_text(json.dumps({"seed": 3}))
        for removed in ({"thread_count": 4}, {"output": {"path": "o.json", "format": "json"}}):
            old = tmp_path / "old.json"
            old.write_text(json.dumps({"seed": 3, **removed}))
            assert load_config(old).config_hash() == load_config(new).config_hash()


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "theta", "--count", "0"),
            ("verify", "voronoi", "--count", "0"),
            ("verify", "construct", "--count", "0"),
            ("verify", "coeffs", "--count", "-5"),
            ("sumcheck", "lemma33", "--terms", "0"),
            ("sumcheck", "lemma33", "--terms", "-1"),
            ("construct", "check", "--u", "3", "--samples", "0"),
        ],
    )
    def test_counts_below_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and ">= 1" in err

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("{not json", ("verify", "coeffs", "--config")),
            ("[1, 2]", ("verify", "coeffs", "--config")),
            (json.dumps({"tolerances": [1]}), ("verify", "coeffs", "--config")),
            (json.dumps({"tolerances": {"theta-identity": "tight"}}), ("verify", "coeffs", "--config")),
            (json.dumps({"tolerances": {"kernel-coefficient-tabel": 1e-3}}), ("verify", "coeffs", "--config")),
            (json.dumps({"c1": [0.0]}), ("construct", "lambda", "--x", "1e4", "--coeffs")),
            (json.dumps({"c1": 5, "c2": 5}), ("construct", "lambda", "--x", "1e4", "--coeffs")),
        ],
        ids=[
            "config-bad-json", "config-list", "config-tolerances-list", "config-text-tolerance",
            "config-unknown-tolerance",
            "coeffs-no-c2", "coeffs-scalar",
        ],
    )
    def test_input_file_one_line(self, capsys, tmp_path, text, argv):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("domain error:")

    @pytest.mark.parametrize("order", ["7", "-3", "2"])
    def test_kernel_order_choices(self, capsys, order):
        code, out, err = run(capsys, "voronoi", "eval", "--x", "100.5", "--terms", "10", "--kernel-order", order)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "invalid choice" in err
