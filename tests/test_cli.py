import json
import math

import pytest

from bplt.cli import main
from bplt.hypergraph import Multihypergraph, write_hypergraph


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.hg"
    path.write_text(write_hypergraph(Multihypergraph(3, [[0, 1, 2]])))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRateCommands:
    def test_rate_gnm_value(self, capsys):
        code, out, _ = run(capsys, "rate-gnm", "--k", "3", "--b", "0.5", "--eta", "0")
        assert code == 0
        rate = dict(line.split(",") for line in out.strip().splitlines())["rate"]
        assert float(rate) == pytest.approx(-(0.5**3) / 3, rel=1e-15)

    def test_rate_gnp_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "rate-gnp", "--k", "3", "--c", "2", "--eta", "0")
        assert code == 2
        assert f"{(math.e / 2) ** 0.5:.6f}"[:6] in err  # message cites the bound

    def test_json_block(self, capsys):
        code, out, _ = run(capsys, "rate-gnp", "--k", "3", "--c", "0.5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] < 0

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "rate-gnp", "--k", "3")
        assert code == 2 and "--c" in err


class TestSweep:
    def test_monotone_column_and_flagged_rows(self, capsys):
        code, out, _ = run(
            capsys, "rate-gnp", "--k", "3", "--eta", "0", "--sweep", "0.2:1.3:6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# formula=gnp-lower-tail-rate")
        assert lines[1] == "c,rate,status"
        rates = []
        statuses = []
        for row in lines[2:]:
            c, rate, status = row.split(",")
            statuses.append(status)
            if status == "ok":
                rates.append(float(rate))
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert statuses[-1] == "out-of-domain"  # 1.3 exceeds sqrt(e/2)

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "rate-gnm", "--k", "3", "--sweep", "0.5:0.5:1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    # per command: a full argv, "FILE" standing for the triangle's file and
    # "OUT" for the --out path
    RUNS = {
        "rate-gnp": ["--k", "3", "--eta", "0", "--sweep", "0.2:1.3:4"],
        "rate-gnm": ["--k", "3", "--sweep", "0.2:0.8:3", "--out", "OUT"],
        "rate-subgraph": ["--subgraph", "C5", "--sweep", "0.2:0.8:3"],
        "rate-kap": ["--k", "3", "--c", "0.5", "--grid-size", "60", "--json"],
        "kap-profile": ["--k", "3", "--c", "0.8", "--grid-size", "64", "--out", "OUT"],
        "bp-solve": ["--file", "FILE", "--c", "0.8", "--eta", "0.2"],
        "exact-check": ["--file", "FILE", "--lambda", "1", "--zeta", "0.5", "--out", "OUT"],
        "mc-estimate": ["--file", "FILE", "--p", "0.5", "--samples", "2000"],
        "weitz-verify": ["--file", "FILE", "--zeta", "0.6"],
    }

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_byte_identical_runs(self, capsys, tmp_path, triangle_file, command):
        path = tmp_path / "out.csv"
        subs = {"FILE": triangle_file, "OUT": str(path)}
        argv = [command, *(subs.get(a, a) for a in self.RUNS[command])]
        runs = []
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert code == 0
            runs.append((out, err, path.read_bytes() if path.exists() else None))
            path.unlink(missing_ok=True)
        assert runs[0] == runs[1]


class TestRateKap:
    def test_check_bethe_agreement(self, capsys):
        code, out, _ = run(
            capsys, "rate-kap", "--k", "3", "--c", "0.5", "--quad-nodes", "24",
            "--grid-size", "200", "--check-quadrature", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rate"] - payload["rate_quadrature"]) < 1e-4

    def test_sweep(self, capsys):
        code, out, _ = run(
            capsys, "rate-kap", "--k", "3", "--quad-nodes", "16",
            "--grid-size", "150", "--sweep", "0.2:0.8:3",
        )
        assert code == 0
        rows = out.strip().splitlines()[2:]
        rates = [float(r.split(",")[1]) for r in rows]
        assert rates[0] > rates[1] > rates[2]

    @pytest.mark.parametrize("command", ["rate-kap", "kap-profile"])
    @pytest.mark.parametrize("size", ["0", "5"])
    def test_small_grid_exits_2(self, capsys, command, size):
        # the band offsets need grid_size >= 2k: refused with one line
        code, out, err = run(capsys, command, "--k", "3", "--c", "1", "--grid-size", size)
        assert code == 2 and out == ""
        assert err.startswith("error: grid_size") and err.count("\n") == 1


class TestSubgraphCommand:
    def test_triangle_scalars(self, capsys):
        code, out, _ = run(
            capsys, "rate-subgraph", "--subgraph", "K3", "--c", "0.5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 3 and payload["aut"] == 6
        assert "n^(-1/m2)" in payload["p_scaling"]
        assert payload["rpartite_bound"] == pytest.approx(-0.25)

    def test_sweep_includes_partite_bound(self, capsys):
        code, out, _ = run(
            capsys, "rate-subgraph", "--subgraph", "K3", "--sweep", "0.2:0.8:3"
        )
        assert code == 0
        header = out.strip().splitlines()[1]
        assert header == "c,rate,rpartite_bound,status"

    def test_non_balanced_rejected(self, capsys, tmp_path):
        path = tmp_path / "pendant.hg"
        path.write_text("4 4\n0 1\n0 2\n1 2\n2 3\n")
        code, _, err = run(
            capsys, "rate-subgraph", "--subgraph", f"@{path}", "--c", "0.5"
        )
        assert code == 2 and "2-balanced" in err

    @pytest.mark.parametrize("text", ["3 2\n0 1\n0 1 2\n", "3 2\n0 1\n0 0\n", "3 2\n0 1\n0 1\n"])
    def test_pattern_file_not_simple_graph_exits_2(self, capsys, tmp_path, text):
        # a non-pair, a loop or a multi-edge in the pattern file is refused
        path = tmp_path / "bad.hg"
        path.write_text(text)
        code, out, err = run(capsys, "rate-subgraph", "--subgraph", f"@{path}", "--c", "0.5")
        assert code == 2 and out == "" and err.startswith("error:")


class TestBpSolve:
    def test_triangle_fixed_point(self, capsys, triangle_file):
        code, out, err = run(
            capsys, "bp-solve", "--file", triangle_file, "--c", "0.9", "--zeta", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "vertex,x_star,marginal"
        x = float(lines[2].split(",")[1])
        from bplt.bp import regular_fixed_point

        assert x == pytest.approx(regular_fixed_point(3, 0.9, 1.0), abs=1e-10)
        assert "delta_contraction" in err

    def test_eta_mode(self, capsys, triangle_file):
        code, _, err = run(
            capsys,
            "bp-solve", "--file", triangle_file, "--c", "0.8", "--eta", "0.2",
        )
        assert code == 0
        scalars = dict(line.split(",") for line in err.strip().splitlines())
        assert 0 < float(scalars["zeta"]) < 1

    def test_out_of_region_exits_2(self, capsys, triangle_file):
        code, _, _ = run(
            capsys, "bp-solve", "--file", triangle_file, "--c", "3.0", "--zeta", "1"
        )
        assert code == 2

    def test_infinite_c_exits_2(self, capsys, triangle_file):
        code, out, err = run(
            capsys, "bp-solve", "--file", triangle_file, "--c", "inf", "--zeta", "0"
        )
        assert code == 2 and out == ""
        assert err == "error: c must be positive and finite\n"

    @pytest.mark.parametrize("flag", ["--k", "--delta"])
    def test_zero_exits_2(self, capsys, triangle_file, flag):
        # 0 is refused, not read as "use the graph's uniformity or Dmax",
        # whether zeta is given or solved for
        for mode in (("--zeta", "1"), ("--eta", "0.2")):
            code, out, err = run(
                capsys, "bp-solve", "--file", triangle_file, "--c", "0.9", *mode, flag, "0"
            )
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_non_integer_token_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("3 1\n0 1 x\n")
        code, out, err = run(capsys, "bp-solve", "--file", str(path), "--c", "0.8", "--zeta", "1")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_zeta_and_eta_refused(self, capsys, tmp_path, triangle_file):
        # the pair is refused whether --zeta comes from a flag or a config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 1.0}))
        for source in (["--zeta", "1"], ["--config", str(cfg)]):
            code, out, err = run(
                capsys, "bp-solve", "--file", triangle_file, "--c", "0.8", "--eta", "0.2",
                *source,
            )
            assert code == 2 and out == ""
            assert err == "error: pass exactly one of --zeta or --eta\n"

    @pytest.mark.parametrize("mode", [("--zeta", "0.7"), ("--eta", "0.2")])
    def test_tol_reaches_the_solver(self, capsys, monkeypatch, triangle_file, mode):
        import bplt.cli

        tols = []
        for name, key in (("bp_fixed_point", "tol"), ("solve_zeta", "fp_tol")):
            solver = getattr(bplt.cli, name)

            def recorded(*args, _solver=solver, _key=key, **kwargs):
                tols.append(kwargs[_key])
                return _solver(*args, **kwargs)

            monkeypatch.setattr(bplt.cli, name, recorded)
        for argv, want in (([], 1e-13), (["--tol", "1e-9"], 1e-9)):
            tols.clear()
            code, _, _ = run(
                capsys, "bp-solve", "--file", triangle_file, "--c", "0.8", *mode, *argv
            )
            assert code == 0 and tols == [want]

    @pytest.mark.parametrize("mode", [("--zeta", "0.7"), ("--eta", "0.2")])
    def test_one_edge_array_one_solve(self, capsys, monkeypatch, tmp_path, mode):
        # the command builds the graph's edge array once and solves once:
        # log Z is the printed Bethe free energy rescaled, not a second solve,
        # and the default Delta is read off that array, not from degrees()
        import bplt.bp

        bowtie = tmp_path / "bowtie.hg"  # two triangles at one vertex: Delta = 2
        bowtie.write_text(write_hypergraph(Multihypergraph(5, [[0, 1, 2], [2, 3, 4]])))
        arrays = []
        builder = bplt.bp._edge_rows

        def recorded(graph, k):
            arrays.append(builder(graph, k))
            return arrays[-1]

        def refused(graph):
            raise AssertionError("degrees() called")

        monkeypatch.setattr(bplt.bp, "_edge_rows", recorded)
        monkeypatch.setattr(Multihypergraph, "degrees", refused)
        code, out, err = run(capsys, "bp-solve", "--file", str(bowtie), "--c", "0.8", *mode)
        assert code == 0
        assert arrays and len({id(rows) for rows in arrays}) == 1
        echo = dict(item.split("=", 1) for item in out.splitlines()[0].split()[1:])
        assert echo["delta"] == "2"
        scalars = dict(line.split(",") for line in err.strip().splitlines())
        bethe = float(scalars["bethe_free_energy"])
        assert float(scalars["log_z_bp"]) == 2 ** (-1 / 2) * bethe


class TestExactCheck:
    def test_triangle_passes(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "exact-check", "--file", triangle_file, "--lambda", "1",
            "--zeta", "1",
        )
        assert code == 0
        scalars = dict(line.split(",") for line in out.strip().splitlines())
        assert scalars["pass"] == "True"
        assert float(scalars["conditional"]) < 1e-12
        assert float(scalars["log_z"]) == pytest.approx(math.log(7), rel=1e-14)

    def test_marginal_csv(self, capsys, triangle_file, tmp_path):
        out_path = tmp_path / "summary.csv"
        code, _, _ = run(
            capsys, "exact-check", "--file", triangle_file, "--lambda", "1",
            "--zeta", "1", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[1] == "vertex,marginal"
        assert float(lines[2].split(",")[1]) == pytest.approx(3 / 7, rel=1e-14)


class TestPlotScript:
    def test_script_emitted(self, capsys, tmp_path):
        csv = tmp_path / "profile.csv"
        script = tmp_path / "plot.py"
        code = main(
            ["kap-profile", "--k", "3", "--c", "0.8", "--grid-size", "64",
             "--out", str(csv), "--plot-script", str(script)]
        )
        capsys.readouterr()
        assert code == 0
        text = script.read_text()
        assert "matplotlib" in text and str(csv) in text

    def test_needs_out(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "kap-profile", "--k", "3", "--c", "0.8", "--grid-size", "64",
            "--plot-script", str(tmp_path / "p.py"),
        )
        assert code == 2 and "--out" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["kap-profile", "--k", "3", "--c", "0.8"],
            ["rate-kap", "--k", "3", "--sweep", "0.2:0.8:3"],
            ["bp-solve", "--file", "g.hg", "--c", "0.9", "--zeta", "1"],
            ["exact-check", "--file", "g.hg", "--lambda", "1", "--zeta", "1"],
        ],
    )
    def test_needs_out_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        import bplt.cli

        def refused(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("_read_graph", "phi_fixed_point", "kap_rate_bethe"):
            monkeypatch.setattr(bplt.cli, name, refused)
        script = tmp_path / "p.py"
        code, out, err = run(capsys, *argv, "--plot-script", str(script))
        assert code == 2 and out == "" and not script.exists()
        assert err == "error: --plot-script needs --out so the script can find the CSV\n"


class TestMcEstimate:
    def test_estimate_with_exact_reference(self, capsys, triangle_file):
        code, out, _ = run(
            capsys,
            "mc-estimate", "--file", triangle_file, "--p", "0.5",
            "--samples", "20000",
        )
        assert code == 0
        scalars = dict(line.split(",") for line in out.strip().splitlines())
        est, exact = float(scalars["estimate"]), float(scalars["exact"])
        assert abs(est - exact) < 4 * math.sqrt(exact * (1 - exact) / 20000)


class TestWeitzVerify:
    def test_all_vertices(self, capsys, tmp_path):
        path = tmp_path / "cycle.hg"
        path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(
            capsys, "weitz-verify", "--file", str(path), "--lambda", "1",
            "--zeta", "1",
        )
        assert code == 0
        scalars = dict(line.split(",") for line in out.strip().splitlines())
        assert float(scalars["max_residual"]) < 1e-10

    @pytest.fixture
    def summarize_calls(self, monkeypatch):
        import bplt.gibbs
        import bplt.weitz

        calls = []
        summarize = bplt.gibbs.summarize

        def counted(*args, **kwargs):
            calls.append(args)
            return summarize(*args, **kwargs)

        for module in (bplt.gibbs, bplt.weitz):
            monkeypatch.setattr(module, "summarize", counted)
        return calls

    def test_one_enumeration_per_command(self, capsys, tmp_path, summarize_calls):
        path = tmp_path / "cycle.hg"
        path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, _, _ = run(capsys, "weitz-verify", "--file", str(path), "--lambda", "1")
        assert code == 0 and len(summarize_calls) == 1

    def test_vertex_out_of_range_exits_2(self, capsys, tmp_path, summarize_calls):
        path = tmp_path / "cycle.hg"
        path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, _, err = run(
            capsys, "weitz-verify", "--file", str(path), "--lambda", "1", "--vertex", "9"
        )
        assert code == 2 and "vertex out of range" in err
        assert summarize_calls == []


class TestConfig:
    def test_config_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "b": 0.5, "eta": 0.0}))
        code, out, _ = run(
            capsys, "rate-gnm", "--k", "3", "--config", str(cfg), "--b", "0.25"
        )
        assert code == 0
        scalars = dict(line.split(",") for line in out.strip().splitlines())
        assert float(scalars["rate"]) == pytest.approx(-(0.25**3) / 3, rel=1e-14)

    def test_config_value_used(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b": 0.5}))
        code, out, _ = run(capsys, "rate-gnm", "--k", "3", "--config", str(cfg))
        assert code == 0
        scalars = dict(line.split(",") for line in out.strip().splitlines())
        assert float(scalars["rate"]) == pytest.approx(-(0.5**3) / 3, rel=1e-14)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "rate-gnm", "--k", "3", "--config", str(cfg))
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize("key", ["func", "command", "config"])
    def test_non_flag_key_rejected(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, "rate-gnm", "--k", "3", "--b", "0.5", "--config", str(cfg))
        assert code == 2 and f"unknown config key {key!r}" in err


class TestRequiredFromConfig:
    # per command: the flags it needs (argparse names), then a full config
    NEEDS = {
        "rate-gnp": ("--k", {"k": 3, "c": 0.5}),
        "rate-gnm": ("--k", {"k": 3, "b": 0.5}),
        "rate-subgraph": ("--subgraph", {"subgraph": "K3", "c": 0.5}),
        "rate-kap": ("--k", {"k": 3, "c": 0.5, "grid_size": 60}),
        "kap-profile": ("--k, --c", {"k": 3, "c": 0.5, "grid_size": 60}),
        "bp-solve": ("--file, --c", {"file": None, "c": 0.9, "zeta": 1.0}),
        "exact-check": ("--file, --lam/--lambda, --zeta", {"file": None, "lam": 1.0, "zeta": 1.0}),
        "mc-estimate": ("--file, --p", {"file": None, "p": 0.5, "samples": 100}),
        "weitz-verify": ("--file", {"file": None}),
    }

    @pytest.mark.parametrize("command", sorted(NEEDS))
    def test_config_supplies_required_flags(self, capsys, tmp_path, triangle_file, command):
        cfg = {k: triangle_file if v is None else v for k, v in self.NEEDS[command][1].items()}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        from_config = run(capsys, command, "--config", str(path))
        flags = [a for key, v in cfg.items() for a in (f"--{key.replace('_', '-')}", str(v))]
        assert from_config[0] == 0
        assert from_config == run(capsys, command, *flags)

    @pytest.mark.parametrize("command", sorted(NEEDS))
    def test_missing_required_flags(self, capsys, tmp_path, command):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        for argv in ([command], [command, "--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"the following arguments are required: {self.NEEDS[command][0]}\n" in err


class TestFlagSurface:
    BASE = {
        "rate-gnp": ["--k", "3", "--c", "0.5"],
        "rate-gnm": ["--k", "3", "--b", "0.5"],
        "rate-subgraph": ["--subgraph", "K3", "--c", "0.5"],
        "rate-kap": ["--k", "3", "--c", "0.5"],
        "kap-profile": ["--k", "3", "--c", "0.8"],
        "bp-solve": ["--file", "g.hg", "--c", "0.9", "--zeta", "1"],
        "exact-check": ["--file", "g.hg", "--lambda", "1", "--zeta", "1"],
        "mc-estimate": ["--file", "g.hg", "--p", "0.5"],
        "weitz-verify": ["--file", "g.hg"],
    }
    VALUES = {"--sweep": "0.1:0.9:5", "--seed": "1", "--out": "x.csv", "--plot-script": "x.py"}

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("kap-profile", "--sweep"),
            ("bp-solve", "--sweep"),
            ("exact-check", "--sweep"),
            ("mc-estimate", "--sweep"),
            ("weitz-verify", "--sweep"),
            ("mc-estimate", "--out"),
            ("weitz-verify", "--out"),
            ("mc-estimate", "--plot-script"),
            ("weitz-verify", "--plot-script"),
            ("bp-solve", "--seed"),
            ("exact-check", "--seed"),
            ("rate-gnp", "--seed"),
            ("rate-gnm", "--seed"),
            ("rate-subgraph", "--seed"),
            ("rate-kap", "--seed"),
            ("kap-profile", "--seed"),
        ],
    )
    def test_unread_flag_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.BASE[command], flag, self.VALUES[flag]])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--plot-script"])
    def test_scalar_rate_output_needs_sweep(self, capsys, tmp_path, flag):
        path = tmp_path / "g.out"
        code, out, err = run(capsys, "rate-gnp", "--k", "3", "--c", "0.5", flag, str(path))
        assert code == 2 and "--sweep" in err
        assert out == "" and not path.exists()

    def test_config_sets_unread_flag(self, capsys, tmp_path, triangle_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": "0.1:0.9:5"}))
        code, _, err = run(
            capsys, "bp-solve", "--file", triangle_file, "--c", "0.9", "--zeta", "1",
            "--config", str(cfg),
        )
        assert code == 2 and "unknown config key 'sweep'" in err

    def test_check_quadrature_needs_scalar(self, capsys):
        code, _, err = run(
            capsys, "rate-kap", "--k", "3", "--sweep", "0.2:0.8:3", "--check-quadrature"
        )
        assert code == 2 and "--check-quadrature" in err


class TestExactCheckFold:
    def test_matches_all_pairs(self, capsys, tmp_path):
        import numpy as np

        from bplt.generators import random_multihypergraph
        from bplt.gibbs import ModelParams, verify_identities

        rng = np.random.default_rng(5)
        names = ("occupied_split", "unoccupied_split", "edge_deletion", "conditional")
        for i in range(8):
            g = random_multihypergraph(rng, max_vertices=6, max_edges=5, allow_empty=i % 2 == 0)
            path = tmp_path / f"g{i}.hg"
            path.write_text(write_hypergraph(g))
            for lam, zeta in ((1.0, 0.5), (0.7, 1.0)):
                worst = dict.fromkeys(names, 0.0)
                for v in range(g.num_vertices):
                    for e in range(g.num_edges):
                        res = verify_identities(g, ModelParams(lam, zeta), v, e)
                        for name in names:
                            worst[name] = max(worst[name], getattr(res, name))
                code, out, err = run(
                    capsys, "exact-check", "--file", str(path), "--lambda", str(lam),
                    "--zeta", str(zeta),
                )
                if zeta == 1 and any(len(e) == 0 for e in g.edges):  # Z(G) = 0
                    assert code == 2 and "vanishes" in err
                    continue
                assert code == 0
                scalars = dict(line.split(",") for line in out.strip().splitlines())
                assert {name: float(scalars[name]) for name in names} == worst

    def test_listings_per_command(self, capsys, monkeypatch, tmp_path):
        # Z(G) is listed once, by the summary; each vertex lists the four
        # sides of its two splits, the contracted side also giving the
        # marginals when v can be occupied; each edge lists Z(G - e) and its
        # restriction to supersets of e
        from bplt import gibbs

        listing = gibbs._listing
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return listing(*args, **kwargs)

        monkeypatch.setattr(gibbs, "_listing", counted)
        g = Multihypergraph(5, [[0, 1, 2], [1, 3], [2, 3, 4], [1, 3]])
        path = tmp_path / "g.hg"
        path.write_text(write_hypergraph(g))
        for lam, zeta in ((1.0, 0.5), (0.7, 1.0)):
            calls = 0
            code, _, _ = run(
                capsys, "exact-check", "--file", str(path), "--lambda", str(lam),
                "--zeta", str(zeta),
            )
            assert code == 0 and calls == 1 + 4 * g.num_vertices + 2 * g.num_edges

    def test_nan_residual_fails(self, capsys, monkeypatch, triangle_file):
        from bplt import gibbs

        monkeypatch.setattr(gibbs, "_edge_residual", lambda *a, **kw: math.nan)
        code, out, _ = run(
            capsys, "exact-check", "--file", triangle_file, "--lambda", "1", "--zeta", "1"
        )
        scalars = dict(line.split(",") for line in out.strip().splitlines())
        assert code == 3
        assert scalars["edge_deletion"] == "nan" and scalars["pass"] == "False"
