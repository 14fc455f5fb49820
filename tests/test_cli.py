"""CLI surface tests: outputs, exit codes, file contracts, reproducibility."""

import json

import numpy as np
import pytest

from rmps import cli, experiments
from rmps.cli import main
from rmps.engine import DegenerateSampleError
from rmps.persist import write_summary
from rmps.weingarten import character_table, load_cache


def test_wg_prints_exact_rational(capsys):
    assert main(["wg", "--n", "8", "--sigma", "(1 2)"]) == 0
    assert capsys.readouterr().out.strip() == "-1/504"


def test_wg_identity_needs_degree(capsys):
    assert main(["wg", "--n", "8", "--sigma", "()"]) == 2
    assert "degree" in capsys.readouterr().err
    assert main(["wg", "--n", "8", "--sigma", "()", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1/63"


def test_wg_dimension_guard_is_usage_error(capsys):
    assert main(["wg", "--n", "1", "--sigma", "(1 2)"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_moment_command(capsys):
    code = main(["moment", "--n", "4", "--i", "1", "--j", "1",
                 "--iprime", "1", "--jprime", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_wg_bound_command(capsys):
    code = main(["wg-bound", "--p", "2", "--k", "2", "--n-grid", "4,9,16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no growth across grid: True" in out


def test_wg_bound_hypothesis_violation(capsys):
    assert main(["wg-bound", "--p", "3", "--k", "2", "--n-grid", "8,16"]) == 2
    assert "9" in capsys.readouterr().err


def test_cache_file_round_trip(tmp_path, capsys):
    cache = tmp_path / "wg.cache"
    assert main(["wg", "--n", "8", "--sigma", "(1 2)", "--cache", str(cache)]) == 0
    assert cache.exists()
    table = load_cache(cache)
    assert (2, (2,), 8) in table
    # reuse without recomputation and without corruption
    assert main(["wg", "--n", "8", "--sigma", "(1 2)", "--cache", str(cache)]) == 0
    assert load_cache(cache) == table


def test_cache_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RMPS_CACHE_DIR", str(tmp_path))
    assert main(["wg", "--n", "5", "--sigma", "(1 2)"]) == 0
    assert (tmp_path / "weingarten.cache").exists()


def test_sample_command_writes_files(tmp_path, capsys):
    out = tmp_path / "sample.json"
    state = tmp_path / "rho.json"
    code = main([
        "sample", "--d", "2", "--D", "3", "--n", "4", "--l", "2",
        "--seed", "5", "--out", str(out), "--dump-state", str(state),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["d"] == 2 and doc["D"] == 3
    assert len(doc["u"]) == 36
    rho = json.loads(state.read_text())
    assert rho["dim"] == 4 and len(rho["mat"]) == 16
    eigs = (tmp_path / "rho.json.eigs.txt").read_text().split()
    assert len(eigs) == 4
    assert all(float(e) >= -1e-9 for e in eigs)


def test_sample_bad_window_writes_nothing(tmp_path, capsys):
    code = main([
        "sample", "--d", "2", "--D", "2", "--n", "7", "--l", "7", "--seed", "1",
        "--out", str(tmp_path / "s.json"), "--dump-state", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert "guard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_check_lemma_gamma(capsys):
    for n, alphas in ((1, 2), (2, 24), (3, 720)):
        assert main(["check", "lemma-gamma", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert out == f"n={n} alphas={alphas} parity=ok injective=ok\n"


@pytest.mark.parametrize("line", ["2;1,1;8;1/0", "2;3;8;1/2", "11;11;12;1/2",
                                  "2;1,1;1;1/2"])
def test_wg_bad_cache_value_is_usage_error(tmp_path, line, capsys):
    cache = tmp_path / "wg.cache"
    cache.write_text(line + "\n")
    assert main(["wg", "--n", "8", "--sigma", "()", "--p", "2", "--cache", str(cache)]) == 2
    assert "malformed cache line 1" in capsys.readouterr().err


def test_check_characters(capsys):
    assert main(["check", "characters", "--orthogonality-max-p", "4",
                 "--burnside-max-p", "6"]) == 0


def test_check_characters_up_to_degree_fourteen(capsys):
    assert main(["check", "characters", "--orthogonality-max-p", "14"]) == 0
    assert "orthogonality p=14: ok" in capsys.readouterr().out


def test_check_characters_fails_on_a_wrong_character(monkeypatch, capsys):
    def wrong_table(p):
        table = dict(character_table(p))
        table[(1,) * p] = (2,) + table[(1,) * p][1:]
        return table

    monkeypatch.setattr(cli, "character_table", wrong_table)
    assert main(["check", "characters", "--orthogonality-max-p", "3"]) == 1
    assert "orthogonality FAIL p=2" in capsys.readouterr().out


def test_check_oracle(capsys):
    assert main(["check", "oracle", "--instances", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "max entry error" in out
    assert "; 4 limit comparisons (" in out and "of tr rho (tol 1e-12)" in out


def test_experiment_purity_csv_contract(tmp_path, capsys):
    out = tmp_path / "purity.csv"
    summary = tmp_path / "purity.json"
    argv = [
        "experiment", "purity", "--d", "2", "--D", "2,4", "--n", "4", "--l", "2",
        "--samples", "6", "--seed", "7", "--out", str(out), "--summary", str(summary),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("d,D,n,l,seed,sample,trace,purity_unnorm,purity_norm,"
                        "sup_dist,renyi2,degenerate")
    assert len(lines) == 1 + 2 * 6
    doc = json.loads(summary.read_text())
    assert doc["version"] and doc["seed"] == 7
    assert doc["config"]["D"] == [2, 4]
    assert "per_D" in doc["results"]

    # byte-identical re-run, summary identical modulo timestamp
    out2 = tmp_path / "purity2.csv"
    summary2 = tmp_path / "purity2.json"
    argv2 = argv[:-4] + ["--out", str(out2), "--summary", str(summary2)]
    assert main(argv2) == 0
    assert out.read_bytes() == out2.read_bytes()
    doc2 = json.loads(summary2.read_text())
    for key in ("timestamp", "config"):
        doc.pop(key), doc2.pop(key)  # configs differ only in output paths
    assert doc == doc2


def test_experiment_mean_trace_exit_and_summary(tmp_path, capsys):
    summary = tmp_path / "mt.json"
    code = main([
        "experiment", "mean-trace", "--d", "2", "--D", "4", "--n", "4", "--l", "2",
        "--samples", "200", "--seed", "7", "--summary", str(summary),
    ])
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["results"]["fixed_u"] is True
    assert abs(doc["results"]["mean"] - 0.5) <= 5 * doc["results"]["stderr"]


def test_experiment_workers_reproduce_csv(tmp_path):
    base = ["experiment", "mean-trace", "--d", "2", "--D", "4", "--n", "4",
            "--l", "2", "--samples", "16", "--seed", "3"]
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_averages_cli(tmp_path, capsys):
    summary = tmp_path / "avg.json"
    code = main(["experiment", "averages", "--D", "8", "--samples", "600",
                 "--seed", "11", "--summary", str(summary)])
    assert code == 0
    out = capsys.readouterr().out
    assert "quoted reference" in out  # the differing reference is surfaced
    doc = json.loads(summary.read_text())
    names = [row["name"] for row in doc["results"]["rows"]]
    assert names == ["tr_L", "tr_L2", "tr_R", "tr_R2", "tr_LR",
                     "tr_LRR", "tr_LLR", "tr_LLRR", "tr_LRLR"]


def test_experiment_lipschitz_cli(tmp_path, capsys):
    out = tmp_path / "pairs.csv"
    code = main(["experiment", "lipschitz", "--d", "2", "--D", "4", "--n", "6",
                 "--l", "2", "--seed", "13", "--pairs", "30", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,D,n,l,seed,pair,mode,scale,dist,ratio_f,ratio_g,skipped"
    assert len(lines) == 31


def test_experiment_tails_cli(tmp_path, capsys):
    out = tmp_path / "tails.csv"
    code = main(["experiment", "tails", "--d", "2", "--D", "4,16", "--n", "6",
                 "--l", "2", "--samples", "200", "--seed", "17",
                 "--r-grid", "0.02,0.05,0.2", "--out", str(out)])
    assert code == 0
    assert "decay in D at r=0.05" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("d,D,n,l,seed,sample,trace,")
    assert len(lines) == 1 + 2 * 200


def test_experiment_rejects_bad_window(capsys):
    code = main(["experiment", "mean-trace", "--d", "2", "--D", "4", "--n", "5",
                 "--l", "2", "--samples", "10", "--seed", "1"])
    assert code == 2
    assert "even" in capsys.readouterr().err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments themselves
        return exc.code


_SITES = ["--d", "2", "--n", "4", "--l", "2", "--seed", "1"]
_CHAIN = [*_SITES, "--samples", "4"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["experiment", "tails", "--D", "64,16", *_CHAIN],
                 "strictly increasing", id="tails-decreasing-D"),
    pytest.param(["experiment", "tails", "--D", "16,16", *_CHAIN],
                 "strictly increasing", id="tails-repeated-D"),
    pytest.param(["experiment", "purity", "--D", "", *_CHAIN],
                 "comma-separated list", id="purity-empty-D"),
    pytest.param(["experiment", "tails", "--D", ",", *_CHAIN],
                 "comma-separated list", id="tails-comma-D"),
    pytest.param(["experiment", "tails", "--D", "4", "--r-grid", "", *_CHAIN],
                 "comma-separated list", id="tails-empty-r-grid"),
    pytest.param(["experiment", "purity", "--D", "4", "--workers", "0", *_CHAIN],
                 "--workers", id="workers-zero"),
    pytest.param(["experiment", "mean-trace", "--D", "4", "--workers", "-3", *_CHAIN],
                 "--workers", id="workers-negative"),
    pytest.param(["experiment", "tails", "--D", "4", *_CHAIN],
                 "at least two D values", id="tails-single-D"),
    pytest.param(["experiment", "lipschitz", "--D", "4", "--pairs", "3", "--scales", "0",
                  *_SITES],
                 "must be positive", id="lipschitz-zero-scale"),
    pytest.param(["experiment", "averages", "--D", "4", "--samples", "4", "--seed", "1",
                  "--out", "records.csv"],
                 "unrecognized arguments: --out", id="averages-out"),
    pytest.param(["experiment", "mean-trace", "--D", "4", "--fixed-variant",
                  str(-(2 ** 61)), *_CHAIN],
                 "reserved stream indices", id="mean-trace-variant-aliases-samples"),
    pytest.param(["experiment", "mean-trace", "--D", "4", "--fixed-variant",
                  str(2 ** 62 + 2 ** 61), *_CHAIN],
                 "reserved stream indices", id="mean-trace-variant-wraps"),
    pytest.param(["wg-bound", "--p", "2", "--k", "1", "--n-grid", "4"],
                 "strictly increasing", id="wg-bound-single-n"),
    pytest.param(["wg-bound", "--p", "2", "--k", "1", "--n-grid", "4,4"],
                 "strictly increasing", id="wg-bound-repeated-n"),
    pytest.param(["wg-bound", "--p", "2", "--k", "1", "--n-grid", "8,4"],
                 "strictly increasing", id="wg-bound-decreasing-n"),
    pytest.param(["check", "characters", "--orthogonality-max-p", "0"],
                 "must be in 1..14, got 0", id="characters-orthogonality-zero"),
    pytest.param(["check", "characters", "--orthogonality-max-p", "15"],
                 "must be in 1..14, got 15", id="characters-orthogonality-above-14"),
    pytest.param(["check", "characters", "--burnside-max-p", "0"],
                 "must be in 1..30, got 0", id="characters-burnside-zero"),
    pytest.param(["check", "characters", "--burnside-max-p", "31"],
                 "must be in 1..30, got 31", id="characters-burnside-above-30"),
    pytest.param(["check", "oracle", "--instances", "0"],
                 "--instances", id="oracle-zero-instances"),
    pytest.param(["check", "lemma-gamma", "--n", "1", "--samples", "0"],
                 "unrecognized arguments: --samples", id="lemma-gamma-samples"),
])
def test_experiment_argument_usage_errors(argv, message, capsys):
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err


def _reject_constant(constant):
    raise ValueError(f"non-JSON constant {constant}")


def test_summary_nan_is_null(tmp_path):
    path = tmp_path / "summary.json"
    results = {"numpy": np.float64("nan"), "python": float("nan"),
               "array": np.array([np.nan, 0.5])}
    write_summary(path, "test", {"seed": 1}, results)
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert doc["results"] == {"numpy": None, "python": None, "array": [None, 0.5]}


@pytest.mark.parametrize("command, D_grid", [("purity", "2"), ("purity", "2,4"),
                                             ("tails", "2,4")])
def test_all_degenerate_run_fails_with_null_statistics(
        command, D_grid, tmp_path, monkeypatch, capsys):
    def degenerate(rho):
        raise DegenerateSampleError("forced")

    monkeypatch.setattr(experiments, "normalize", degenerate)
    summary = tmp_path / "summary.json"
    code = main(["experiment", command, "--D", D_grid, *_CHAIN,
                 "--summary", str(summary)])
    assert code == 1
    out = capsys.readouterr().out
    assert "D=2: every sample degenerate" in out and "FAIL" in out
    results = json.loads(summary.read_text(), parse_constant=_reject_constant)["results"]
    if command == "purity":
        assert all(s["median_purity_dev"] is None for s in results["per_D"])
    else:
        assert all(t["mean_purity_norm"] is None for t in results["tables"])
        assert all(x is None for t in results["tables"] for x in t["tail_purity"])
