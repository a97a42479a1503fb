import json
import math
import warnings

import numpy as np
import pytest

from concentra import cli, discrete
from concentra.cache import canonical_json, config_hash, to_jsonable
from concentra.trigpoly import Spectrum


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSearchCommand:
    def test_exhaustive_small(self, tmp_path, capsys):
        code, out = run(["search", "--q", "3", "--p", "2",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] == to_jsonable(2 / 3)
        assert payload["spectrum"] == [0]

    def test_cache_hit(self, tmp_path, capsys):
        a = run(["search", "--q", "7", "--p", "1",
                 "--cache-dir", str(tmp_path)], capsys)
        b = run(["search", "--q", "7", "--p", "1",
                 "--cache-dir", str(tmp_path)], capsys)
        assert a[0] == b[0] == 0
        pa, pb = json.loads(a[1]), json.loads(b[1])
        assert "cached" not in pa and pb["cached"] is True
        assert pa["ratio"] == pb["ratio"]

    @pytest.mark.parametrize("mode", ["exhaustive", "auto"])
    def test_exact_search_ignores_flags_it_never_reads(self, mode, tmp_path, capsys):
        # the exact scan reads q, p and the mode alone: one cold run, then
        # three hits under another --restarts, --seed and --K
        base = ["search", "--q", "13", "--p", "2", "--mode", mode,
                "--cache-dir", str(tmp_path)]
        outs = [json.loads(run(base + extra, capsys)[1])
                for extra in ([], ["--restarts", "3"], ["--seed", "5"], ["--K", "7"])]
        assert "cached" not in outs[0]
        assert outs[1:] == [dict(outs[0], cached=True)] * 3
        assert len((tmp_path / "searches.jsonl").read_text().splitlines()) == 1
        assert len(list((tmp_path / "records").glob("search-*.json"))) == 1

    @pytest.mark.parametrize("mode, q, unread", [
        ("star", 3, (["--restarts", "3"], ["--seed", "5"])),
        ("heuristic", 13, (["--K", "7"], ["--k-sensitivity"]))])
    def test_search_ignores_flags_its_mode_never_reads(self, mode, q, unread,
                                                        tmp_path, capsys):
        # star reads K and --k-sensitivity, the heuristic --restarts and the
        # seed: one cold run, then two hits under flags the mode never reads
        base = ["search", "--q", str(q), "--p", "2", "--mode", mode,
                "--cache-dir", str(tmp_path)]
        outs = [json.loads(run(base + extra, capsys)[1]) for extra in ([], *unread)]
        assert "cached" not in outs[0]
        assert outs[1:] == [dict(outs[0], cached=True)] * 2
        assert len((tmp_path / "searches.jsonl").read_text().splitlines()) == 1

    def test_entry_after_partial_line_is_served(self, tmp_path, capsys):
        # a writer killed mid-line leaves no newline at the end of the file
        (tmp_path / "searches.jsonl").write_text('{"key": "abc", "pay')
        args = ["search", "--q", "7", "--p", "1", "--cache-dir", str(tmp_path)]
        assert "cached" not in json.loads(run(args, capsys)[1])
        assert json.loads(run(args, capsys)[1])["cached"] is True
        lines = (tmp_path / "searches.jsonl").read_text().split("\n")
        assert lines[0] == '{"key": "abc", "pay' and lines[-1] == ""

    def test_non_object_line_is_skipped(self, tmp_path, capsys):
        (tmp_path / "searches.jsonl").write_text("5\n[1, 2]\nnull\n")
        args = ["search", "--q", "7", "--p", "1", "--cache-dir", str(tmp_path)]
        code, out = run(args, capsys)
        assert code == 0 and "cached" not in json.loads(out)
        code, out = run(args, capsys)
        assert code == 0 and json.loads(out)["cached"] is True

    @staticmethod
    def edited_row_not_served(args, key, capsys, tmp_path):
        args = ["search", *args, "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        path = tmp_path / "searches.jsonl"
        row = json.loads(path.read_text())
        row["payload"][key] = 0.99
        path.write_text(json.dumps(row) + "\n")
        code, out = run(args, capsys)
        again = json.loads(out)
        assert code == 0 and again["cached"] is False
        assert again[key] == fresh[key]
        assert len(path.read_text().splitlines()) == 2
        # the recomputed row appended last is intact and served
        served = json.loads(run(args, capsys)[1])
        assert served["cached"] is True and served[key] == fresh[key]

    def test_cache_row_with_edited_ratio_not_served(self, tmp_path, capsys):
        self.edited_row_not_served(["--q", "7", "--p", "1"], "ratio", capsys, tmp_path)

    def test_star_cache_row_with_edited_ratio_not_served(self, tmp_path, capsys):
        self.edited_row_not_served(["--q", "3", "--p", "2", "--mode", "star"],
                                   "ratio_star", capsys, tmp_path)

    @staticmethod
    def k_sensitivity_row_recomputed(edit, capsys, tmp_path):
        args = ["search", "--q", "3", "--p", "2", "--mode", "star", "--k-sensitivity",
                "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        path = tmp_path / "searches.jsonl"
        row = json.loads(path.read_text())
        edit(row["payload"])
        path.write_text(json.dumps(row) + "\n")
        assert json.loads(run(args, capsys)[1]) == dict(fresh, cached=False)
        assert json.loads(run(args, capsys)[1]) == dict(fresh, cached=True)

    @pytest.mark.parametrize("entry", ["1000.0", "10000.0", "100000.0"])
    def test_star_k_sensitivity_row_with_edited_level_not_served(self, entry, tmp_path,
                                                                 capsys):
        def edit(payload):
            payload["K_sensitivity"][entry] = 0.99
        self.k_sensitivity_row_recomputed(edit, capsys, tmp_path)

    def test_star_k_sensitivity_row_without_witnesses_not_served(self, tmp_path, capsys):
        # written before the K/10 and 10K witnesses joined the row
        self.k_sensitivity_row_recomputed(
            lambda payload: payload.pop("K_sensitivity_witnesses"), capsys, tmp_path)

    def test_star_k_sensitivity_row_served_at_K_beyond_15_digits(self, tmp_path, capsys):
        # the row stores K at 15 digits, the level keys carry str(K)
        args = ["search", "--q", "4", "--p", "2", "--mode", "star", "--k-sensitivity",
                "--K", "1234.56789012345678", "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        assert json.loads(run(args, capsys)[1]) == dict(fresh, cached=True)

    def test_budget_exit_code(self, tmp_path, capsys):
        code, _ = run(["search", "--q", "40", "--p", "2", "--mode", "exhaustive",
                       "--cache-dir", str(tmp_path)], capsys)
        assert code == 3

    def test_cache_line_without_algorithm_version_not_served(self, tmp_path, capsys):
        # written before the algorithm version joined the search cache key
        (tmp_path / "searches.jsonl").write_text(json.dumps({
            "key": "2a0e09f4d875b16a",
            "payload": {"q": 29, "p": 1.0, "target": 1, "ratio": 0.315523622458285,
                        "spectrum": list(range(1, 15)), "method": "heuristic",
                        "evaluations": 7944}}) + "\n")
        code, out = run(["search", "--q", "29", "--p", "1", "--mode", "heuristic",
                         "--seed", "7", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "cached" not in json.loads(out)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_p_search_raises_no_warning(self, tmp_path, capsys):
        # |f|^2000 overflows on the 13-point grid; the scores are scale-free
        code, out = run(["search", "--q", "13", "--p", "2000", "--no-cache",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["spectrum"] == [6]

    def test_star_mode(self, tmp_path, capsys):
        code, out = run(["search", "--q", "2", "--p", "2", "--mode", "star",
                         "--K", "1e6", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["ratio_star"] == 1.0

    @pytest.mark.parametrize("q, method", [(26, "exhaustive"), (27, "heuristic")])
    def test_auto_mode_boundary(self, q, method, tmp_path, capsys, monkeypatch):
        # the exact scan at q = 26 takes seconds; a stand-in shows the dispatch
        monkeypatch.setattr(discrete, "exact_gamma_sharp", lambda q, p:
                            discrete.ConcentrationReport(q, p, 1, 0.5, Spectrum((0,), q),
                                                         "exhaustive", 0))
        code, out = run(["search", "--q", str(q), "--p", "1", "--mode", "auto",
                         "--no-cache", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["method"] == method

    def test_heuristic_deterministic_repeat(self, tmp_path, capsys):
        args = ["search", "--q", "29", "--p", "1", "--mode", "heuristic",
                "--seed", "7", "--no-cache", "--cache-dir", str(tmp_path)]
        a = run(args, capsys)
        b = run(args, capsys)
        assert a == b


class TestCurveCommand:
    def test_csv_header_and_roundtrip(self, tmp_path, capsys):
        code, out = run(["curve", "--which", "A", "--lam", "2", "--points", "4",
                         "--t-min", "0.125", "--t-max", "0.5",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,t,value,tail_bound"
        for line in lines[1:]:
            lam, t, v, tb = (float(x) for x in line.split(","))
            again = f"{v:.15g}"
            assert float(again) == v     # lossless at 15 significant digits
            closed = math.pi ** 2 * t / (4 * math.sin(math.pi * t) ** 2)
            assert abs(v - closed) <= 1e-8

    def test_domain_exit_code(self, tmp_path, capsys):
        code, _ = run(["curve", "--which", "B", "--lam", "0.5",
                       "--cache-dir", str(tmp_path)], capsys)
        assert code == 2

    def test_near_divergence_finite(self, tmp_path, capsys):
        code, out = run(["curve", "--which", "B", "--lam", "1.01", "--points", "3",
                         "--t-min", "0.2", "--t-max", "0.4", "--tol", "1e-6",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            _, _, v, tb = (float(x) for x in line.split(","))
            assert math.isfinite(v) and tb > 0


class TestRoundCommand:
    def test_reproducible_single_trial(self, tmp_path, capsys):
        args = ["round", "--q", "97", "--n", "24", "--L", "3", "--p", "3",
                "--epsilon", "0.3", "--trials", "1", "--seed", "5",
                "--cache-dir", str(tmp_path)]
        a = run(args, capsys)
        b = run(args, capsys)
        assert a == b and a[0] == 0
        payload = json.loads(a[1])
        assert "hypotheses" in payload and "frequency" in payload


class TestConcentrateCommand:
    def test_full_circle(self, tmp_path, capsys):
        e = tmp_path / "E.json"
        e.write_text(json.dumps({"intervals": [[0.0, 1.0]]}))
        code, out = run(["concentrate", "--e-file", str(e), "--p", "2",
                         "--epsilon", "0.05", "--q-max", "60",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["report"]["ratio"] >= 1 - 1e-6

    def test_asymmetric_rejected_without_flag(self, tmp_path, capsys):
        e = tmp_path / "E.json"
        e.write_text(json.dumps({"intervals": [[0.1, 0.2]]}))
        code, _ = run(["concentrate", "--e-file", str(e), "--p", "2",
                       "--epsilon", "0.05", "--cache-dir", str(tmp_path)], capsys)
        assert code == 2

    def test_nu_flag_reports_gaps(self, tmp_path, capsys):
        e = tmp_path / "E.json"
        e.write_text(json.dumps({"intervals": [[0.30, 0.35], [0.65, 0.70]]}))
        code, out = run(["concentrate", "--e-file", str(e), "--p", "2",
                         "--epsilon", "0.05", "--nu", "3",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["min_gap"] >= 3


class TestDecayCommand:
    def test_csv_sorted_and_dominating(self, tmp_path, capsys):
        code, out = run(["decay", "--primes", "7,3,5",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("q,method,gamma1_hat,dirichlet_best")
        qs = [int(l.split(",")[0]) for l in lines[1:]]
        assert qs == sorted(qs) == [3, 5, 7]
        for l in lines[1:]:
            parts = l.split(",")
            assert float(parts[2]) >= float(parts[3]) - 1e-12


E_WIDE = {"intervals": [[0.30, 0.35], [0.65, 0.70]]}
E_MALFORMED = {
    "short-pair.json": {"intervals": [[0.3]]},
    "not-a-list.json": {"intervals": 5},
    "strings.json": {"intervals": [["a", "b"]]},
    "null.json": {"intervals": [[0.3, None]]},
}
CONCENTRATE = ["concentrate", "--e-file", "{E}", "--epsilon", "0.05"]


@pytest.mark.parametrize("argv", [
    ["search", "--q", "5", "--p", "nan"],
    ["search", "--q", "5", "--p", "inf"],
    ["search", "--q", "5", "--p", "nan", "--mode", "star"],
    ["search", "--q", "31", "--p", "nan", "--mode", "heuristic"],
    [*CONCENTRATE, "--p", "nan"],
    [*CONCENTRATE, "--p", "inf"],
    ["curve", "--which", "B", "--lam", "inf"],
    ["round", "--q", "97", "--n", "24", "--L", "3", "--p", "3", "--epsilon", "-1",
     "--trials", "1"],
    ["round", "--q", "97", "--n", "24", "--L", "3", "--p", "nan", "--epsilon", "0.2",
     "--trials", "1"],
    ["decay", "--primes", "4"],
    [*CONCENTRATE, "--p", "2", "--nu", "0"],
    [*CONCENTRATE, "--p", "2", "--theta", "0"],
    [*CONCENTRATE, "--p", "2", "--eta", "nan"],
    ["search", "--q", "3", "--p", "2", "--mode", "star", "--K", "0"],
    ["search", "--q", "3", "--p", "2", "--mode", "star", "--K", "nan"],
    ["search", "--q", "3", "--p", "2", "--mode", "star", "--K", "-1"],
    ["concentrate", "--e-file", "{DIR}/missing.json", "--epsilon", "0.05", "--p", "2"],
    ["concentrate", "--e-file", "{DIR}/bad.json", "--epsilon", "0.05", "--p", "2"],
    ["replay", "{DIR}/missing-record.json"],
    ["decay", "--primes", "3,x"],
    ["decay", "--primes-up-to", "-5"],
    *(["concentrate", "--e-file", "{DIR}/" + name, "--epsilon", "0.05", "--p", "2"]
      for name in E_MALFORMED),
    ["search", "--q", "31", "--p", "1", "--mode", "heuristic", "--seed", "-1"],
    ["round", "--q", "97", "--n", "24", "--L", "3", "--p", "3", "--epsilon", "0.2",
     "--trials", "1", "--seed", "-1"],
    ["round", "--q", "1", "--n", "1", "--L", "1", "--p", "3", "--epsilon", "0.2",
     "--trials", "1"],
    ["curve", "--which", "B", "--lam", "2", "--points", "-1"],
    ["curve", "--which", "B", "--lam", "2", "--points", "0"],
    ["curve", "--which", "B", "--lam", "2", "--tol", "0"],
    ["curve", "--which", "A", "--lam", "2", "--tol", "-1"],
    ["curve", "--which", "B", "--lam", "2", "--tol", "nan"],
    ["search", "--q", "5", "--p", "2", "--mode", "heuristic", "--restarts", "-3"],
    ["decay", "--primes", "3", "--restarts", "-1"],
    ["search", "--q", "5", "--p", "2", "--mode", "exhaustive", "--restarts", "-3"],
    ["search", "--q", "5", "--p", "2", "--mode", "star", "--restarts", "-3"],
    ["curve", "--which", "B", "--lam", "1600", "--points", "2"],
    ["curve", "--which", "A", "--lam", "2", "--t-min", "1e-300", "--t-max", "1e-300",
     "--points", "1"],
    [*CONCENTRATE, "--p", "200"],
], ids=["search-p-nan", "search-p-inf", "star-p-nan", "heuristic-p-nan",
        "concentrate-p-nan", "concentrate-p-inf", "curve-lam-inf",
        "round-epsilon-negative", "round-p-nan", "decay-non-prime", "concentrate-nu-0",
        "concentrate-theta-0", "concentrate-eta-nan", "star-K-0", "star-K-nan",
        "star-K-negative", "concentrate-e-file-missing", "concentrate-e-file-not-json",
        "replay-record-missing", "decay-primes-not-integer", "decay-primes-up-to-negative",
        *(f"concentrate-e-file-{name[:-5]}" for name in E_MALFORMED),
        "heuristic-seed-negative", "round-seed-negative", "round-q-1",
        "curve-points-negative", "curve-points-0", "curve-tol-0", "curve-tol-negative",
        "curve-tol-nan", "heuristic-restarts-negative", "decay-restarts-negative",
        "exhaustive-restarts-negative", "star-restarts-negative",
        "curve-B-prefactor-overflow", "curve-A-series-overflow",
        "concentrate-power-overflow"])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    e = tmp_path / "E.json"
    e.write_text(json.dumps(E_WIDE))
    (tmp_path / "bad.json").write_text("{not json")
    for name, spec in E_MALFORMED.items():
        (tmp_path / name).write_text(json.dumps(spec))
    argv = [a.replace("{E}", str(e)).replace("{DIR}", str(tmp_path)) for a in argv]
    code, _ = run([*argv, "--cache-dir", str(tmp_path)], capsys)
    assert code == 2


class TestLargeP:
    """|f|^p beyond a float: each command prints finite numbers or exits 2,
    and no RuntimeWarning escapes."""

    @staticmethod
    def run_strict(argv, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run([*argv, "--cache-dir", str(tmp_path)], capsys)

    @pytest.mark.parametrize("argv", [
        ["search", "--q", "101", "--p", "400", "--restarts", "1"],
        ["search", "--q", "31", "--p", "1000", "--restarts", "1"],
        ["search", "--q", "211", "--p", "250.5", "--mode", "heuristic"],
        ["round", "--q", "499", "--n", "100", "--L", "3", "--p", "400", "--epsilon", "0.2",
         "--trials", "10", "--seed", "1"]])
    def test_prints_finite_numbers(self, argv, tmp_path, capsys):
        code, out = self.run_strict(argv, tmp_path, capsys)
        assert code == 0
        json.loads(out, parse_constant=pytest.fail)      # no NaN or Infinity

    def test_concentrate_power_overflow_exits_2(self, tmp_path, capsys):
        e = tmp_path / "E.json"
        e.write_text(json.dumps(E_WIDE))
        argv = [*CONCENTRATE, "--p", "200"]
        code, _ = self.run_strict([a.replace("{E}", str(e)) for a in argv], tmp_path, capsys)
        assert code == 2


class TestReplay:
    def test_replay_matches(self, tmp_path, capsys):
        run(["search", "--q", "5", "--p", "2", "--cache-dir", str(tmp_path)], capsys)
        rec = next((tmp_path / "records").glob("search-*.json"))
        code, out = run(["replay", str(rec), "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_replay_detects_tamper(self, tmp_path, capsys):
        run(["search", "--q", "5", "--p", "1", "--cache-dir", str(tmp_path)], capsys)
        rec = next((tmp_path / "records").glob("search-*.json"))
        data = json.loads(rec.read_text())
        data["outputs"]["ratio"] = 0.123
        rec.write_text(json.dumps(data))
        code, out = run(["replay", str(rec), "--cache-dir", str(tmp_path)], capsys)
        assert code == 1
        assert json.loads(out)["match"] is False

    @staticmethod
    def workers_record(path, evaluations):
        # written before the --workers flag was removed; the key is ignored
        path.write_text(json.dumps({
            "command": "search", "config_hash": "9220fd4f07a7c1d1",
            "inputs": {"K": 10000.0, "k_sensitivity": False, "mode": "auto",
                       "p": 1.0, "q": 7, "restarts": 4, "seed": 0, "workers": 1},
            "outputs": {"evaluations": evaluations, "method": "exhaustive", "p": 1.0,
                        "q": 7, "ratio": 0.440249691869698, "spectrum": [1, 2, 3],
                        "target": 1},
            "seed": 0, "wall_time": 0.0085}))
        return path

    def test_replay_record_with_workers_input(self, tmp_path, capsys):
        rec = self.workers_record(tmp_path / "search-9220fd4f07a7c1d1.json", 36)
        code, out = run(["replay", str(rec), "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["match"] is True

    # the scan counted 405 evaluations before the complement cut and
    # conjugate symmetry, and 87 before dilation pruning at every q; ratio
    # and witness are unchanged
    @pytest.mark.parametrize("evaluations", [405, 87])
    def test_replay_record_of_an_older_scan_mismatches(self, tmp_path, capsys, evaluations):
        rec = self.workers_record(tmp_path / "search-9220fd4f07a7c1d1.json", evaluations)
        code, out = run(["replay", str(rec), "--cache-dir", str(tmp_path)], capsys)
        assert code == 1
        assert json.loads(out)["match"] is False

    @pytest.mark.parametrize("record", [
        {"command": "search", "inputs": {}},
        {"command": "search", "inputs": [1]},
        {"command": "curve", "inputs": {"which": "B", "lam": 2.0, "t_min": 0.01,
                                        "t_max": 0.5, "points": "3", "tol": 1e-10}},
        {"command": [1], "inputs": {}},
    ], ids=["search-inputs-empty", "inputs-not-an-object", "curve-points-string",
            "command-not-a-string"])
    def test_replay_malformed_record_exits_2(self, record, tmp_path, capsys):
        rec = tmp_path / "record.json"
        rec.write_text(json.dumps(dict(record, config_hash="x", outputs={})))
        code = cli.main(["replay", str(rec), "--cache-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("domain error:")

    def test_replay_runner_error_exits_5(self, tmp_path, capsys, monkeypatch):
        rec = self.workers_record(tmp_path / "search-9220fd4f07a7c1d1.json", 36)

        def boom(inputs):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._RUNNERS, "search", boom)
        code = cli.main(["replay", str(rec), "--cache-dir", str(tmp_path)])
        assert code == 5
        assert "RuntimeError: boom" in capsys.readouterr().err


def test_unexpected_error_exits_5(tmp_path, capsys, monkeypatch):
    def boom(inputs):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli._RUNNERS, "constants", boom)
    code = cli.main(["constants", "--cache-dir", str(tmp_path)])
    assert code == 5
    assert "RuntimeError: boom" in capsys.readouterr().err


class TestConstantsExitCode:
    def test_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        from concentra.bounds import ConstantResult
        monkeypatch.setattr("concentra.cli.bounds.gamma2_sharp",
                            lambda: ConstantResult(0.3, 1.0,
                                                   {"stationarity_residual": 0.0}))
        monkeypatch.setattr("concentra.cli.bounds.gamma4_sharp_lower",
                            lambda: ConstantResult(0.496, 0.27, {}))
        monkeypatch.setattr("concentra.cli.bounds.gamma_sharp_lower",
                            lambda p: ConstantResult(0.49, None, {}))
        monkeypatch.setattr("concentra.cli.bounds.asymptote_scan",
                            lambda lam: ConstantResult(4.133, 0.225, {}))
        monkeypatch.setattr("concentra.cli.bounds.gamma1_certified_lower",
                            lambda r: ConstantResult(0.9605, None, {}))
        code, out = run(["constants", "--cache-dir", str(tmp_path)], capsys)
        assert code == 4
        payload = json.loads(out)
        assert payload["all_passed"] is False


class TestNewFlags:
    def test_trace_csv(self, tmp_path, capsys):
        e = tmp_path / "E.json"
        e.write_text(json.dumps({"intervals": [[0.30, 0.35], [0.65, 0.70]]}))
        trace = tmp_path / "trace.csv"
        code, _ = run(["concentrate", "--e-file", str(e), "--p", "2",
                       "--epsilon", "0.05", "--trace", str(trace),
                       "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "q,a,coverage"
        assert len(lines) > 1
        q, a, cov = lines[-1].split(",")
        assert (int(q), int(a)) == (13, 4) and float(cov) == 1.0

    def test_replay_leaves_trace_unchanged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "E.json").write_text(json.dumps(E_WIDE))
        run(["concentrate", "--e-file", "E.json", "--p", "2", "--epsilon", "0.05",
             "--trace", "t.csv", "--cache-dir", "."], capsys)
        trace = tmp_path / "t.csv"
        trace.write_text("q,a,coverage\n")
        rec = next((tmp_path / "records").glob("concentrate-*.json"))
        code, out = run(["replay", str(rec), "--cache-dir", "."], capsys)
        assert code == 0 and json.loads(out)["match"] is True
        assert trace.read_text() == "q,a,coverage\n"

    @pytest.mark.parametrize("p", ["1.0000001", "1e6"])
    def test_kernel_length_overflow_exits_3(self, p, tmp_path, capsys):
        e = tmp_path / "E.json"
        e.write_text(json.dumps(E_WIDE))
        code, _ = run(["concentrate", "--e-file", str(e), "--p", p, "--epsilon", "0.05",
                       "--cache-dir", str(tmp_path)], capsys)
        assert code == 3

    def test_star_k_sensitivity(self, tmp_path, capsys):
        code, out = run(["search", "--q", "3", "--p", "2", "--mode", "star",
                         "--K", "100", "--k-sensitivity", "--no-cache",
                         "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        sens = json.loads(out)["K_sensitivity"]
        vals = [sens[k] for k in sorted(sens, key=float)]
        assert vals == sorted(vals)

    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONCENTRA_CACHE", str(tmp_path / "envcache"))
        monkeypatch.chdir(tmp_path)
        code, _ = run(["search", "--q", "3", "--p", "1"], capsys)
        assert code == 0
        assert (tmp_path / "envcache" / "records").exists()


@pytest.mark.parametrize("argv, expected", [
    (["constants"], "9f73ae52e196717d"),
    (["curve", "--which", "B", "--lam", "2.5", "--points", "5"], "34398d308844f044"),
    (["search", "--q", "13", "--p", "2"], "10f906c8d754d6ad"),
    (["search", "--q", "27", "--p", "1"], "9ed646f7995eb70a"),
    (["search", "--q", "5", "--p", "2", "--mode", "star", "--k-sensitivity"],
     "39edf7719321f96c"),
    (["round", "--q", "499", "--n", "125", "--L", "3", "--p", "3", "--epsilon", "0.2",
      "--trials", "20", "--seed", "1"], "b29c1367d527c311"),
    ([*CONCENTRATE, "--p", "3"], "f534b8284f00a450"),
    (["decay", "--primes", "3,5,7,11,13,101", "--restarts", "2"], "2a5866f7b5962f88"),
], ids=["constants", "curve", "search", "search-heuristic", "search-star", "round",
        "concentrate", "decay"])
def test_record_hash_pinned(argv, expected, tmp_path):
    # a record's name and replay key: the flags it hashes must not drift
    e = tmp_path / "E.json"
    e.write_text(json.dumps(E_WIDE))
    a = cli._build_parser().parse_args([x.replace("{E}", str(e)) for x in argv])
    assert config_hash(a.cmd, *cli._inputs_from_args(a)) == expected


class TestSerialization:
    def test_fifteen_digit_roundtrip(self):
        vals = [math.pi, 1 / 3, 0.4613019141225039, 1e-300, 123456.789]
        blob = canonical_json({"x": vals})
        parsed = json.loads(blob)["x"]
        assert parsed == [float(f"{v:.15g}") for v in vals]
        assert canonical_json({"x": parsed}) == blob
