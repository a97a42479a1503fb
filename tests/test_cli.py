import json
import math
import warnings

import numpy as np
import pytest

from concentra import cache, cli, discrete
from concentra.cache import _seal, canonical_json, config_hash, to_jsonable
from concentra.trigpoly import Spectrum
from golden import regenerate


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def search_records(cache_dir) -> list:
    return sorted((cache_dir / "records").glob("search-*.json"))


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

    def test_cache_key_keeps_every_input_digit(self, tmp_path, capsys):
        # p differs from 1 in the 17th digit: the 15-digit output form
        # cannot tell the two apart, the cache key must
        for p in ("1", "1.0000000000000002"):
            code, out = run(["search", "--q", "7", "--p", p,
                             "--cache-dir", str(tmp_path)], capsys)
            assert code == 0 and "cached" not in json.loads(out)
        assert len(search_records(tmp_path)) == 2

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
        assert len(search_records(tmp_path)) == 1

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
        assert len(search_records(tmp_path)) == 1

    def test_no_cache_reads_no_record_but_writes_one(self, tmp_path, capsys):
        args = ["search", "--q", "7", "--p", "1", "--cache-dir", str(tmp_path)]
        fresh = [json.loads(run(args + ["--no-cache"], capsys)[1]) for _ in range(2)]
        assert fresh[0] == fresh[1] and "cached" not in fresh[0]
        assert json.loads(run(args, capsys)[1]) == dict(fresh[0], cached=True)

    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],
        lambda text: "[1, 2]",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "inputs"}),
    ], ids=["truncated", "not-a-record", "no-inputs"])
    def test_unreadable_record_is_a_miss_and_is_rewritten(self, damage, tmp_path, capsys):
        # a writer killed mid-file leaves a truncated record
        args = ["search", "--q", "7", "--p", "1", "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        [path] = search_records(tmp_path)
        intact = path.read_text()
        path.write_text(damage(intact))
        assert json.loads(run(args, capsys)[1]) == fresh
        assert search_records(tmp_path) == [path]
        assert json.loads(path.read_text())["outputs"] == json.loads(intact)["outputs"]
        assert json.loads(run(args, capsys)[1]) == dict(fresh, cached=True)

    @staticmethod
    def edit_record(tmp_path, edit):
        [path] = search_records(tmp_path)
        rec = json.loads(path.read_text())
        edit(rec["outputs"])
        path.write_text(json.dumps(rec))
        return path

    @staticmethod
    def edited_row_not_served(args, key, capsys, tmp_path, value=0.99):
        args = ["search", *args, "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        assert fresh[key] != value
        path = TestSearchCommand.edit_record(tmp_path, lambda out: out.update({key: value}))
        code, out = run(args, capsys)
        again = json.loads(out)
        assert code == 0 and again["cached"] is False
        assert again[key] == fresh[key]
        # the recomputed record replaced the edited one, and is served
        assert search_records(tmp_path) == [path]
        served = json.loads(run(args, capsys)[1])
        assert served["cached"] is True and served[key] == fresh[key]

    def test_cache_row_with_edited_ratio_not_served(self, tmp_path, capsys):
        self.edited_row_not_served(["--q", "7", "--p", "1"], "ratio", capsys, tmp_path)

    def test_star_cache_row_with_edited_ratio_not_served(self, tmp_path, capsys):
        self.edited_row_not_served(["--q", "3", "--p", "2", "--mode", "star"],
                                   "ratio_star", capsys, tmp_path)

    def test_sealed_row_of_another_shape_not_served(self, tmp_path, capsys):
        # a spectrum that is a number, resealed: the ratio check cannot read
        # the row, so it is recomputed
        args = ["search", "--q", "7", "--p", "1", "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        [path] = search_records(tmp_path)
        rec = json.loads(path.read_text())
        rec["outputs"]["spectrum"] = 5
        rec["outputs_digest"] = _seal(rec["config_hash"], rec["outputs"])
        path.write_text(json.dumps(rec))
        assert json.loads(run(args, capsys)[1]) == dict(fresh, cached=False)
        assert json.loads(path.read_text())["outputs"] == fresh

    @pytest.mark.parametrize("args, key, value", [
        (["--q", "7", "--p", "1"], "evaluations", 1),
        (["--q", "3", "--p", "2", "--mode", "star"], "cond_K_ok", False),
        (["--q", "3", "--p", "2", "--mode", "star"], "evaluations", 1),
    ], ids=["plain-evaluations", "star-cond_K_ok", "star-evaluations"])
    def test_edited_output_beside_the_ratio_not_served(self, args, key, value, tmp_path,
                                                       capsys):
        # the ratio check recomputes the level alone; the seal covers every output
        self.edited_row_not_served(args, key, capsys, tmp_path, value)

    @pytest.mark.parametrize("args", [
        ["--q", "7", "--p", "1"],
        ["--q", "3", "--p", "2", "--mode", "star", "--k-sensitivity"],
    ], ids=["plain", "star-k-sensitivity"])
    def test_record_from_before_the_seal_recomputed_once(self, args, tmp_path, capsys):
        args = ["search", *args, "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        [path] = search_records(tmp_path)
        rec = json.loads(path.read_text())
        digest = rec.pop("outputs_digest")
        path.write_text(json.dumps(rec))
        assert json.loads(run(args, capsys)[1]) == dict(fresh, cached=False)
        assert json.loads(path.read_text())["outputs_digest"] == digest
        assert json.loads(run(args, capsys)[1]) == dict(fresh, cached=True)

    @staticmethod
    def k_sensitivity_row_recomputed(edit, capsys, tmp_path):
        args = ["search", "--q", "3", "--p", "2", "--mode", "star", "--k-sensitivity",
                "--cache-dir", str(tmp_path)]
        fresh = json.loads(run(args, capsys)[1])
        TestSearchCommand.edit_record(tmp_path, edit)
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

    def test_record_of_another_algorithm_version_not_served(self, tmp_path, capsys,
                                                            monkeypatch):
        args = ["search", "--q", "29", "--p", "1", "--mode", "heuristic", "--seed", "7",
                "--restarts", "1", "--cache-dir", str(tmp_path)]
        with monkeypatch.context() as m:
            m.setattr(discrete, "ALGORITHM_VERSION", discrete.ALGORITHM_VERSION - 1)
            run(args, capsys)
        [old] = search_records(tmp_path)
        assert json.loads(old.read_text())["inputs"]["algorithm"] == \
            discrete.ALGORITHM_VERSION - 1
        code, out = run(args, capsys)
        assert code == 0 and "cached" not in json.loads(out)
        assert len(search_records(tmp_path)) == 2

    def test_record_renamed_to_another_key_not_served(self, tmp_path, capsys):
        # the q = 7, p = 1 record under the name of the p = 2 search: it would
        # pass the ratio check, since its stored level is that of its witness
        a, b = (["search", "--q", "7", "--p", p, "--cache-dir", str(tmp_path)]
                for p in ("1", "2"))
        run(a, capsys)
        [path] = search_records(tmp_path)
        key = config_hash("search", cli._inputs_from_args(cli._build_parser().parse_args(b)))
        path.rename(path.with_name(f"search-{key}.json"))
        code, out = run(b, capsys)
        assert code == 0 and "cached" not in json.loads(out)
        assert json.loads(out)["p"] == 2.0

    @pytest.mark.parametrize("ours, theirs, field, seal", [
        (["--q", "7", "--p", "2"], ["--q", "7", "--p", "1"], "p", False),
        (["--q", "3", "--p", "2", "--mode", "star", "--K", "1e4"],
         ["--q", "3", "--p", "2", "--mode", "star", "--K", "100"], "K", False),
        (["--q", "23", "--p", "1", "--mode", "exhaustive"],
         ["--q", "23", "--p", "1", "--mode", "heuristic", "--restarts", "1"], "method", False),
        (["--q", "101", "--p", "1", "--mode", "heuristic", "--seed", "1"],
         ["--q", "101", "--p", "1", "--mode", "heuristic", "--seed", "1", "--restarts", "0"],
         "restarts", False),
        (["--q", "101", "--p", "1", "--mode", "heuristic", "--restarts", "1"],
         ["--q", "101", "--p", "1", "--mode", "heuristic", "--restarts", "1", "--seed", "2"],
         "seed", False),
        (["--q", "7", "--p", "2"], ["--q", "7", "--p", "1"], "p", True),
    ], ids=["plain-p", "star-K", "exhaustive-method", "heuristic-restarts", "heuristic-seed",
            "plain-p-with-its-seal"])
    def test_outputs_of_another_search_not_served(self, ours, theirs, field, seal, tmp_path,
                                                  capsys):
        # a record with its own inputs and the outputs of another search: the
        # stored level is that of its witness, so the ratio check passes it.
        # The other record's seal, copied with them, is keyed by its own config
        # hash, so it does not seal them under this one
        def path_of(args):
            inputs = cli._inputs_from_args(cli._build_parser().parse_args(args))
            return tmp_path / "records" / f"search-{config_hash('search', inputs)}.json"

        a, b = (["search", *extra, "--cache-dir", str(tmp_path)] for extra in (theirs, ours))
        other = json.loads(run(a, capsys)[1])
        fresh = json.loads(run(b, capsys)[1])
        assert other[field] != fresh[field]
        rec, donor = (json.loads(path_of(args).read_text()) for args in (b, a))
        rec["outputs"] = donor["outputs"]
        if seal:
            rec["outputs_digest"] = donor["outputs_digest"]
        path_of(b).write_text(json.dumps(rec))
        assert json.loads(run(b, capsys)[1]) == dict(fresh, cached=False)
        assert json.loads(path_of(b).read_text())["outputs"] == fresh
        assert json.loads(run(b, capsys)[1]) == dict(fresh, cached=True)

    @pytest.mark.parametrize("asked", [True, False], ids=["rows-dropped", "rows-added"])
    def test_star_rows_served_only_as_asked(self, asked, tmp_path, capsys):
        # a star record holding the outputs of the same search with the
        # K_sensitivity rows dropped or added: every level in it is that of
        # its witness, so the ratio checks pass it
        def path_of(args):
            inputs = cli._inputs_from_args(cli._build_parser().parse_args(args))
            return tmp_path / "records" / f"search-{config_hash('search', inputs)}.json"

        plain = ["search", "--q", "4", "--p", "2", "--mode", "star", "--cache-dir", str(tmp_path)]
        rows = plain + ["--k-sensitivity"]
        with_rows, without = (json.loads(run(args, capsys)[1]) for args in (rows, plain))
        assert {k: v for k, v in with_rows.items() if k in without} == without
        assert sorted(with_rows.keys() - without.keys()) == ["K_sensitivity",
                                                             "K_sensitivity_witnesses"]
        b, fresh, other = (rows, with_rows, without) if asked else (plain, without, with_rows)
        rec = json.loads(path_of(b).read_text())
        rec["outputs"] = other
        path_of(b).write_text(json.dumps(rec))
        assert json.loads(run(b, capsys)[1]) == dict(fresh, cached=False)
        assert json.loads(path_of(b).read_text())["outputs"] == fresh
        assert json.loads(run(b, capsys)[1]) == dict(fresh, cached=True)

    def test_budget_exit_code(self, tmp_path, capsys):
        code, _ = run(["search", "--q", "40", "--p", "2", "--mode", "exhaustive",
                       "--cache-dir", str(tmp_path)], capsys)
        assert code == 3

    def test_table_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(discrete, "_TABLE_BYTES", 2 ** 20)
        code, _ = run(["search", "--q", "401", "--p", "2", "--mode", "heuristic",
                       "--cache-dir", str(tmp_path)], capsys)
        assert code == 3

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

    def test_primes_up_to_lists_the_odd_primes(self, tmp_path, capsys):
        code, out = run(["decay", "--primes-up-to", "13", "--cache-dir", str(tmp_path)],
                        capsys)
        assert code == 0
        assert [int(l.split(",")[0]) for l in out.strip().split("\n")[1:]] == [3, 5, 7, 11, 13]

    def test_repeated_prime_is_one_row(self, tmp_path, capsys):
        # --primes 3,5,3 is --primes 3,5: the same rows and the same record
        outs = [run(["decay", "--primes", primes, "--cache-dir", str(tmp_path)], capsys)
                for primes in ("3,5,3", "3,5")]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert [l.split(",")[0] for l in outs[0][1].split("\n")[1:-1]] == ["3", "5"]
        assert len(list((tmp_path / "records").glob("decay-*.json"))) == 1

    def test_both_prime_flags_exit_2(self, tmp_path, capsys):
        # the two flags name the primes two ways: argparse refuses the pair
        with pytest.raises(SystemExit) as exc:
            cli.main(["decay", "--primes", "3", "--primes-up-to", "7",
                      "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "records").exists()

    @pytest.mark.parametrize("flags", [["--primes", "101,1009,20011"],
                                       ["--primes-up-to", "30000"]])
    def test_prime_past_the_table_budget_exits_3_before_any_row(
            self, monkeypatch, flags, tmp_path, capsys):
        # 20011 and 11587 pass the 1 GiB frequency table; no row is computed
        def no_row(*args, **kwargs):
            raise AssertionError("row computed")
        monkeypatch.setattr(discrete, "dirichlet_table", no_row)
        monkeypatch.setattr(discrete, "gamma_sharp", no_row)
        assert cli.main(["decay", *flags, "--cache-dir", str(tmp_path)]) == 3
        assert "budget error: the frequency table" in capsys.readouterr().err
        assert not (tmp_path / "records").exists()

    def test_empty_range_names_the_flag_given(self, tmp_path, capsys):
        assert cli.main(["decay", "--primes-up-to", "0", "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no odd prime up to 0" in err and "need --primes" not in err


E_WIDE = {"intervals": [[0.30, 0.35], [0.65, 0.70]]}
E_MALFORMED = {
    "short-pair.json": {"intervals": [[0.3]]},
    "not-a-list.json": {"intervals": 5},
    "strings.json": {"intervals": [["a", "b"]]},
    "null.json": {"intervals": [[0.3, None]]},
    "a-list.json": [[0.30, 0.35], [0.65, 0.70]],
    "no-intervals.json": {"sets": [[0.30, 0.35], [0.65, 0.70]]},
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
    ["decay"],
    ["decay", "--primes", ",,"],
    ["decay", "--primes", ""],
    ["decay", "--primes-up-to", "2"],
    ["decay", "--primes-up-to", "0"],
    ["round", "--q", "97", "--n", "24", "--L", "3", "--p", "3", "--epsilon", "0.2",
     "--trials", "1", "--seed", str(2 ** 64)],
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
        "concentrate-power-overflow", "decay-no-primes", "decay-primes-empty",
        "decay-primes-blank", "decay-primes-up-to-2", "decay-primes-up-to-0",
        "round-seed-2-64"])
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

    def test_star_K_near_the_float_limit(self, tmp_path, capsys):
        # K num overflows; the min takes the finite num / d_star
        code, out = self.run_strict(["search", "--q", "4", "--p", "2", "--mode", "star",
                                     "--K", "1e308"], tmp_path, capsys)
        assert code == 0
        row = json.loads(out)
        _, num, ds, _ = discrete.star(Spectrum(row["spectrum"], 8), 2.0, 1e308)
        assert row["ratio_star"] == to_jsonable(num / ds)

    def test_star_k_sensitivity_checks_10K_before_any_scan(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["search", "--q", "4", "--p", "2", "--mode", "star", "--K",
                             "1e308", "--k-sensitivity", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "domain error: need finite K > 0, got inf\n"

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

    def test_replay_of_an_input_beyond_fifteen_digits(self, tmp_path, capsys):
        # the record keeps t = 1/3 to the last bit, so replay evaluates the
        # series where the run did
        t = repr(1 / 3)
        run(["curve", "--which", "B", "--lam", "1.5", "--t-min", t, "--t-max", t,
             "--points", "1", "--cache-dir", str(tmp_path)], capsys)
        rec = next((tmp_path / "records").glob("curve-*.json"))
        assert json.loads(rec.read_text())["inputs"]["t_min"] == 1 / 3
        code, out = run(["replay", str(rec), "--cache-dir", str(tmp_path)], capsys)
        assert code == 0 and json.loads(out)["match"] is True

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

    def test_trace_path_stays_out_of_the_record(self, tmp_path, capsys):
        # the same run traced to two files is one record
        e = tmp_path / "E.json"
        e.write_text(json.dumps(E_WIDE))
        for name in ("a.csv", "b.csv"):
            code, _ = run(["concentrate", "--e-file", str(e), "--p", "2",
                           "--epsilon", "0.05", "--trace", str(tmp_path / name),
                           "--cache-dir", str(tmp_path)], capsys)
            assert code == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
        [rec] = (tmp_path / "records").glob("concentrate-*.json")
        assert "trace_path" not in json.loads(rec.read_text())["inputs"]

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

    @pytest.mark.parametrize("argv", [
        ["curve", "--which", "B", "--lam", "2.5", "--points", "3"],
        ["search", "--q", "7", "--p", "1"],
    ], ids=["curve-csv", "search-json"])
    def test_output_file_holds_the_printed_bytes(self, argv, tmp_path, capsys):
        path = tmp_path / "out.txt"
        code, out = run([*argv, "--output", str(path), "--cache-dir", str(tmp_path)], capsys)
        assert code == 0 and path.read_bytes() == out.encode()

    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONCENTRA_CACHE", str(tmp_path / "envcache"))
        monkeypatch.chdir(tmp_path)
        code, _ = run(["search", "--q", "3", "--p", "1"], capsys)
        assert code == 0
        assert (tmp_path / "envcache" / "records").exists()


RECORD_HASHES = {
    "constants": "cfb6129298c85cda", "curve": "1e91408f3974d8d6",
    "search": "063510f4a43c49a8", "search-heuristic": "84e23b1b6c671f16",
    "search-star": "069195f8c1773d04", "round": "4efde34a4d6c0522",
    "concentrate": "85a6d554ee8fe818", "decay": "42e54bce5c6afb1e",
}


@pytest.mark.parametrize("name", RECORD_HASHES)
def test_record_hash_pinned(name, tmp_path):
    # a record's name and replay key: the flags it hashes must not drift; the
    # configurations are those of the golden records
    e = tmp_path / "E.json"
    e.write_text(json.dumps(regenerate.E_WIDE))
    argv = regenerate.RECORD_CALLS[name]
    a = cli._build_parser().parse_args([x.replace("{E}", str(e)) for x in argv])
    assert config_hash(a.cmd, cli._inputs_from_args(a)) == RECORD_HASHES[name]


@pytest.mark.parametrize("argv", [
    ["constants"], ["curve", "--which", "B", "--lam", "2.5", "--points", "2"],
], ids=["constants", "curve"])
def test_seed_a_run_never_reads_names_no_other_record(argv, tmp_path, capsys):
    # a record is named by its command and inputs, and neither run reads
    # the seed: every --seed writes the one record
    outs = [run([*argv, *seed, "--cache-dir", str(tmp_path)], capsys)
            for seed in ([], ["--seed", "5"])]
    assert outs[0] == outs[1] and outs[0][0] == 0
    [rec] = (tmp_path / "records").glob(f"{argv[0]}-*.json")
    assert "seed" not in json.loads(rec.read_text())


class TestSerialization:
    def test_fifteen_digit_roundtrip(self):
        vals = [math.pi, 1 / 3, 0.4613019141225039, 1e-300, 123456.789]
        blob = canonical_json({"x": vals})
        parsed = json.loads(blob)["x"]
        assert parsed == [float(f"{v:.15g}") for v in vals]
        assert canonical_json({"x": parsed}) == blob

    def test_outputs_normalized_once(self, monkeypatch, tmp_path, capsys):
        # a run's wire form is built once, then recorded, sealed and printed
        # as it is; the record and the output keep their bytes
        calls = []
        wire = cache.to_jsonable

        def spy(obj):
            calls.append(isinstance(obj, dict) and "ratio" in obj)
            return wire(obj)

        monkeypatch.setattr(cache, "to_jsonable", spy)
        monkeypatch.setattr(cli, "to_jsonable", spy)
        code, out = run(["search", "--q", "7", "--p", "1", "--cache-dir", str(tmp_path)],
                        capsys)
        assert code == 0 and sum(calls) == 1
        [path] = search_records(tmp_path)
        rec = json.loads(path.read_text())
        assert json.loads(out) == rec["outputs"]
        assert rec["outputs_digest"] == _seal(rec["config_hash"], to_jsonable(rec["outputs"]))
