import csv
import json

import pytest

from compent import cli
from compent.harness import CheckRecord
from compent.packing import greedy_packing, packing_from_dict, packing_to_dict, separation_check


def run(argv):
    return cli.main(argv)


def test_parse_lambdas():
    assert cli.parse_lambdas("1..3") == [1, 2, 3]
    assert cli.parse_lambdas("2") == [2]
    with pytest.raises(cli.ConfigError):
        cli.parse_lambdas("0")
    with pytest.raises(cli.ConfigError):
        cli.parse_lambdas("x..y")
    with pytest.raises(cli.ConfigError):
        cli.parse_lambdas("3..1")
    # the range length is checked before its list is built
    for text in ("1..1000", "5..105"):
        with pytest.raises(cli.ConfigError, match="more than"):
            cli.parse_lambdas(text)
    assert cli.parse_lambdas(f"1..{cli.MAX_LAMBDAS}") == list(range(1, cli.MAX_LAMBDAS + 1))


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-9"])
def test_verify_rejects_a_non_finite_or_negative_tolerance(tolerance, capsys):
    code = run(["verify", "--suite", "convexity", "--lambda", "1", f"--tolerance={tolerance}"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tolerance must be finite")


def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "convexity", "--lambda", "1", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    assert records and all(r["pass"] for r in records)


def test_verify_reports_are_byte_identical(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        code = run(["verify", "--suite", "lu-cost", "--suite", "counterexample",
                    "--lambda", "1..2", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_csv_matches_json(tmp_path):
    j, c = tmp_path / "r.json", tmp_path / "r.csv"
    args = ["verify", "--suite", "concavity", "--lambda", "1..2", "--seed", "5"]
    assert run(args + ["--out", str(j), "--format", "json"]) == 0
    assert run(args + ["--out", str(c), "--format", "csv"]) == 0
    json_records = json.loads(j.read_text())
    with open(c) as fh:
        csv_records = list(csv.DictReader(fh))
    assert len(json_records) == len(csv_records)
    for jr, cr in zip(json_records, csv_records):
        assert jr["name"] == cr["name"]
        assert str(jr["lambda"]) == cr["lambda"]
        assert jr["key"] == (cr["key"] or None)
        assert jr["lhs"] == float(cr["lhs"])
        assert jr["rhs"] == float(cr["rhs"])
        assert jr["slack"] == float(cr["slack"])
        assert jr["tolerance"] == float(cr["tolerance"])
        assert jr["pass"] == (cr["pass"] == "True")
        assert jr["details"] == json.loads(cr["details"])


def test_verify_bad_lambda_exits_2(capsys):
    assert run(["verify", "--lambda", "0"]) == 2
    capsys.readouterr()


def test_verify_failure_exits_1(monkeypatch, tmp_path):
    failing = CheckRecord("stub", 1, None, 1.0, 0.0, -1.0, 1e-9, False)
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: [failing])
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "convexity", "--out", str(out)]) == 1


def test_seed_env_override(tmp_path, monkeypatch):
    # --seed is the one way to set a seed: COMPENT_SEED in the environment
    # overrides nothing
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    monkeypatch.delenv("COMPENT_SEED", raising=False)
    run(["verify", "--suite", "convexity", "--lambda", "1", "--seed", "1", "--out", str(a)])
    monkeypatch.setenv("COMPENT_SEED", "2")
    run(["verify", "--suite", "convexity", "--lambda", "1", "--seed", "1", "--out", str(b)])
    run(["verify", "--suite", "convexity", "--lambda", "1", "--seed", "2", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert b.read_bytes() != c.read_bytes()


def test_net_command(tmp_path, capsys):
    out = tmp_path / "packing.json"
    assert run(["net", "--m", "1", "--eta", "0.3", "--seed", "7", "--out", str(out)]) == 0
    assert "candidates (stopped: max_rejections reached)" in capsys.readouterr().err
    packing = packing_from_dict(json.loads(out.read_text()))
    assert len(packing) >= 2
    assert separation_check(packing)

    solo = tmp_path / "solo.json"
    assert run(["net", "--m", "1", "--eta", "0.99", "--seed", "7", "--out", str(solo)]) == 0
    assert len(packing_from_dict(json.loads(solo.read_text()))) == 1

    capped = tmp_path / "capped.json"
    assert run(["net", "--m", "1", "--eta", "0.3", "--seed", "7", "--max-candidates", "100",
                "--out", str(capped)]) == 0
    assert "from 100 candidates (stopped: max_candidates)" in capsys.readouterr().err
    expected = greedy_packing(1, 0.3, seed=7, max_candidates=100)
    assert capped.read_text() == json.dumps(packing_to_dict(expected), sort_keys=True) + "\n"

    assert run(["net", "--m", "1", "--eta", "1.5"]) == 2
    assert run(["net", "--m", "3", "--eta", "0.5"]) == 2


def test_net_deadline_zero_keeps_the_first_draw(tmp_path, capsys):
    late, capped = tmp_path / "late.json", tmp_path / "capped.json"
    assert run(["net", "--m", "2", "--eta", "0.5", "--seed", "3", "--deadline", "0",
                "--out", str(late)]) == 0
    assert capsys.readouterr().err.endswith("from 64 candidates (stopped: deadline), "
                                            "separation check passed\n")
    assert run(["net", "--m", "2", "--eta", "0.5", "--seed", "3", "--max-candidates", "64",
                "--out", str(capped)]) == 0
    truncated, first_draw = json.loads(late.read_text()), json.loads(capped.read_text())
    assert truncated.pop("truncated") is True and "truncated" not in first_draw
    assert truncated == first_draw


def test_counterexample_command(capsys, tmp_path):
    assert run(["counterexample", "--m", "1", "--eps", "0", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert "threshold eta: 0.01" in out

    assert run(["counterexample", "--m", "2", "--eps", "0.25"]) == 0
    assert "inconclusive" in capsys.readouterr().out

    assert run(["counterexample", "--m", "1", "--eps", "1.5"]) == 2
    capsys.readouterr()

    report = tmp_path / "cex.json"
    assert run(["counterexample", "--m", "1", "--eps", "1e-4", "--seed", "7",
                "--out", str(report)]) == 0
    capsys.readouterr()
    record = json.loads(report.read_text())[0]
    assert record["pass"] and record["details"]["threshold"] == 0.06


def test_demo_commands(capsys):
    assert run(["demo", "teleport", "--n", "1", "--seed", "3"]) == 0
    assert "p_err" in capsys.readouterr().out
    assert run(["demo", "unrotate", "--m", "2", "--seed", "3"]) == 0
    capsys.readouterr()
    assert run(["demo", "bbpssw", "--fidelity", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "0.760000" in out  # p_succ * F_branch + (1 - p_succ) / 2
    with pytest.raises(SystemExit) as err:
        run(["demo", "entanglement-swap"])
    assert err.value.code == 2


def test_demo_p_err_values(capsys):
    assert run(["demo", "teleport", "--n", "2", "--seed", "5"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("p_err")][0]
    assert float(line.split(":")[1]) <= 1e-9
    assert run(["demo", "unrotate", "--m", "1", "--seed", "5"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("p_err")][0]
    assert float(line.split(":")[1]) <= 1e-9


def test_verify_summary_counts_add_up(capsys):
    # the (m=2, eps=0.25) counterexample record is inconclusive, not passed
    assert run(["verify", "--suite", "counterexample", "--lambda", "1"]) == 0
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    total, rest = captured.err.strip().split(" checks: ")
    counts = [int(part.split()[0]) for part in rest.split(", ")]
    assert int(total) == len(records) == sum(counts)
    assert counts == [
        sum(r["pass"] and not r["inconclusive"] for r in records),
        sum(not r["pass"] and not r["inconclusive"] for r in records),
        sum(r["inconclusive"] for r in records),
    ]
    assert counts[2] == 1


def test_verify_without_suite_exits_2(capsys):
    assert run(["verify", "--lambda", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_suite_choices_come_from_the_table(capsys):
    from compent.harness import SUITES, all_selectors

    assert all_selectors() == ["all", *SUITES, *(f"keyed-{s}" for s in SUITES), "counterexample"]
    parser = cli.build_parser()
    for sel in all_selectors():
        assert parser.parse_args(["verify", "--suite", sel]).suite == [sel]
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--suite", "keyed-counterexample"])
    capsys.readouterr()


# net's out-of-range etas, each with the value as its error line shows it
BAD_ETAS = {"0": "0.0", "1": "1.0", "-0.5": "-0.5", "nan": "nan"}


@pytest.mark.parametrize("argv", [
    ["demo", "teleport", "--n", "0"],
    ["demo", "teleport", "--n", "3"],
    ["demo", "unrotate", "--m", "0"],
    ["net", "--m", "-1", "--eta", "0.5"],
    ["net", "--m", "0", "--eta", "0.5"],
    ["net", "--m", "3", "--eta", "0.5"],
    ["net", "--eta", "0.5", "--max-candidates", "0"],
    ["net", "--eta", "0.5", "--deadline", "-1"],
    ["net", "--eta", "0.5", "--deadline", "nan"],
    ["counterexample", "--m", "0"],
    ["counterexample", "--m", "3"],
    ["counterexample", "--m", "1", "--eps", "1.5"],
    ["demo", "bbpssw", "--fidelity", "1.5"],
    *(["net", "--m", "2", "--eta", eta] for eta in BAD_ETAS),
])
def test_out_of_range_sizes_exit_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if argv[-2] == "--eta" and argv[-1] in BAD_ETAS:
        assert captured.err == f"error: eta must lie in (0, 1), got {BAD_ETAS[argv[-1]]}\n"
    if argv[-2] == "--deadline":
        assert captured.err == f"error: deadline_s must be at least 0, got {float(argv[-1])}\n"
    if argv[-2] == "--eps":  # the threshold scan's own check, word for word
        assert captured.err == "error: eps must lie in [0, 1), got 1.5\n"
    if argv[-2] == "--fidelity":
        assert captured.err == "error: input fidelity must lie in [0, 1]\n"


def test_counterexample_writes_out_when_inconclusive(capsys, tmp_path):
    report = tmp_path / "cex.json"
    assert run(["counterexample", "--m", "2", "--eps", "0.25", "--out", str(report)]) == 0
    assert "verdict: inconclusive" in capsys.readouterr().out
    [record] = json.loads(report.read_text())
    assert record["inconclusive"] and record["details"]["threshold"] is None


def test_inconclusive_record_reports_no_value(tmp_path):
    j, c = tmp_path / "r.json", tmp_path / "r.csv"
    args = ["verify", "--suite", "counterexample", "--lambda", "1"]
    assert run(args + ["--out", str(j)]) == 0
    assert run(args + ["--out", str(c), "--format", "csv"]) == 0
    with open(c) as fh:
        rows = list(csv.DictReader(fh))
    for record, row in zip(json.loads(j.read_text()), rows):
        values = [record[f] for f in ("lhs", "rhs", "slack", "tolerance")]
        cells = [row[f] for f in ("lhs", "rhs", "slack", "tolerance")]
        if record["inconclusive"]:
            assert values == [None] * 4 and cells == [""] * 4
        else:
            assert None not in values and "" not in cells


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: seen.append((a, k)) or [])
    assert run(["verify", "--suite", "convexity", "--suite", "keyed-concavity", "--lambda", "2..3",
                "--seed", "5", "--tolerance", "1e-3", "--kappa", "2"]) == 0
    assert run(["verify", "--suite", "subadditivity"]) == 0
    assert seen == [
        ((["convexity", "keyed-concavity"], [2, 3], 5), {"tolerance": 1e-3, "kappa": 2}),
        ((["subadditivity"], [1, 2], 0), {"tolerance": 1e-9, "kappa": 1}),
    ]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()


def test_record_rows_have_the_report_fields_and_leave_the_record_alone():
    record = CheckRecord("stub", 2, "01", 1.0, 2.0, 1.0, 1e-9, True, details={"p": [0.5, 0.5]})
    assert set(record.to_dict()) == set(cli.REPORT_FIELDS)
    assert cli.records_to_csv([record]).splitlines()[1].startswith("stub,2,01,")
    assert record.details == {"p": [0.5, 0.5]}
