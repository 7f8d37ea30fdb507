"""Command-line interface: exit codes, reports, config handling."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qkrall.krall
import qkrall.search
from qkrall import THEOREMS, CrossCheckFailed
from qkrall.cli import _parser, main


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload(out_dir) -> dict:
    wrapper = json.loads((out_dir / "report.json").read_text())
    assert set(wrapper) == {"payload", "elapsed_seconds"}
    assert "elapsed_seconds" not in wrapper["payload"]
    return wrapper["payload"]


def test_verify_eigen_reference_instance(capsys):
    code, out, _ = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--k", "2", "--n", "10")
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_orthogonality_writes_diagonal_gram(capsys, tmp_path):
    out_dir = tmp_path / "r"
    code, _, _ = _run(capsys, "verify-orthogonality", "--theorem",
                      "laguerre-ii", "--alpha", "2", "--m", "1",
                      "--n", "8", "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "gram.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 9 and all(len(r) == 9 for r in rows)
    for i in range(9):
        for j in range(9):
            value = rows[i][j]
            if i == j:
                assert value not in ("0", "")
            else:
                assert value == "0"
    payload = _payload(out_dir)
    assert payload["all_passed"] is True
    # every reported number is an exact rational string
    assert all("/" in v or v.lstrip("-").isdigit()
               for row in payload["gram"] for v in row)


def test_conjecture_a_reference_run(capsys, tmp_path):
    out_dir = tmp_path / "r"
    code, out, _ = _run(capsys, "conjecture", "a", "--f1", "1",
                        "--order-max", "6", "--out", str(out_dir))
    assert code == 0
    payload = _payload(out_dir)
    assert payload["found_order"] == 4
    assert payload["conjectured_order"] == 4
    assert payload["status"] == "found"
    assert "order 2: not found" in out


def test_reports_are_deterministic(capsys, tmp_path):
    blobs = []
    for sub in ("r1", "r2"):
        out_dir = tmp_path / sub
        code, _, _ = _run(capsys, "verify-eigen", "--theorem", "laguerre-i",
                          "--k", "1", "--n", "6", "--out", str(out_dir))
        assert code == 0
        blobs.append(json.dumps(_payload(out_dir), sort_keys=True))
    assert blobs[0] == blobs[1]


def test_degenerate_base_is_invalid_input(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "1/1"}))
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--config", str(cfg))
    assert code == 2
    assert "q != +-1" in err


def test_forbidden_parameter_ladder_is_invalid_input(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": "5/2", "q": "2/5"}))
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--config", str(cfg))
    assert code == 2
    assert "b = q^-1" in err


@pytest.mark.parametrize("argv", [
    ("laguerre-ii", "--alpha", "1", "--m", "-1"),    # P2(theta_0) = 1 + m
    ("meixner-iii", "--q", "5/12", "--b", "5/18", "--c", "7/4", "--k", "1"),
])
def test_vanishing_gamma_names_its_index(capsys, argv):
    # build raises GammaVanishes(1): gamma_1 = P2(theta_0) is zero
    code, out, err = _run(capsys, "build-krall", "--theorem", *argv,
                          "--n", "4")
    assert code == 2 and out == ""
    assert "GammaVanishes: gamma_1 = P2(theta_0) vanishes" in err


@pytest.mark.parametrize("argv, derived", [
    (("meixner-i", "--b", "1/3", "--c", "-5/2"),
     "meixner(2/5, 5/2, -6/5)"),        # the carrier (q, -c, 1/(bc))
    (("meixner-ii", "--b", "2/5"), "meixner(5/2, 2/5, 3/2)"),   # base 1/q
    (("meixner-iii", "--b", "4/25"), "meixner(2/5, 25/4, 6/25)"),
])
def test_excluded_derived_parameter_set_is_named(capsys, argv, derived):
    # the user's b is allowed; the set the theorem derives from it is not
    code, _, err = _run(capsys, "verify-eigen", "--theorem", *argv)
    assert code == 2
    assert f"{argv[0]} derives {derived} from its input" in err


def test_config_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2}))
    out_dir = tmp_path / "r"
    code, _, _ = _run(capsys, "build-krall", "--theorem", "meixner-i",
                      "--k", "1", "--n", "4", "--config", str(cfg),
                      "--out", str(out_dir))
    assert code == 0
    payload = _payload(out_dir)
    assert payload["inputs"]["k_or_alpha"] == 2
    assert payload["expected_order"] == 6


def test_bad_rational_and_bad_config_are_invalid_input(capsys, tmp_path):
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--q", "two-fifths")
    assert code == 2 and "cannot parse" in err
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--config", str(tmp_path / "missing.json"))
    assert code == 2 and "not found" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--config", str(broken))
    assert code == 2 and "JSON" in err


def test_unknown_config_key_is_invalid_input(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"order_max": 2, "kk": 3}))
    code, out, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                          "--n", "2", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown config key(s) 'kk', 'order_max'" in err
    # a key that another subcommand reads is foreign here too
    cfg.write_text(json.dumps({"f1": [1]}))
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--config", str(cfg))
    assert code == 2 and "'f1'" in err


@pytest.mark.parametrize("command, stray, message", [
    (("families", "--family", "q-meixner", "--n", "3"), {"t": "5"},
     "family q-meixner does not read 't'; it reads q, b, c"),
    (("verify-eigen", "--theorem", "laguerre-i", "--n", "3"), {"b": "7"},
     "instance laguerre-i does not read 'b'; it reads q, t, k"),
    (("build-krall", "--theorem", "laguerre-ii"), {"t": "1/2", "k": "2"},
     "instance laguerre-ii does not read 'k', 't'; it reads q, alpha, m"),
    (("verify-dop", "--family", "q-laguerre"), {"c": "2"},
     "family q-laguerre does not read 'c'; it reads q, t"),
    (("conjecture", "b1", "--f", "1"), {"alpha": "2"},
     "conjecture b1 does not read 'alpha'; it reads q, t, f"),
])
def test_key_the_choice_does_not_read_is_invalid_input(capsys, tmp_path,
                                                       command, stray,
                                                       message):
    flags = [token for key, value in stray.items()
             for token in (f"--{key}", value)]
    code, out, err = _run(capsys, *command, *flags)
    assert code == 2 and out == "" and message in err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(stray))
    code, out, err = _run(capsys, *command, "--config", str(cfg))
    assert code == 2 and out == "" and message in err


def test_defaults_of_every_choice_pass_the_read_check(capsys):
    for family in ("q-meixner", "q-laguerre", "al-salam-carlitz"):
        assert _run(capsys, "families", "--family", family, "--n", "2")[0] == 0
    for theorem in THEOREMS:
        code, _, err = _run(capsys, "build-krall", "--theorem", theorem,
                            "--n", "2")
        assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("--theorem", "laguerre-ii", "--alpha", "2", "--m", "1", "--n", "23"),
    ("--theorem", "laguerre-i", "--k", "1", "--n", "23"),
    ("--theorem", "meixner-i", "--n", "25"),
])
def test_deep_orthogonality_check_sizes_its_measure(capsys, argv):
    # the Gram and Hankel checks read moments up to 2n, past the default
    # moment depth of 40
    code, out, err = _run(capsys, "verify-orthogonality", *argv)
    assert code == 0 and "FAIL" not in out and err == ""


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_perturbed_beta_fails_with_exit_one(capsys):
    code, out, _ = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--k", "1", "--n", "6", "--perturb-beta", "3", "7")
    assert code == 1
    assert "FAIL" in out


def test_perturbed_beta_residual_is_reported_exactly(capsys, tmp_path):
    out_dir = tmp_path / "r"
    code, _, _ = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                      "--k", "1", "--n", "6", "--perturb-beta", "3", "7",
                      "--out", str(out_dir))
    assert code == 1
    checks = _payload(out_dir)["eigen_checks"]
    assert [c["n"] for c in checks if not c["passed"]] == [3]
    assert checks[3]["residual"] == (
        "-151685999/3488940 + 4141102/623025*x - 357184/4361175*x^2")


def test_families_tabulation(capsys, tmp_path):
    out_dir = tmp_path / "r"
    code, _, _ = _run(capsys, "families", "--family", "al-salam-carlitz",
                      "--a", "4/3", "--n", "5", "--out", str(out_dir))
    assert code == 0
    payload = _payload(out_dir)
    assert len(payload["polynomials"]) == 6
    assert payload["polynomials"][0]["coeffs"] == ["1"]
    with open(out_dir / "families.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7  # header + six rows


def test_verify_dop_all_specs(capsys):
    code, out, _ = _run(capsys, "verify-dop", "--family", "q-laguerre",
                        "--n", "8")
    assert code == 0
    assert out.count("pass") == 2


def test_build_krall_emits_sequences(capsys, tmp_path):
    out_dir = tmp_path / "r"
    code, _, _ = _run(capsys, "build-krall", "--theorem", "laguerre-ii",
                      "--alpha", "1", "--m", "7/3", "--n", "6",
                      "--out", str(out_dir))
    assert code == 0
    payload = _payload(out_dir)
    assert payload["operator_order"] == 4 == payload["expected_order"]
    rows = payload["sequence"]
    assert len(rows) == 7
    assert "beta" not in rows[0] and "beta" in rows[1]
    assert payload["inputs"]["m"] == "7/3"


def test_conjecture_b1_and_not_found_recording(capsys, tmp_path):
    out_dir = tmp_path / "r"
    code, _, _ = _run(capsys, "conjecture", "b1", "--f", "1",
                      "--out", str(out_dir))
    assert code == 0
    assert _payload(out_dir)["found_order"] == 4
    # half-width cap below the true order: recorded, nonzero exit
    out_dir2 = tmp_path / "r2"
    code, out, _ = _run(capsys, "conjecture", "b1", "--f", "2",
                        "--order-max", "2", "--out", str(out_dir2))
    assert code == 1
    payload = _payload(out_dir2)
    assert payload["status"] == "not-found-within-ansatz"
    assert payload["found_order"] is None
    assert "not found" in out


def test_failed_search_reverification_exits_one(capsys, monkeypatch):
    # corrupt every nullspace vector, so the search's own re-verification
    # of the eigen-equations fails: a failed check, not invalid input
    solve = qkrall.search.nullspace
    monkeypatch.setattr(qkrall.search, "nullspace", lambda a: [
        [v + 1 for v in vec] for vec in solve(a)])
    code, _, err = _run(capsys, "conjecture", "b1", "--f", "1")
    assert code == 1
    assert "re-verification" in err and "Traceback" not in err


def test_negative_family_depth_is_invalid_input(capsys):
    code, _, err = _run(capsys, "families", "--family", "q-meixner",
                        "--n", "-2")
    assert code == 2 and "n must be nonnegative" in err


def test_non_integer_perturb_index_is_invalid_input(capsys):
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--perturb-beta", "x", "1")
    assert code == 2 and "--perturb-beta" in err


def test_negative_eigen_depth_is_not_a_pass(capsys):
    code, out, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                          "--n", "-3")
    assert code == 2 and "n must be nonnegative" in err
    assert "pass" not in out


@pytest.mark.parametrize("which, config", [
    ("a", {"f1": "ab"}),
    ("a", {"f1": 5}),
    ("a", {"order-max": "six"}),
    ("a", {"order-max": 6.5}),
    ("b2", {"masses": 5}),
    ("b2", {"masses": ["ab"]}),
    ("a", {"f1": 0}),
    ("b1", {"f": None}),
    ("a", {"order-max": None}),  # a null is read, not taken as absent
])
def test_malformed_conjecture_config_is_invalid_input(capsys, tmp_path,
                                                      which, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, _, err = _run(capsys, "conjecture", which, "--config", str(cfg))
    assert code == 2 and next(iter(config)) in err
    assert "cannot parse" in err or "must be a list" in err
    assert "Traceback" not in err


def test_empty_mass_list_is_not_replaced_by_the_default(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"masses": [], "order-max": 2}))
    code, _, err = _run(capsys, "conjecture", "b2", "--config", str(cfg))
    assert code == 2 and "need 1 masses" in err


def test_perturb_index_past_the_depth_is_invalid_input(capsys):
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--n", "0", "--perturb-beta", "1", "7")
    assert code == 2 and "outside 1..0" in err and "Traceback" not in err


@pytest.mark.parametrize("perturb", [5, [1.5, "2"], ["1", [2]], None])
def test_malformed_perturb_config_is_invalid_input(capsys, tmp_path,
                                                   perturb):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"perturb-beta": perturb}))
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--config", str(cfg))
    assert code == 2 and "--perturb-beta" in err


def _failing_catalog(calls):
    def measure_catalog(*args, **kwargs):
        calls.append(args[0])
        raise CrossCheckFailed(f"{args[0]}: cross-check fails at moment 3")
    return measure_catalog


def test_measure_cross_check_failure_exits_one(capsys, monkeypatch):
    calls: list[str] = []
    monkeypatch.setattr(qkrall.krall, "measure_catalog",
                        _failing_catalog(calls))
    code, _, err = _run(capsys, "verify-orthogonality", "--theorem",
                        "meixner-i", "--k", "1", "--n", "4")
    assert code == 1 and calls == ["meixner-i"]
    assert "cross-check fails" in err and "Traceback" not in err


def test_eigen_and_build_never_build_the_measure(capsys, monkeypatch):
    calls: list[str] = []
    monkeypatch.setattr(qkrall.krall, "measure_catalog",
                        _failing_catalog(calls))
    code, _, _ = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                      "--k", "1", "--n", "4")
    assert code == 0
    code, _, _ = _run(capsys, "build-krall", "--theorem", "laguerre-i",
                      "--k", "1", "--n", "4")
    assert code == 0
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("verify-eigen", "--theorem", "meixner-i", "--b", "0"),
    ("verify-eigen", "--theorem", "meixner-iii", "--b", "0"),
    ("verify-eigen", "--theorem", "meixner-ii", "--b", "0", "--k", "1"),
    ("build-krall", "--theorem", "meixner-i", "--b", "0"),
    ("verify-orthogonality", "--theorem", "meixner-iii", "--b", "0"),
])
def test_meixner_instances_with_b_zero_are_invalid_input(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and "b != 0" in err
    assert "Traceback" not in err and "pass" not in out


def test_b_zero_families_stay_valid(capsys):
    code, _, _ = _run(capsys, "families", "--b", "0")
    assert code == 0
    code, _, _ = _run(capsys, "verify-dop", "--b", "0")
    assert code == 0


@pytest.mark.parametrize("which, order_max", [
    ("a", "1"), ("a", "0"), ("a", "-4"), ("b1", "1"), ("b2", "1"),
])
def test_empty_search_range_is_invalid_input(capsys, which, order_max):
    code, out, err = _run(capsys, "conjecture", which,
                          "--order-max", order_max)
    assert code == 2 and "empty search range" in err
    assert "Traceback" not in err and "not-found" not in out


@pytest.mark.parametrize("argv", [
    ("verify-eigen", "--theorem", "laguerre-ii", "--m", "0"),
    ("build-krall", "--theorem", "laguerre-ii", "--m", "0"),
    ("conjecture", "b2", "--masses", "0"),
])
def test_vanishing_point_mass_is_invalid_input(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and "M != 0" in err
    assert "Traceback" not in err and "FAIL" not in out


# Flag values: valid ones, degenerate ones, and ones that do not parse.
_VALUES = {
    "q": ["2/5", "3/2", "-1/3", "0", "1", "-1", "1/0", "x"],
    "b": ["1/3", "0", "5/2", "-3/2"],
    "c": ["3/2", "0", "-1", "-2/5"],
    "t": ["3/4", "0", "5/2", "4/25"],
    "a": ["4/3", "0", "-2/7"],
    "alpha": ["-1", "0", "1", "2"],
    "k": ["-1", "0", "1", "2"],
    "m": ["1", "0", "7/3", "-1"],
    "n": ["-2", "0", "3", "x"],
    "family": ["q-meixner", "q-laguerre", "al-salam-carlitz", "q-hermite"],
    "theorem": ["meixner-i", "meixner-ii", "meixner-iii", "laguerre-i",
                "laguerre-ii"],
    "k-upper": ["0", "1"],
    "order-max": ["-2", "1", "2", "4"],
}
_FLAGS = {
    "families": ["family", "q", "b", "c", "t", "a", "n"],
    "verify-dop": ["family", "q", "b", "c", "t", "n"],
    "build-krall": ["theorem", "q", "b", "c", "t", "alpha", "k", "m", "n"],
    "verify-eigen": ["theorem", "q", "b", "c", "t", "alpha", "k", "m", "n"],
    "verify-orthogonality": ["theorem", "q", "b", "c", "t", "alpha", "k",
                             "m", "n"],
    "conjecture": ["q", "b", "c", "t", "alpha", "k-upper"],
}
_LISTS = ["f1", "f2", "f3", "f", "masses"]
_JUNK = st.sampled_from([None, 1.5, True, [], {}, "", [1, [2]]])


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    keys = list(_FLAGS[command])
    if command == "conjecture":
        argv.append(draw(st.sampled_from(["a", "b1", "b2"])))
        # every search gets a small bound, which the config leaves alone
        bound = draw(st.sampled_from(_VALUES["order-max"]))
        argv.append(f"--order-max={bound}")
        for key in draw(st.lists(st.sampled_from(_LISTS), unique=True,
                                 max_size=2)):
            argv += [f"--{key}", *draw(st.lists(
                st.sampled_from(["-1", "0", "1", "2", "x"]), max_size=2))]
    elif "theorem" in keys:
        argv.append(f"--theorem={draw(st.sampled_from(_VALUES['theorem']))}")
    if command == "verify-eigen" and draw(st.booleans()):
        argv += ["--perturb-beta", draw(st.sampled_from(["1", "2", "x"])),
                 draw(st.sampled_from(["7", "1/2", "0"]))]
    for key in draw(st.lists(st.sampled_from(_FLAGS[command]), unique=True,
                             max_size=3)):
        argv.append(f"--{key}={draw(st.sampled_from(_VALUES[key]))}")
    config = draw(st.none() | st.none() | st.dictionaries(
        st.sampled_from(keys + ["perturb-beta"]),
        st.one_of(st.sampled_from(sum(_VALUES.values(), [])),
                  st.integers(-2, 4), _JUNK,
                  st.lists(st.integers(-1, 2), max_size=2)),
        max_size=3))
    return argv, config


@settings(max_examples=60, deadline=None)
@given(_command_lines())
@example((["verify-eigen", "--theorem=laguerre-ii", "--q=0", "--alpha=-1"],
          None))
@example((["conjecture", "b2", "--order-max=4", "--q=0", "--alpha=-1"],
          None))
@example((["families"], {"family": [1, 2]}))
def test_cli_fuzz_exits_with_a_verdict(case):
    argv, config = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--out", tmp])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    assert code in (0, 1, 2), (argv, config, code)
    assert "Traceback" not in err.getvalue()


# A bad value reads the same from a flag as from the config file.
@pytest.mark.parametrize("command, key, value, message", [
    (("verify-eigen", "--theorem", "meixner-i"), "n", "x",
     "cannot parse n = 'x' as an integer"),
    (("verify-eigen", "--theorem", "meixner-i"), "k", "1.5",
     "cannot parse k = '1.5' as an integer"),
    (("verify-eigen", "--theorem", "laguerre-ii"), "alpha", "two",
     "cannot parse alpha = 'two' as an integer"),
    (("build-krall", "--theorem", "meixner-i"), "q", "2/x",
     "cannot parse q = '2/x' as a rational"),
    (("verify-orthogonality",), "theorem", "foo",
     "--theorem must be one of"),
    (("conjecture", "a"), "f1", ["x"], "cannot parse f1 = 'x' as an integer"),
    (("conjecture", "b2"), "k-upper", "1/2",
     "cannot parse k-upper = '1/2' as an integer"),
    (("conjecture", "b2"), "masses", ["1", "y"],
     "cannot parse masses = 'y' as a rational"),
])
def test_bad_flag_value_reads_as_in_the_config(capsys, tmp_path, command,
                                               key, value, message):
    values = value if isinstance(value, list) else [value]
    code, out, flag_err = _run(capsys, *command, f"--{key}", *values)
    assert code == 2 and message in flag_err and out == ""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    code, _, config_err = _run(capsys, *command, "--config", str(cfg))
    assert code == 2 and config_err == flag_err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify-eigen", "--theorem", "meixner-i", "--bogus", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["conjecture", "c"])


def test_rejected_argv_leaves_the_shared_parser_as_built(capsys, tmp_path):
    # one parser serves every main call of a process, so an argv that
    # argparse rejects halfway through may not change the next verdict
    valid = ["families", "--family", "al-salam-carlitz", "--a", "-2/7",
             "--n", "3", "--out"]
    _parser.cache_clear()
    assert _run(capsys, *valid, str(tmp_path / "alone"))[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["families", "--family", "q-laguerre", "--t", "1/2", "--n",
              "5", "--bogus", "1"])
    assert info.value.code == 2
    assert _run(capsys, *valid, str(tmp_path / "after"))[0] == 0
    assert _payload(tmp_path / "after") == _payload(tmp_path / "alone")
    assert _parser.cache_info().misses == 1


def test_negative_rational_as_separate_token(capsys, tmp_path):
    payloads = []
    for sub, argv in (("joined", ["--a=-2/7", "--q=-3/2"]),
                      ("split", ["--a", "-2/7", "--q", "-3/2"])):
        code, _, _ = _run(capsys, "families", "--family", "al-salam-carlitz",
                          *argv, "--n", "3", "--out", str(tmp_path / sub))
        assert code == 0
        payloads.append(_payload(tmp_path / sub))
    assert payloads[0] == payloads[1]
    assert payloads[1]["params"] == {"a": "-2/7", "q": "-3/2"}
    code, _, _ = _run(capsys, "conjecture", "b2", "--masses", "-1/2", "1",
                      "--k-upper", "1", "--alpha", "3", "--order-max", "2",
                      "--out", str(tmp_path / "b2"))
    assert code == 1
    assert _payload(tmp_path / "b2")["inputs"]["masses"] == ["-1/2", "1"]
    code, _, err = _run(capsys, "verify-eigen", "--theorem", "meixner-i",
                        "--c", "-2/0")
    assert code == 2 and "cannot parse c = '-2/0'" in err


def test_orthogonality_and_b2_agreement_never_compose_the_operator(
        capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("operator composed")

    monkeypatch.setattr(qkrall.krall, "poly_of_operator", fail)
    code, _, err = _run(capsys, "verify-orthogonality", "--theorem",
                        "meixner-ii", "--k", "2", "--n", "5")
    assert code == 0, err
    code, _, err = _run(capsys, "conjecture", "b2", "--masses", "3/2")
    assert code == 0, err


# Every flag each subcommand accepts, and the default its help states.
_ACCEPTED = {
    "families": {"family", "q", "b", "c", "t", "a", "n"},
    "verify-dop": {"family", "q", "b", "c", "t", "n"},
    "build-krall": {"theorem", "q", "b", "c", "t", "alpha", "k", "m", "n"},
    "verify-eigen": {"theorem", "q", "b", "c", "t", "alpha", "k", "m", "n",
                     "perturb-beta"},
    "verify-orthogonality": {"theorem", "q", "b", "c", "t", "alpha", "k",
                             "m", "n"},
    "conjecture": {"q", "b", "c", "t", "alpha", "f1", "f2", "f3", "f",
                   "k-upper", "masses", "order-max"},
}
_STATED = {"family": "q-meixner", "q": "2/5", "b": "1/3", "c": "3/2",
           "t": "3/4", "a": "4/3", "alpha": "2", "k": "1", "m": "1",
           "f1": "empty", "f2": "empty", "f3": "empty", "f": "empty",
           "k-upper": "0", "masses": "1"}
_DEPTH = {"families": "8", "verify-dop": "10", "build-krall": "10",
          "verify-eigen": "10", "verify-orthogonality": "8"}


def _help_entries(capsys, monkeypatch, command: str) -> dict[str, str]:
    """The option entries of command's --help, by flag, one line each."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    options = capsys.readouterr().out.split("options:\n")[1]
    return {re.search(r"--[\w-]+", entry).group(): " ".join(entry.split())
            for entry in re.split(r"\n(?=  -)", options)}


@pytest.mark.parametrize("command", sorted(_ACCEPTED))
def test_each_subcommand_accepts_its_flags_and_states_defaults(
        capsys, monkeypatch, command):
    entries = _help_entries(capsys, monkeypatch, command)
    assert set(entries) == {f"--{key}" for key in _ACCEPTED[command]} | {
        "--help", "--config", "--out"}
    stated = {**_STATED, "n": _DEPTH.get(command)}
    for key in _ACCEPTED[command]:
        entry = entries[f"--{key}"]
        if key in stated:
            assert entry.endswith(f"(default {stated[key]})"), entry
        else:
            assert "(default" not in entry, entry

