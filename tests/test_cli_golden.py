"""Golden command-line outputs: for fixed command lines, the exit code and
the SHA-256 of the report payload (``json.dumps(payload, sort_keys=True)``),
of each CSV side file and of stdout (with the report directory replaced by
``<out>``).

Any change to a report, a CSV or the summary shows here.  When an output is
meant to change, re-record the table with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from qkrall.cli import main

# A config file used by the "--config" cases, which name it CONFIG.
CONFIGS = {
    "build-krall": {"theorem": "meixner-iii", "k": 2, "n": 5, "q": "3/7",
                    "c": "-2/5"},
    "conjecture": {"f1": [1], "order-max": 4, "b": "1/5"},
}

CASES = {
    "families-meixner": ("families", "--family", "q-meixner", "--n", "6"),
    "families-alsalam": ("families", "--family", "al-salam-carlitz",
                         "--a=-2/7", "--n", "5"),
    "families-laguerre": ("families", "--family", "q-laguerre", "--q", "3/2",
                          "--t", "5/7", "--n", "5"),
    "verify-dop-laguerre": ("verify-dop", "--family", "q-laguerre",
                            "--n", "8"),
    "verify-dop-meixner": ("verify-dop", "--family", "q-meixner",
                           "--b=-3/2", "--n", "6"),
    "build-krall-laguerre-i": ("build-krall", "--theorem", "laguerre-i",
                               "--k", "1", "--n", "8"),
    "build-krall-meixner-ii": ("build-krall", "--theorem", "meixner-ii",
                               "--k", "2", "--n", "6"),
    "build-krall-config": ("build-krall", "--theorem", "meixner-i",
                           "--k", "1", "--config", "CONFIG"),
    "verify-eigen-meixner-i": ("verify-eigen", "--theorem", "meixner-i",
                               "--k", "2", "--n", "8"),
    "verify-eigen-meixner-iii": ("verify-eigen", "--theorem", "meixner-iii",
                                 "--k", "1", "--n", "6"),
    "verify-eigen-perturbed": ("verify-eigen", "--theorem", "meixner-i",
                               "--k", "1", "--n", "6",
                               "--perturb-beta", "3", "7"),
    "verify-orthogonality-laguerre-ii": (
        "verify-orthogonality", "--theorem", "laguerre-ii", "--alpha", "2",
        "--m", "1", "--n", "8"),
    "verify-orthogonality-meixner-i": ("verify-orthogonality", "--theorem",
                                       "meixner-i", "--k", "1", "--n", "6"),
    "conjecture-a": ("conjecture", "a", "--f1", "1", "--order-max", "6"),
    "conjecture-a-config": ("conjecture", "a", "--config", "CONFIG"),
    "conjecture-b1": ("conjecture", "b1", "--f", "1"),
    "conjecture-a-order6": ("conjecture", "a", "--f3", "1", "2"),
    "conjecture-b1-order6": ("conjecture", "b1", "--f", "1", "2"),
    "conjecture-b2": ("conjecture", "b2", "--masses", "3/2"),
    "conjecture-b2-two-masses": ("conjecture", "b2", "--alpha", "3",
                                 "--k-upper", "1", "--masses", "1/2", "1",
                                 "--order-max", "4"),
    "invalid-base": ("verify-eigen", "--theorem", "meixner-ii", "--q", "1"),
}

# name: (exit code, payload, {csv name: digest}, stdout); digests are the
# first 16 hex digits of the SHA-256.
GOLDEN = {
    "families-meixner": (
        0, "8ac4a2afb7a21a36", {"families.csv": "6c0daf6df5fcdcec"},
        "e047d7b52948f6dd"),
    "families-alsalam": (
        0, "0fc06ba54f924d57", {"families.csv": "9fec3adebbb720f0"},
        "e7922f92d73e007c"),
    "families-laguerre": (
        0, "5920d6c7862ce41e", {"families.csv": "dda060534db0968a"},
        "33022a3e14db7b70"),
    "verify-dop-laguerre": (
        0, "281233df51bc6d3c", {},
        "aeb860f8a5eec63f"),
    "verify-dop-meixner": (
        0, "0560eaeb8a98ec23", {},
        "c12b288b3c7c4a84"),
    "build-krall-laguerre-i": (
        0, "0a066d6f25ed0e15", {"krall.csv": "9d400a59cd987753"},
        "19cb7240a46661f6"),
    "build-krall-meixner-ii": (
        0, "6b34812cc8943082", {"krall.csv": "ff47364062625fb5"},
        "252e5bab52a10583"),
    "build-krall-config": (
        0, "08bbd119efcb4ab3", {"krall.csv": "8002bc816110e7eb"},
        "4026527e18468bd1"),
    "verify-eigen-meixner-i": (
        0, "102fb223c5479c9e", {},
        "559c0d72b4c5ebe7"),
    "verify-eigen-meixner-iii": (
        0, "1d72e89064246401", {},
        "14b814306ce33687"),
    "verify-eigen-perturbed": (
        1, "8d44ea828fd9366b", {},
        "0c826e5cf36e4705"),
    "verify-orthogonality-laguerre-ii": (
        0, "64b2f125f6aa8168", {"gram.csv": "7197d14cbd2d07a9"},
        "19c3c5ac13644ef2"),
    "verify-orthogonality-meixner-i": (
        0, "a9ecc02cba79e8d6", {"gram.csv": "d63e9fdd0ccb07b4"},
        "7ee3581acc6656f9"),
    "conjecture-a": (
        0, "13f335cc036ced30", {},
        "7827659ac87cc2dd"),
    "conjecture-a-config": (
        0, "9cc3cb90f16349b2", {},
        "7827659ac87cc2dd"),
    "conjecture-b1": (
        0, "c51f19d59c66fe79", {},
        "ab4ab7ea710eabfc"),
    "conjecture-a-order6": (
        0, "d501a4eb627cf59e", {},
        "a5d6f7d8064f3283"),
    "conjecture-b1-order6": (
        0, "ff7e2e9c9d36721a", {},
        "2f51edb8c3be44fc"),
    "conjecture-b2": (
        0, "c73fa046487513ed", {},
        "1bc044bf5a1a2772"),
    "conjecture-b2-two-masses": (
        1, "e2e5d2dc5a2282b9", {},
        "ca587533336d26b8"),
    "invalid-base": (
        2, "", {},
        "e3b0c44298fc1c14"),
}


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(name: str) -> tuple:
    """Run one command line and digest what it produced."""
    argv = list(CASES[name])
    with tempfile.TemporaryDirectory() as tmp:
        if "CONFIG" in argv:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(CONFIGS[argv[0]]), encoding="utf-8")
            argv[argv.index("CONFIG")] = str(path)
        out_dir = Path(tmp) / "report"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", str(out_dir)])
        payload = ""
        csvs = {}
        if (out_dir / "report.json").is_file():
            wrapper = json.loads((out_dir / "report.json").read_text())
            payload = _sha(json.dumps(wrapper["payload"], sort_keys=True))
            csvs = {p.name: _sha(p.read_bytes())
                    for p in sorted(out_dir.glob("*.csv"))}
        text = stdout.getvalue().replace(str(out_dir), "<out>")
    return code, payload, csvs, _sha(text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert run_case(name) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        code, payload, csvs, stdout = run_case(case)
        csv_text = json.dumps(csvs)
        print(f'    "{case}": (\n        {code}, "{payload}", {csv_text},'
              f'\n        "{stdout}"),')
    print("}")
