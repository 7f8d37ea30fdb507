"""Command-line front end.

Subcommands: families, verify-dop, build-krall, verify-eigen,
verify-orthogonality, conjecture {a,b1,b2}, each declared once in _COMMANDS
as (handler, help, keys).  A key is a flag --key and a JSON config key;
--config FILE overrides flags; --out DIR writes report files.  argparse
only splits tokens (-2/7 is a value): one set of parsers reads every value,
from a flag or the config, and a bad one exits 2 naming its key.  Reports
hold exact rational strings; decimals in the stdout summary are marked
non-authoritative.  Exit codes: 0 all checks pass, 1 a check failed, 2
invalid input.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

from .dops import dop_catalog, verify_dop
from .errors import (CrossCheckFailed, ParamDegeneracy, ParseError,
                     QKrallError)
from .exact import check_base, poly_to_json, rational, rational_str
from .families import (LaguerreParams, MeixnerParams, PolynomialFamily,
                       alsalam_carlitz, family_recurrence, laguerre, meixner)
from .krall import build, theorem_catalog, verify_eigen
from .moments import (LAGUERRE_I, LAGUERRE_II, THEOREMS, gram_matrix,
                      hankel_orthogonal)
from .search import (check_conjecture_a, check_conjecture_b1,
                     check_conjecture_b2)

__all__ = ["main", "entry", "parse_config"]

_DEFAULTS = {"q": "2/5", "b": "1/3", "c": "3/2", "t": "3/4", "a": "4/3",
             "m": "1", "k": 1, "alpha": 2, "k-upper": 0}


def _approx(value: Fraction) -> str:
    return f"{float(value):.6g}"


def parse_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """Collect the command's parameters: flags first, then config file.

    Values from --config FILE override flag values key by key; a config
    key outside keys is a ParseError naming it.
    """
    cfg: dict = {}
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError as exc:
            raise ParseError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParseError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(keys))
        if unknown:
            raise ParseError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"this command reads {', '.join(keys)}")
        cfg.update(loaded)
    return cfg


def _as_rat(key: str, raw) -> Fraction:
    """raw as a rational, or ParseError naming the key it came from."""
    try:
        return rational(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {key} = {raw!r} as a rational") from exc


def _rat(cfg: dict, key: str) -> Fraction:
    return _as_rat(key, cfg.get(key, _DEFAULTS[key]))


def _as_int(key: str, raw) -> int:
    """raw (an int or a decimal string) as an integer, or ParseError naming
    the key it came from; a float or bool is refused, not truncated."""
    try:
        value = int(raw) if isinstance(raw, str) else raw
    except ValueError:
        value = None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"cannot parse {key} = {raw!r} as an integer")
    return value


def _int(cfg: dict, key: str) -> int:
    return _as_int(key, cfg.get(key, _DEFAULTS[key]))


def _items(cfg: dict, key: str, parse=_as_int, default: tuple = ()) -> list:
    """A list-valued key such as a factor set, each item read by parse."""
    raw = cfg.get(key, default)
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"{key} must be a list, got {raw!r}")
    return [parse(key, item) for item in raw]


def _depth(cfg: dict, default: int) -> int:
    """The index bound n; a negative one would leave nothing to check."""
    n = _as_int("n", cfg.get("n", default))
    if n < 0:
        raise ParamDegeneracy(f"n must be nonnegative, got n = {n}")
    return n


def _point_mass_params(cfg: dict, q: Fraction) -> tuple[LaguerreParams, int]:
    """The q-Laguerre data t = q^alpha of the point-mass shapes; q is
    checked first, because 0 ** alpha has no value for alpha < 0."""
    alpha = _int(cfg, "alpha")
    check_base(q)
    return LaguerreParams(q, q ** alpha), alpha


# The keys each family, instance and search reads; a key given for one
# choice that only the others read is invalid input.
_FAMILIES = {"q-meixner": (meixner, ("q", "b", "c")),
             "q-laguerre": (laguerre, ("q", "t")),
             "al-salam-carlitz": (alsalam_carlitz, ("q", "a"))}
_FAMILY_KEYS = {kind: keys for kind, (_, keys) in _FAMILIES.items()}
_INSTANCE_KEYS = {**dict.fromkeys(THEOREMS, ("q", "b", "c", "k")),
                  LAGUERRE_I: ("q", "t", "k"),
                  LAGUERRE_II: ("q", "alpha", "m")}
_SEARCH_KEYS = {"a": ("q", "b", "c", "f1", "f2", "f3"),
                "b1": ("q", "t", "f"),
                "b2": ("q", "alpha", "f", "k-upper", "masses")}


def _refuse_unread(cfg: dict, what: str, choice: str, table: dict) -> None:
    """ParseError naming each given key that the other choices of table
    read and choice does not."""
    reads = table[choice]
    unread = sorted({key for keys in table.values() for key in keys}
                    .intersection(cfg).difference(reads))
    if unread:
        raise ParseError(
            f"{what} {choice} does not read {', '.join(map(repr, unread))}; "
            f"it reads {', '.join(reads)}")


def _theorem_setup(cfg: dict):
    name = cfg.get("theorem")
    if name not in THEOREMS:
        raise ParseError(
            f"--theorem must be one of {', '.join(THEOREMS)}; got {name!r}")
    _refuse_unread(cfg, "instance", name, _INSTANCE_KEYS)
    q = _rat(cfg, "q")
    if name == LAGUERRE_II:
        params, alpha = _point_mass_params(cfg, q)
        return name, params, alpha, _rat(cfg, "m")
    if name == LAGUERRE_I:
        return name, LaguerreParams(q, _rat(cfg, "t")), _int(cfg, "k"), None
    params = MeixnerParams(q, _rat(cfg, "b"), _rat(cfg, "c"))
    return name, params, _int(cfg, "k"), None


def _family_setup(cfg: dict) -> PolynomialFamily:
    kind = cfg.get("family", "q-meixner")
    # a tuple test compares without hashing: a config value may be a list
    if kind not in tuple(_FAMILIES):
        raise ParseError(f"unknown family {kind!r}")
    _refuse_unread(cfg, "family", kind, _FAMILY_KEYS)
    make, keys = _FAMILIES[kind]
    return make(*(_rat(cfg, key) for key in keys))


def _mark(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _params_echo(params) -> dict:
    """The rational fields of a params dataclass, as exact strings."""
    return {k: rational_str(v) for k, v in sorted(vars(params).items())
            if isinstance(v, Fraction)}


def _check_rows(report: list[dict]) -> list[dict]:
    """verify_dop / verify_eigen entries as report rows, residuals printed."""
    return [{"n": e["n"], "passed": e["passed"],
             **({"residual": e["residual"].pretty()}
                if e["residual"] is not None else {})}
            for e in report]


def _emit(payload: dict, elapsed: float, out_dir: str | None,
          summary: list[str], csvs: dict[str, list[list[str]]]) -> None:
    for line in summary:
        print(line)
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        wrapper = {"payload": payload, "elapsed_seconds": round(elapsed, 3)}
        (path / "report.json").write_text(
            json.dumps(wrapper, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        for name, rows in csvs.items():
            with open(path / name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
        print(f"report written to {path / 'report.json'}")


def _cmd_families(cfg: dict):
    n_top = _depth(cfg, 8)
    fam = _family_setup(cfg)
    theta_known = fam.kind != "al-salam-carlitz"
    rows = [{"n": n, "coeffs": poly_to_json(fam.poly(n)),
             **({"theta": rational_str(fam.theta(n))} if theta_known else {})}
            for n in range(n_top + 1)]
    rec = family_recurrence(fam)
    recurrence = {
        "a": [rational_str(rec.a(n)) for n in range(n_top)],
        "b": [rational_str(rec.b(n)) for n in range(n_top)],
        "c": [rational_str(rec.c(n)) for n in range(1, n_top)],
    }
    payload = {"command": "families", "family": fam.kind,
               "params": _params_echo(fam.params),
               "polynomials": rows, "recurrence": recurrence}
    leading = fam.poly(n_top).leading()
    summary = [f"{fam.kind}: tabulated p_0..p_{n_top}",
               f"p_{n_top} leading coefficient {rational_str(leading)} "
               f"(~{_approx(leading)}, non-authoritative)"]
    csv_rows = [["n", "theta_n" if theta_known else "", "coefficients"]]
    csv_rows += [[str(r["n"]), r.get("theta", ""), " ".join(r["coeffs"])]
                 for r in rows]
    return True, payload, summary, {"families.csv": csv_rows}


def _cmd_verify_dop(cfg: dict):
    n_top = _depth(cfg, 10)
    fam = _family_setup(cfg)
    entries = []
    for spec in dop_catalog(fam):
        checks = _check_rows(verify_dop(spec, fam, n_top))
        entries.append({
            "spec_id": spec.spec_id,
            "closed_form_order": spec.closed_form.order(),
            "all_passed": all(e["passed"] for e in checks),
            "checks": checks,
        })
    all_ok = all(e["all_passed"] for e in entries)
    payload = {"command": "verify-dop", "family": fam.kind,
               "n_top": n_top, "specs": entries, "all_passed": all_ok}
    summary = [f"{e['spec_id']}: closed form == defining action for "
               f"n <= {n_top}: {_mark(e['all_passed'])}"
               for e in entries]
    return all_ok, payload, summary, {}


def _build_bundle(cfg: dict, n_top: int, beta_override=None):
    # the measure reaches m_{2 n_top}, the last moment Gram and Hankel read
    name, params, k, mass = _theorem_setup(cfg)
    td = theorem_catalog(name, params, k, mass=mass, n_depth=2 * n_top)
    return td, build(td.family, td.spec, td.p2, n_top, beta_override)


def _input_echo(td) -> dict:
    mass = {} if td.mass is None else {"m": rational_str(td.mass)}
    return {**_params_echo(td.family.params), "k_or_alpha": td.k_or_alpha,
            **mass}


def _cmd_build_krall(cfg: dict):
    n_top = _depth(cfg, 10)
    td, kc = _build_bundle(cfg, n_top)
    rows = [{"n": n, "lambda": rational_str(kc.lam(n)),
             **({"beta": rational_str(kc.beta(n))} if n >= 1 else {}),
             "qpoly": poly_to_json(kc.qpoly(n))}
            for n in range(n_top + 1)]
    order = kc.operator.order()
    payload = {"command": "build-krall", "theorem": td.name,
               "inputs": _input_echo(td),
               "expected_order": td.expected_order,
               "operator_order": order,
               "operator": kc.operator.to_json(),
               "sequence": rows}
    summary = [
        f"{td.name}: built q_0..q_{n_top}; operator order "
        f"{order} (expected {td.expected_order})",
        f"lambda_{n_top} = {rows[-1]['lambda']} "
        f"(~{_approx(kc.lam(n_top))}, non-authoritative)",
    ]
    csv_rows = [["n", "beta_n", "lambda_n", "q_n coefficients"]]
    csv_rows += [[str(r["n"]), r.get("beta", ""), r["lambda"],
                  " ".join(r["qpoly"])] for r in rows]
    return (order == td.expected_order, payload, summary,
            {"krall.csv": csv_rows})


def _cmd_verify_eigen(cfg: dict):
    n_top = _depth(cfg, 10)
    beta_override = None
    perturb = cfg.get("perturb-beta")
    if perturb is not None:
        if not isinstance(perturb, (list, tuple)) or len(perturb) != 2:
            raise ParseError("--perturb-beta needs INDEX VALUE")
        try:
            beta_override = {_as_int("perturb-beta", perturb[0]):
                             _as_rat("perturb-beta", perturb[1])}
        except ParseError as exc:
            raise ParseError("--perturb-beta needs an integer INDEX and a "
                             f"rational VALUE; got {perturb!r}") from exc
    td, kc = _build_bundle(cfg, n_top, beta_override=beta_override)
    checks = _check_rows(verify_eigen(kc))
    order = kc.operator.order()
    order_ok = order == td.expected_order
    beta_ok = all(kc.beta(n) == td.displayed_beta(n)
                  for n in range(1, n_top + 1)) if beta_override is None \
        else None
    eigen_ok = all(e["passed"] for e in checks)
    ok = eigen_ok and order_ok and (beta_ok is not False)
    payload = {"command": "verify-eigen", "theorem": td.name,
               "inputs": _input_echo(td), "n_top": n_top,
               "operator_order": order,
               "expected_order": td.expected_order,
               "order_passed": order_ok,
               "beta_matches_displayed": beta_ok,
               "perturbed_beta": ({str(k): rational_str(v)
                                   for k, v in beta_override.items()}
                                  if beta_override else None),
               "eigen_checks": checks, "all_passed": ok}
    summary = [
        f"{td.name}: eigen equation exact for n <= {n_top}: "
        f"{_mark(eigen_ok)}",
        f"operator order {order} vs expected "
        f"{td.expected_order}: {_mark(order_ok)}",
    ]
    if beta_ok is not None:
        summary.append(f"beta sequence matches displayed form: "
                       f"{_mark(beta_ok)}")
    if beta_override:
        summary.append(f"(beta perturbed at {sorted(beta_override)}; "
                       "failures above are the injected fault)")
    return ok, payload, summary, {}


def _cmd_verify_orthogonality(cfg: dict):
    n_top = _depth(cfg, 8)
    td, kc = _build_bundle(cfg, n_top)
    qpolys = kc.qpolys()
    gram = gram_matrix(td.measure, qpolys)
    size = n_top + 1
    diagonal = all(gram[i][j] == 0
                   for i in range(size) for j in range(size) if i != j)
    nonzero = all(gram[i][i] != 0 for i in range(size))
    gd = hankel_orthogonal(td.measure, n_top)
    hankel_ok = all(gd.polys[n] * qpolys[n].leading() == qpolys[n]
                    for n in range(size))
    ok = diagonal and nonzero and hankel_ok
    csv_rows = [[rational_str(v) for v in row] for row in gram]
    payload = {"command": "verify-orthogonality", "theorem": td.name,
               "inputs": _input_echo(td), "n_top": n_top, "gram": csv_rows,
               "diagonal": diagonal, "nonzero_diagonal": nonzero,
               "hankel_monic_match": hankel_ok, "all_passed": ok}
    summary = [
        f"{td.name}: Gram matrix n,m <= {n_top} exactly diagonal: "
        f"{_mark(diagonal)}",
        f"diagonal entries nonzero: {_mark(nonzero)}",
        f"Hankel monic polynomials match monic q_n: {_mark(hankel_ok)}",
    ]
    return ok, payload, summary, {"gram.csv": csv_rows}


def _cmd_conjecture(cfg: dict, which: str):
    _refuse_unread(cfg, "conjecture", which, _SEARCH_KEYS)
    q = _rat(cfg, "q")
    order_max = cfg.get("order-max")
    h_max = None if order_max is None else _as_int("order-max", order_max) // 2
    if which == "a":
        params = MeixnerParams(q, _rat(cfg, "b"), _rat(cfg, "c"))
        report = check_conjecture_a(
            params, f1=_items(cfg, "f1"), f2=_items(cfg, "f2"),
            f3=_items(cfg, "f3"), h_max=h_max)
    elif which == "b1":
        report = check_conjecture_b1(
            LaguerreParams(q, _rat(cfg, "t")),
            f_set=_items(cfg, "f"), h_max=h_max)
    else:
        params, _ = _point_mass_params(cfg, q)
        report = check_conjecture_b2(
            params, f_set=_items(cfg, "f"),
            k_upper=_int(cfg, "k-upper"),
            masses=_items(cfg, "masses", _as_rat, ("1",)),
            h_max=h_max)
    status = report["status"]
    conjectured = report.get("conjectured_order")
    found = report.get("found_order")
    ok = status == "found" and (conjectured is None or found == conjectured)
    payload = {"command": f"conjecture-{which}", **report}
    summary = [f"conjecture {which.upper()}: status {status}"]
    if conjectured is not None:
        summary.append(f"conjectured order {conjectured}")
    if found is not None:
        summary.append(f"minimal order found {found}")
    for attempt in report.get("attempts", ()):
        summary.append(
            f"  order {attempt['order']}: "
            f"{'found' if attempt['found'] else 'not found'} "
            f"(nullspace dimension {attempt['nullspace_dim']})")
    if status == "not-quasi-definite":
        summary.append(
            f"functional not quasi-definite at index "
            f"{report['degenerate_index']}; search not run")
    return ok, payload, summary, {}


# Every key is a flag --key and a config key of the same name.
_FLAGS = {
    "family": "family name: q-meixner, q-laguerre, al-salam-carlitz",
    "theorem": "instance name: " + ", ".join(THEOREMS),
    "q": "base q (rational string, default 2/5)",
    "b": "first family parameter (default 1/3)",
    "c": "second family parameter (default 3/2)",
    "t": "geometric eigenvalue scale (default 3/4)",
    "a": "family parameter for the third family (default 4/3)",
    "alpha": "positive integer exponent with t = q^alpha",
    "k": "degree parameter of the instance (default 1)",
    "m": "point mass at the origin (default 1)",
    "n": "depth bound for the check",
    "perturb-beta": "inject a wrong beta value to demonstrate failure",
    "f1": "first factor set",
    "f2": "second factor set",
    "f3": "third factor set",
    "f": "factor set",
    "k-upper": "highest derivative order of the point masses",
    "masses": "point masses M_0..M_K",
    "order-max": "largest operator order to scan",
}
# The keys that take several tokens.
_MULTI = {"perturb-beta": {"nargs": 2, "metavar": ("INDEX", "VALUE")},
          "f1": {"nargs": "*"}, "f2": {"nargs": "*"}, "f3": {"nargs": "*"},
          "f": {"nargs": "*"}, "masses": {"nargs": "+"}}

_THEOREM_KEYS = ("theorem", "q", "b", "c", "t", "alpha", "k", "m", "n")
_COMMANDS = {
    "families": (_cmd_families, "tabulate a classical family",
                 ("family", "q", "b", "c", "t", "a", "n")),
    "verify-dop": (_cmd_verify_dop, "check ladder closed forms against "
                   "their defining action",
                   ("family", "q", "b", "c", "t", "n")),
    "build-krall": (_cmd_build_krall, "build q_n, beta_n, lambda_n and the "
                    "higher-order operator", _THEOREM_KEYS),
    "verify-eigen": (_cmd_verify_eigen,
                     "verify the eigenfunction equation exactly",
                     (*_THEOREM_KEYS, "perturb-beta")),
    "verify-orthogonality": (_cmd_verify_orthogonality,
                             "Gram matrix and Hankel cross-check",
                             _THEOREM_KEYS),
    "conjecture": (_cmd_conjecture, "run a conjecture regression",
                   ("q", "b", "c", "t", "alpha", "f1", "f2", "f3", "f",
                    "k-upper", "masses", "order-max")),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative fraction such as -2/7 as a
    value; argparse's own test only knows negative integers and decimals."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkrall",
        description="Exact construction and verification of q-Krall "
                    "orthogonal polynomial families.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "conjecture":
            p.add_argument("which", choices=("a", "b1", "b2"))
        for key in keys:
            p.add_argument(f"--{key}", help=_FLAGS[key], **_MULTI.get(key, {}))
        p.add_argument("--config", help="JSON config file; overrides flags")
        p.add_argument("--out", help="directory for report.json and CSV files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler, _, keys = _COMMANDS[args.command]
    if "which" in args:  # conjecture's positional picks the search
        handler = partial(handler, which=args.which)
    started = time.monotonic()
    try:
        ok, payload, summary, csvs = handler(parse_config(args, keys))
    except ParseError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except CrossCheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except QKrallError as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(payload, time.monotonic() - started, args.out, summary, csvs)
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
