"""Command-line front end.

Subcommands: families, verify-dop, build-krall, verify-eigen,
verify-orthogonality, conjecture {a,b1,b2}, each declared once in _COMMANDS.
A key is a flag --key and a JSON config key, declared once in _KEYS with
its parser, default and help; --config FILE overrides flags; --out DIR
writes report files.  argparse only splits tokens (-2/7 is a value): _value
reads every value, from a flag or the config, and a bad one (a null
included) exits 2 naming its key.  Each subcommand builds one family,
instance or search by _choose, from the keys that choice reads; its keys
are those of its choices and its own.  Reports hold exact rational
strings; decimals in the stdout summary are marked non-authoritative.  Exit
codes: 0 all checks pass, 1 a check failed, 2 invalid input.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from .dops import dop_catalog, verify_dop
from .errors import CrossCheckFailed, ParseError, QKrallError
from .exact import check_base, poly_to_json, rational, rational_str
from .families import (LaguerreParams, MeixnerParams, alsalam_carlitz,
                       family_recurrence, laguerre, meixner)
from .krall import build, theorem_catalog, verify_eigen
from .moments import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                      MEIXNER_III, gram_matrix, hankel_orthogonal)
from .search import (check_conjecture_a, check_conjecture_b1,
                     check_conjecture_b2)

__all__ = ["main", "entry", "parse_config"]


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


# Parsers: each reads a raw value, from a flag or the config, or raises a
# ParseError naming the key it came from.
def _as_is(key: str, raw):
    """A choice name; main checks it against the command's choices."""
    return raw


def _as_rat(key: str, raw) -> Fraction:
    try:
        return rational(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {key} = {raw!r} as a rational") from exc


def _as_int(key: str, raw) -> int:
    """An int or a decimal string; a float or bool is refused, not
    truncated."""
    try:
        value = int(raw) if isinstance(raw, str) else raw
    except ValueError:
        value = None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"cannot parse {key} = {raw!r} as an integer")
    return value


def _list_of(parse):
    """The parser of a list-valued key such as a factor set."""
    def read(key: str, raw) -> list:
        if not isinstance(raw, (list, tuple)):
            raise ParseError(f"{key} must be a list, got {raw!r}")
        return [parse(key, item) for item in raw]
    return read


def _as_override(key: str, raw) -> dict[int, Fraction]:
    """INDEX VALUE, the beta_INDEX that verify-eigen substitutes."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ParseError(f"--{key} needs INDEX VALUE")
    try:
        return {_as_int(key, raw[0]): _as_rat(key, raw[1])}
    except ParseError as exc:
        raise ParseError(f"--{key} needs an integer INDEX and a rational "
                         f"VALUE; got {raw!r}") from exc


def _point_mass(q: Fraction, alpha: int) -> LaguerreParams:
    """The q-Laguerre data t = q^alpha of the point-mass shapes; q is
    checked first, because 0 ** alpha has no value for alpha < 0."""
    check_base(q)
    return LaguerreParams(q, q ** alpha)


# Each choice of a family, instance or search: (builder, the keys it
# reads, in argument order).  A family builds to its PolynomialFamily, an
# instance to theorem_catalog's arguments after the name, a search to its
# check short of h_max.
_FAMILIES = {"q-meixner": (meixner, ("q", "b", "c")),
             "q-laguerre": (laguerre, ("q", "t")),
             "al-salam-carlitz": (alsalam_carlitz, ("q", "a"))}
_LADDER_FAMILIES = {kind: _FAMILIES[kind]  # the ones dop_catalog covers
                    for kind in ("q-meixner", "q-laguerre")}
_INSTANCES = {
    **dict.fromkeys((MEIXNER_I, MEIXNER_II, MEIXNER_III), (
        lambda q, b, c, k: (MeixnerParams(q, b, c), k), ("q", "b", "c", "k"))),
    LAGUERRE_I: (lambda q, t, k: (LaguerreParams(q, t), k), ("q", "t", "k")),
    LAGUERRE_II: (lambda q, alpha, m: (_point_mass(q, alpha), alpha, m),
                  ("q", "alpha", "m")),
}
_SEARCHES = {
    "a": (lambda q, b, c, *sets: partial(
        check_conjecture_a, MeixnerParams(q, b, c), *sets),
        ("q", "b", "c", "f1", "f2", "f3")),
    "b1": (lambda q, t, f: partial(
        check_conjecture_b1, LaguerreParams(q, t), f), ("q", "t", "f")),
    "b2": (lambda q, alpha, *rest: partial(
        check_conjecture_b2, _point_mass(q, alpha), *rest),
        ("q", "alpha", "f", "k-upper", "masses")),
}

# Every key is a flag --key and a config key of the same name:
# (parser, default, help, argparse options).  The index bound n takes its
# default from each command.
_KEYS = {
    "family": (_as_is, "q-meixner", "family name: " + ", ".join(_FAMILIES),
               {}),
    "theorem": (_as_is, None, "instance name: " + ", ".join(_INSTANCES), {}),
    "q": (_as_rat, "2/5", "base q (rational string)", {}),
    "b": (_as_rat, "1/3", "first family parameter", {}),
    "c": (_as_rat, "3/2", "second family parameter", {}),
    "t": (_as_rat, "3/4", "geometric eigenvalue scale", {}),
    "a": (_as_rat, "4/3", "family parameter for the third family", {}),
    "alpha": (_as_int, 2, "positive integer exponent with t = q^alpha", {}),
    "k": (_as_int, 1, "degree parameter of the instance", {}),
    "m": (_as_rat, "1", "point mass at the origin", {}),
    "n": (_as_int, None, "depth bound for the check", {}),
    "perturb-beta": (_as_override, None,
                     "inject a wrong beta value to demonstrate failure",
                     {"nargs": 2, "metavar": ("INDEX", "VALUE")}),
    "f1": (_list_of(_as_int), (), "first factor set", {"nargs": "*"}),
    "f2": (_list_of(_as_int), (), "second factor set", {"nargs": "*"}),
    "f3": (_list_of(_as_int), (), "third factor set", {"nargs": "*"}),
    "f": (_list_of(_as_int), (), "factor set", {"nargs": "*"}),
    "k-upper": (_as_int, 0, "highest derivative order of the point masses",
                {}),
    "masses": (_list_of(_as_rat), ("1",), "point masses M_0..M_K",
               {"nargs": "+"}),
    "order-max": (_as_int, None, "largest operator order to scan", {}),
}


def _value(cfg: dict, key: str, default=None):
    """key's value: cfg's whenever cfg gives one, a null included, else
    default or the key's declared default, each read by the key's parser;
    with no value at all, None."""
    parse, declared, _, _ = _KEYS[key]
    if key in cfg:
        return parse(key, cfg[key])
    raw = declared if default is None else default
    return None if raw is None else parse(key, raw)


def _choose(cfg: dict, what: str, table: dict, choice: str):
    """Build table[choice] from the keys it reads; a given key that only the
    other choices of table read is a ParseError naming it."""
    make, reads = table[choice]
    unread = sorted({key for _, keys in table.values() for key in keys}
                    .intersection(cfg).difference(reads))
    if unread:
        raise ParseError(
            f"{what} {choice} does not read {', '.join(map(repr, unread))}; "
            f"it reads {', '.join(reads)}")
    return make(*(_value(cfg, key) for key in reads))


def _mark(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _params_echo(params) -> dict:
    """The rational fields of a params record, as exact strings."""
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


# Each handler takes the command's choice, its build, and the command's own
# keys in order.
def _cmd_families(_kind, fam, n_top: int):
    polys = fam.polys_up_to(n_top)
    theta_known = fam.kind != "al-salam-carlitz"
    rows = [{"n": n, "coeffs": poly_to_json(p),
             **({"theta": rational_str(fam.theta(n))} if theta_known else {})}
            for n, p in enumerate(polys)]
    rec = family_recurrence(fam)
    recurrence = {
        "a": [rational_str(rec.a(n)) for n in range(n_top)],
        "b": [rational_str(rec.b(n)) for n in range(n_top)],
        "c": [rational_str(rec.c(n)) for n in range(1, n_top)],
    }
    payload = {"command": "families", "family": fam.kind,
               "params": _params_echo(fam.params),
               "polynomials": rows, "recurrence": recurrence}
    leading = polys[-1].leading()
    summary = [f"{fam.kind}: tabulated p_0..p_{n_top}",
               f"p_{n_top} leading coefficient {rational_str(leading)} "
               f"(~{_approx(leading)}, non-authoritative)"]
    csv_rows = [["n", "theta_n" if theta_known else "", "coefficients"]]
    csv_rows += [[str(r["n"]), r.get("theta", ""), " ".join(r["coeffs"])]
                 for r in rows]
    return True, payload, summary, {"families.csv": csv_rows}


def _cmd_verify_dop(_kind, fam, n_top: int):
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


def _build_bundle(name: str, args: tuple, n_top: int, beta_override=None):
    # the measure reaches m_{2 n_top}, the last moment Gram and Hankel read
    td = theorem_catalog(name, *args, n_depth=2 * n_top)
    return td, build(td.family, td.spec, td.p2, n_top, beta_override)


def _input_echo(td) -> dict:
    mass = {} if td.mass is None else {"m": rational_str(td.mass)}
    return {**_params_echo(td.family.params), "k_or_alpha": td.k_or_alpha,
            **mass}


def _cmd_build_krall(name: str, args: tuple, n_top: int):
    td, kc = _build_bundle(name, args, n_top)
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


def _cmd_verify_eigen(name: str, args: tuple, n_top: int, beta_override):
    td, kc = _build_bundle(name, args, n_top, beta_override)
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


def _cmd_verify_orthogonality(name: str, args: tuple, n_top: int):
    td, kc = _build_bundle(name, args, n_top)
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


def _cmd_conjecture(which: str, search, order_max: int | None):
    report = search(h_max=None if order_max is None else order_max // 2)
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


# Each subcommand: (handler, help, (what it chooses, the key naming the
# choice, the choice table), its own keys with their defaults).
# conjecture's choice is its positional argument.
_INSTANCE = ("instance", "theorem", _INSTANCES)
_COMMANDS = {
    "families": (_cmd_families, "tabulate a classical family",
                 ("family", "family", _FAMILIES), {"n": 8}),
    "verify-dop": (_cmd_verify_dop, "check ladder closed forms against "
                   "their defining action",
                   ("family", "family", _LADDER_FAMILIES), {"n": 10}),
    "build-krall": (_cmd_build_krall, "build q_n, beta_n, lambda_n and the "
                    "higher-order operator", _INSTANCE, {"n": 10}),
    "verify-eigen": (_cmd_verify_eigen,
                     "verify the eigenfunction equation exactly",
                     _INSTANCE, {"n": 10, "perturb-beta": None}),
    "verify-orthogonality": (_cmd_verify_orthogonality,
                             "Gram matrix and Hankel cross-check",
                             _INSTANCE, {"n": 8}),
    "conjecture": (_cmd_conjecture, "run a conjecture regression",
                   ("conjecture", "which", _SEARCHES), {"order-max": None}),
}


def _help(key: str, default) -> str:
    """key's help text, stating its default if it has one."""
    if isinstance(default, tuple):
        default = " ".join(default) or "empty"
    text = _KEYS[key][2]
    return text if default is None else f"{text} (default {default})"


# Each command's keys in _KEYS order, with their help: its choice key, the
# keys its choices read, and its own.
_COMMAND_KEYS = {
    name: {key: _help(key, own.get(key, _KEYS[key][1])) for key in _KEYS
           if key in own or key == choice_key
           or any(key in keys for _, keys in table.values())}
    for name, (_, _, (_, choice_key, table), own) in _COMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative fraction such as -2/7 as a
    value; argparse's own test only knows negative integers and decimals."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$")


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parse_args keeps
    no state between calls, so every main call can share it."""
    parser = _Parser(
        prog="qkrall",
        description="Exact construction and verification of q-Krall "
                    "orthogonal polynomial families.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, (_, choice_key, table), _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if choice_key not in _KEYS:
            p.add_argument(choice_key, choices=tuple(table))
        for key, key_help in _COMMAND_KEYS[name].items():
            p.add_argument(f"--{key}", help=key_help, **_KEYS[key][3])
        p.add_argument("--config", help="JSON config file; overrides flags")
        p.add_argument("--out", help="directory for report.json and CSV files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler, _, (what, choice_key, table), own = _COMMANDS[args.command]
    started = time.monotonic()
    try:
        cfg = parse_config(args, list(_COMMAND_KEYS[args.command]))
        values = [_value(cfg, key, default) for key, default in own.items()]
        choice = (_value(cfg, choice_key) if choice_key in _KEYS
                  else getattr(args, choice_key))
        # a tuple test compares without hashing: a config value may be a list
        if choice not in tuple(table):
            raise ParseError(f"--{choice_key} must be one of "
                             f"{', '.join(table)}; got {choice!r}")
        ok, payload, summary, csvs = handler(
            choice, _choose(cfg, what, table, choice), *values)
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
