"""Command-line front end.

Subcommands: families, verify-dop, build-krall, verify-eigen,
verify-orthogonality, conjecture {a,b1,b2}.  Flags mirror JSON config keys;
--config FILE overrides flags; --out DIR writes report files.  All numbers
in reports are exact rational strings; the stdout summary may add decimal
approximations, clearly marked non-authoritative.  Exit codes: 0 all checks
pass, 1 a check failed, 2 invalid input.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .dops import dop_catalog, verify_dop
from .errors import (CrossCheckFailed, ParamDegeneracy, ParseError,
                     QKrallError)
from .exact import poly_to_json, rational, rational_str
from .families import (LaguerreParams, MeixnerParams, PolynomialFamily,
                       _check_base, alsalam_carlitz, family_recurrence,
                       laguerre, meixner)
from .krall import build, theorem_catalog, verify_eigen
from .moments import (LAGUERRE_I, MEIXNER_I, MEIXNER_II, MEIXNER_III,
                      THEOREMS, gram_matrix, hankel_orthogonal)
from .search import (check_conjecture_a, check_conjecture_b1,
                     check_conjecture_b2)

__all__ = ["main", "entry", "parse_config"]

_DEFAULTS = {"q": "2/5", "b": "1/3", "c": "3/2", "t": "3/4"}


def _approx(value: Fraction) -> str:
    return f"{float(value):.6g}"


def parse_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """Collect the command's parameters: flags first, then config file.

    Values from --config FILE override flag values key by key.
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
        cfg.update(loaded)
    return cfg


def _as_rat(key: str, raw) -> Fraction:
    """raw as a rational, or ParseError naming the key it came from."""
    try:
        return rational(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {key} = {raw!r} as a rational") from exc


def _rat(cfg: dict, key: str, default: str | None = None) -> Fraction:
    raw = cfg.get(key, default)
    if raw is None:
        raise ParseError(f"missing required parameter {key!r}")
    return _as_rat(key, raw)


def _as_int(key: str, raw) -> int:
    """raw (an int or a decimal string) as an integer, or ParseError naming
    the key it came from; a float or bool is refused, not truncated."""
    value = raw
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"cannot parse {key} = {raw!r} as an integer")
    return value


def _int(cfg: dict, key: str, default: int | None = None) -> int:
    raw = cfg.get(key, default)
    if raw is None:
        raise ParseError(f"missing required parameter {key!r}")
    return _as_int(key, raw)


def _items(cfg: dict, key: str, parse=_as_int, default: tuple = ()) -> list:
    """A list-valued key such as a factor set, each item read by parse."""
    raw = cfg.get(key) or default
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"{key} must be a list, got {raw!r}")
    return [parse(key, item) for item in raw]


def _depth(cfg: dict, default: int) -> int:
    """The index bound n; a negative one would leave nothing to check."""
    n = _int(cfg, "n", default)
    if n < 0:
        raise ParamDegeneracy(f"n must be nonnegative, got n = {n}")
    return n


def _point_mass_params(cfg: dict, q: Fraction) -> tuple[LaguerreParams, int]:
    """The q-Laguerre data t = q^alpha of the point-mass shapes; q is
    checked first, because 0 ** alpha has no value for alpha < 0."""
    alpha = _int(cfg, "alpha", 2)
    _check_base(q)
    return LaguerreParams(q, q ** alpha), alpha


def _theorem_setup(cfg: dict):
    name = cfg.get("theorem")
    if name not in THEOREMS:
        raise ParseError(
            f"--theorem must be one of {', '.join(THEOREMS)}; got {name!r}")
    q = _rat(cfg, "q", _DEFAULTS["q"])
    if name in (MEIXNER_I, MEIXNER_II, MEIXNER_III):
        params = MeixnerParams(q, _rat(cfg, "b", _DEFAULTS["b"]),
                               _rat(cfg, "c", _DEFAULTS["c"]))
        return name, params, _int(cfg, "k", 1), None
    if name == LAGUERRE_I:
        params = LaguerreParams(q, _rat(cfg, "t", _DEFAULTS["t"]))
        return name, params, _int(cfg, "k", 1), None
    params, alpha = _point_mass_params(cfg, q)
    return name, params, alpha, _rat(cfg, "m", "1")


def _family_setup(cfg: dict) -> PolynomialFamily:
    kind = cfg.get("family", "q-meixner")
    q = _rat(cfg, "q", _DEFAULTS["q"])
    if kind == "q-meixner":
        return meixner(q, _rat(cfg, "b", _DEFAULTS["b"]),
                       _rat(cfg, "c", _DEFAULTS["c"]))
    if kind == "q-laguerre":
        return laguerre(q, _rat(cfg, "t", _DEFAULTS["t"]))
    if kind == "al-salam-carlitz":
        return alsalam_carlitz(q, _rat(cfg, "a", "4/3"))
    raise ParseError(f"unknown family {kind!r}")


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
    rows = []
    theta_known = fam.kind != "al-salam-carlitz"
    for n in range(n_top + 1):
        entry = {"n": n, "coeffs": poly_to_json(fam.poly(n))}
        if theta_known:
            entry["theta"] = rational_str(fam.theta(n))
        rows.append(entry)
    rec = family_recurrence(fam)
    recurrence = {
        "a": [rational_str(rec.a(n)) for n in range(n_top)],
        "b": [rational_str(rec.b(n)) for n in range(n_top)],
        "c": [rational_str(rec.c(n)) for n in range(1, n_top)],
    }
    payload = {"command": "families", "family": fam.kind,
               "params": {k: rational_str(v)
                          for k, v in sorted(vars(fam.params).items())
                          if isinstance(v, Fraction)},
               "polynomials": rows, "recurrence": recurrence}
    summary = [f"{fam.kind}: tabulated p_0..p_{n_top}",
               f"p_{n_top} leading coefficient "
               f"{rational_str(fam.poly(n_top).leading())} "
               f"(~{_approx(fam.poly(n_top).leading())}, non-authoritative)"]
    csv_rows = [["n", "theta_n" if theta_known else "", "coefficients"]]
    for n in range(n_top + 1):
        csv_rows.append([
            str(n),
            rational_str(fam.theta(n)) if theta_known else "",
            " ".join(poly_to_json(fam.poly(n))),
        ])
    return True, payload, summary, {"families.csv": csv_rows}


def _cmd_verify_dop(cfg: dict):
    n_top = _depth(cfg, 10)
    fam = _family_setup(cfg)
    entries = []
    all_ok = True
    for spec in dop_catalog(fam):
        report = verify_dop(spec, fam, n_top)
        ok = all(e["passed"] for e in report)
        all_ok &= ok
        entries.append({
            "spec_id": spec.spec_id,
            "closed_form_order": spec.closed_form.order(),
            "all_passed": ok,
            "checks": [
                {"n": e["n"], "passed": e["passed"],
                 **({"residual": e["residual"].pretty()}
                    if e["residual"] is not None else {})}
                for e in report],
        })
    payload = {"command": "verify-dop", "family": fam.kind,
               "n_top": n_top, "specs": entries, "all_passed": all_ok}
    summary = [f"{e['spec_id']}: closed form == defining action for "
               f"n <= {n_top}: {'pass' if e['all_passed'] else 'FAIL'}"
               for e in entries]
    return all_ok, payload, summary, {}


def _build_bundle(cfg: dict, n_top: int, beta_override=None):
    name, params, k, mass = _theorem_setup(cfg)
    td = theorem_catalog(name, params, k, mass=mass)
    kc = build(td.family, td.spec, td.p2, n_top, beta_override=beta_override)
    return td, kc


def _cmd_build_krall(cfg: dict):
    n_top = _depth(cfg, 10)
    td, kc = _build_bundle(cfg, n_top)
    rows = []
    for n in range(n_top + 1):
        rows.append({
            "n": n,
            "lambda": rational_str(kc.lam(n)),
            **({"beta": rational_str(kc.beta(n))} if n >= 1 else {}),
            "qpoly": poly_to_json(kc.qpoly(n)),
        })
    payload = {"command": "build-krall", "theorem": td.name,
               "inputs": _input_echo(td),
               "expected_order": td.expected_order,
               "operator_order": kc.operator.order(),
               "operator": kc.operator.to_json(),
               "sequence": rows}
    ok = kc.operator.order() == td.expected_order
    summary = [
        f"{td.name}: built q_0..q_{n_top}; operator order "
        f"{kc.operator.order()} (expected {td.expected_order})",
        f"lambda_{n_top} = {rational_str(kc.lam(n_top))} "
        f"(~{_approx(kc.lam(n_top))}, non-authoritative)",
    ]
    csv_rows = [["n", "beta_n", "lambda_n", "q_n coefficients"]]
    for n in range(n_top + 1):
        csv_rows.append([
            str(n),
            rational_str(kc.beta(n)) if n >= 1 else "",
            rational_str(kc.lam(n)),
            " ".join(poly_to_json(kc.qpoly(n))),
        ])
    return ok, payload, summary, {"krall.csv": csv_rows}


def _input_echo(td) -> dict:
    params = td.family.params
    echo = {k: rational_str(v) for k, v in sorted(vars(params).items())
            if isinstance(v, Fraction)}
    echo["k_or_alpha"] = td.k_or_alpha
    if td.mass is not None:
        echo["m"] = rational_str(td.mass)
    return echo


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
    report = verify_eigen(kc)
    checks = [{"n": e["n"], "passed": e["passed"],
               **({"residual": e["residual"].pretty()}
                  if e["residual"] is not None else {})}
              for e in report]
    order_ok = kc.operator.order() == td.expected_order
    beta_ok = all(kc.beta(n) == td.displayed_beta(n)
                  for n in range(1, n_top + 1)) if beta_override is None \
        else None
    eigen_ok = all(e["passed"] for e in report)
    ok = eigen_ok and order_ok and (beta_ok is not False)
    payload = {"command": "verify-eigen", "theorem": td.name,
               "inputs": _input_echo(td), "n_top": n_top,
               "operator_order": kc.operator.order(),
               "expected_order": td.expected_order,
               "order_passed": order_ok,
               "beta_matches_displayed": beta_ok,
               "perturbed_beta": ({str(k): rational_str(v)
                                   for k, v in beta_override.items()}
                                  if beta_override else None),
               "eigen_checks": checks, "all_passed": ok}
    summary = [
        f"{td.name}: eigen equation exact for n <= {n_top}: "
        f"{'pass' if eigen_ok else 'FAIL'}",
        f"operator order {kc.operator.order()} vs expected "
        f"{td.expected_order}: {'pass' if order_ok else 'FAIL'}",
    ]
    if beta_ok is not None:
        summary.append(f"beta sequence matches displayed form: "
                       f"{'pass' if beta_ok else 'FAIL'}")
    if beta_override:
        summary.append(f"(beta perturbed at {sorted(beta_override)}; "
                       "failures above are the injected fault)")
    return ok, payload, summary, {}


def _cmd_verify_orthogonality(cfg: dict):
    n_top = _depth(cfg, 8)
    td, kc = _build_bundle(cfg, n_top)
    qpolys = [kc.qpoly(n) for n in range(n_top + 1)]
    gram = gram_matrix(td.measure, qpolys)
    size = n_top + 1
    diagonal = all(gram[i][j] == 0
                   for i in range(size) for j in range(size) if i != j)
    nonzero = all(gram[i][i] != 0 for i in range(size))
    gd = hankel_orthogonal(td.measure, n_top)
    hankel_ok = all(gd.polys[n] * qpolys[n].leading() == qpolys[n]
                    for n in range(size))
    ok = diagonal and nonzero and hankel_ok
    payload = {"command": "verify-orthogonality", "theorem": td.name,
               "inputs": _input_echo(td), "n_top": n_top,
               "gram": [[rational_str(v) for v in row] for row in gram],
               "diagonal": diagonal, "nonzero_diagonal": nonzero,
               "hankel_monic_match": hankel_ok, "all_passed": ok}
    summary = [
        f"{td.name}: Gram matrix n,m <= {n_top} exactly diagonal: "
        f"{'pass' if diagonal else 'FAIL'}",
        f"diagonal entries nonzero: {'pass' if nonzero else 'FAIL'}",
        f"Hankel monic polynomials match monic q_n: "
        f"{'pass' if hankel_ok else 'FAIL'}",
    ]
    csv_rows = [[rational_str(v) for v in row] for row in gram]
    return ok, payload, summary, {"gram.csv": csv_rows}


def _cmd_conjecture(cfg: dict, which: str):
    q = _rat(cfg, "q", _DEFAULTS["q"])
    order_max = cfg.get("order-max")
    h_max = None if order_max is None else _as_int("order-max", order_max) // 2
    if which == "a":
        params = MeixnerParams(q, _rat(cfg, "b", _DEFAULTS["b"]),
                               _rat(cfg, "c", _DEFAULTS["c"]))
        report = check_conjecture_a(
            params, f1=_items(cfg, "f1"), f2=_items(cfg, "f2"),
            f3=_items(cfg, "f3"), h_max=h_max)
    elif which == "b1":
        report = check_conjecture_b1(
            LaguerreParams(q, _rat(cfg, "t", _DEFAULTS["t"])),
            f_set=_items(cfg, "f"), h_max=h_max)
    else:
        params, _ = _point_mass_params(cfg, q)
        report = check_conjecture_b2(
            params, f_set=_items(cfg, "f"),
            k_upper=_int(cfg, "k-upper", 0),
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


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    text = {
        "q": "base q (rational string, default 2/5)",
        "b": "first family parameter (default 1/3)",
        "c": "second family parameter (default 3/2)",
        "t": "geometric eigenvalue scale (default 3/4)",
        "a": "family parameter for the third family (default 4/3)",
        "alpha": "positive integer exponent with t = q^alpha",
        "k": "degree parameter of the instance (default 1)",
        "m": "point mass at the origin (default 1)",
        "n": "depth bound for the check",
        "theorem": "instance name: " + ", ".join(THEOREMS),
        "family": "family name: q-meixner, q-laguerre, al-salam-carlitz",
    }
    for name in names:
        if name in ("alpha", "k", "n"):
            p.add_argument(f"--{name}", type=int, help=text[name])
        elif name == "theorem":
            p.add_argument("--theorem", choices=THEOREMS, help=text[name])
        elif name == "family":
            p.add_argument("--family", help=text[name])
        else:
            p.add_argument(f"--{name}", help=text[name])
    p.add_argument("--config", help="JSON config file; overrides flags")
    p.add_argument("--out", help="directory for report.json and CSV files")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkrall",
        description="Exact construction and verification of q-Krall "
                    "orthogonal polynomial families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="tabulate a classical family")
    _add_common(p, "family", "q", "b", "c", "t", "a", "n")

    p = sub.add_parser("verify-dop",
                       help="check ladder closed forms against their "
                            "defining action")
    _add_common(p, "family", "q", "b", "c", "t", "n")

    p = sub.add_parser("build-krall",
                       help="build q_n, beta_n, lambda_n and the "
                            "higher-order operator")
    _add_common(p, "theorem", "q", "b", "c", "t", "alpha", "k", "m", "n")

    p = sub.add_parser("verify-eigen",
                       help="verify the eigenfunction equation exactly")
    _add_common(p, "theorem", "q", "b", "c", "t", "alpha", "k", "m", "n")
    p.add_argument("--perturb-beta", nargs=2, metavar=("INDEX", "VALUE"),
                   dest="perturb_beta",
                   help="inject a wrong beta value to demonstrate failure")

    p = sub.add_parser("verify-orthogonality",
                       help="Gram matrix and Hankel cross-check")
    _add_common(p, "theorem", "q", "b", "c", "t", "alpha", "k", "m", "n")

    p = sub.add_parser("conjecture", help="run a conjecture regression")
    p.add_argument("which", choices=("a", "b1", "b2"))
    p.add_argument("--f1", nargs="*", type=int, help="first factor set")
    p.add_argument("--f2", nargs="*", type=int, help="second factor set")
    p.add_argument("--f3", nargs="*", type=int, help="third factor set")
    p.add_argument("--f", nargs="*", type=int, help="factor set")
    p.add_argument("--k-upper", type=int, dest="k_upper",
                   help="highest derivative order of the point masses")
    p.add_argument("--masses", nargs="+", help="point masses M_0..M_K")
    p.add_argument("--order-max", dest="order_max", type=int,
                   help="largest operator order to scan")
    _add_common(p, "q", "b", "c", "t", "alpha")
    return parser


_KEYS = {
    "families": ["family", "q", "b", "c", "t", "a", "n"],
    "verify-dop": ["family", "q", "b", "c", "t", "n"],
    "build-krall": ["theorem", "q", "b", "c", "t", "alpha", "k", "m", "n"],
    "verify-eigen": ["theorem", "q", "b", "c", "t", "alpha", "k", "m", "n",
                     "perturb-beta"],
    "verify-orthogonality": ["theorem", "q", "b", "c", "t", "alpha", "k",
                             "m", "n"],
    "conjecture": ["q", "b", "c", "t", "alpha", "f1", "f2", "f3", "f",
                   "k-upper", "masses", "order-max"],
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = parse_config(args, _KEYS[args.command])
        if args.command == "families":
            ok, payload, summary, csvs = _cmd_families(cfg)
        elif args.command == "verify-dop":
            ok, payload, summary, csvs = _cmd_verify_dop(cfg)
        elif args.command == "build-krall":
            ok, payload, summary, csvs = _cmd_build_krall(cfg)
        elif args.command == "verify-eigen":
            ok, payload, summary, csvs = _cmd_verify_eigen(cfg)
        elif args.command == "verify-orthogonality":
            ok, payload, summary, csvs = _cmd_verify_orthogonality(cfg)
        else:
            ok, payload, summary, csvs = _cmd_conjecture(cfg, args.which)
    except ParseError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except CrossCheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except QKrallError as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(payload, time.monotonic() - started, getattr(args, "out", None),
          summary, csvs)
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
