"""The benchmark's workloads: their jobs and the verdict checks on each job.

* catalog-sweep: the 18 reference theorem configurations, each built,
  eigen-verified, checked against the construction relations, and checked
  for Gram diagonality and the Hankel match (acceptance criteria 1, 2, 6).
* search-scan: three criterion-7 minimal-order searches of order 4.
* cli-mix: seeded ``qkrall`` command lines run in-process, each with fresh
  parameters, plus invalid-input, fault-injection and known-defect jobs.

Every job carries the exit code the README contract demands and the exact
number of checks its inputs fix.  catalog-sweep and search-scan jobs also
hash their deterministic output and compare it with the digest recorded in
``digests.json``.  A job fails on a wrong exit code, an uncaught exception,
a failed check, a check count other than the expected one, or a digest
mismatch.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The reference parameter set of the test suite.
Q0, B0, C0, T0 = Fraction(2, 5), Fraction(1, 3), Fraction(3, 2), Fraction(3, 4)
# Moment depth of the catalog-sweep measures: the 20 moments their
# construction cross-check compares.  The library default, 40, makes each
# q-Laguerre job 4-5 times slower and no output different.
CATALOG_DEPTH = 20

WORKLOADS = ("catalog-sweep", "search-scan", "cli-mix")


@dataclass
class Job:
    key: str
    config: tuple = ()
    argv: tuple[str, ...] = ()
    expect_exit: int = 0
    expected_checks: int = 0
    # A README-contract violation the program has today; such a job still
    # counts as failed, but does not make the run incorrect.
    known_defect: str | None = None


@dataclass
class Verdict:
    checks: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str | None = None

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(what)

    def finish(self, expected_checks: int) -> None:
        if self.checks != expected_checks:
            self.problems.append(
                f"{self.checks} checks made, {expected_checks} expected")

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of a job's deterministic output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(verdict: Verdict, digests: dict[str, str], key: str,
                 output) -> None:
    verdict.digest = got = digest(output)
    want = digests.get(key)
    if want is None:
        verdict.problems.append("no recorded digest")
    elif got != want:
        verdict.problems.append(f"digest {got[:12]} != recorded {want[:12]}")


# ---------------------------------------------------------------- catalog


def reference_configs(prog) -> list[tuple[str, object, int, Fraction | None]]:
    """The 18 (theorem, params, k_or_alpha, mass) reference configurations."""
    fam, mom = prog.families, prog.moments
    mp = fam.MeixnerParams(Q0, B0, C0)
    lp = fam.LaguerreParams(Q0, T0)
    configs = []
    for name in (mom.MEIXNER_I, mom.MEIXNER_II, mom.MEIXNER_III):
        for k in (1, 2, 3):
            configs.append((name, mp, k, None))
    for k in (1, 2, 3):
        configs.append((mom.LAGUERRE_I, lp, k, None))
    for alpha in (1, 2, 3):
        for mass in (Fraction(1), Fraction(7, 3)):
            configs.append((mom.LAGUERRE_II,
                            fam.LaguerreParams(Q0, Q0 ** alpha), alpha, mass))
    return configs


def catalog_checks(name: str) -> int:
    """Eigen 11, order 1, relations 52, Gram 81, Hankel 9, point mass 10."""
    return 11 + 1 + 52 + 81 + 9 + (10 if name == "laguerre-ii" else 0)


class CatalogSweep:
    name = "catalog-sweep"

    def __init__(self, prog, seed: int, digests: dict[str, str]):
        self.seed = seed
        self.digests = digests
        self.all_jobs = [
            Job(key=f"{name}/k={k}/m={mass}", config=(name, params, k, mass),
                expected_checks=catalog_checks(name))
            for name, params, k, mass in reference_configs(prog)]

    def jobs(self, pass_index: int) -> list[Job]:
        """All 18 configurations; the seed only shuffles their order."""
        out = list(self.all_jobs)
        random.Random(f"{self.name}/{self.seed}/{pass_index}").shuffle(out)
        return out

    def run(self, prog, job: Job, ctx) -> Verdict:
        K, M, fam = prog.krall, prog.moments, prog.families
        name, params, k, mass = job.config
        v = Verdict()
        td = K.theorem_catalog(name, params, k, mass=mass,
                               n_depth=CATALOG_DEPTH)
        kc = K.build(td.family, td.spec, td.p2, 10)
        for e in K.verify_eigen(kc):
            v.check(e["passed"], f"eigen n={e['n']}")
        v.check(kc.operator.order() == td.expected_order == 2 * k + 2,
                "operator order")
        family, spec = td.family, td.spec
        for n in range(1, 12):
            v.check(kc.gamma(n) == kc.p2(family.theta(n - 1)), f"gamma {n}")
        v.check(kc.lam(0) == (kc.p1(family.theta(0))
                              - spec.sigma(1) * kc.p2(family.theta(0))) / 2,
                "lambda 0")
        for n in range(1, 11):
            v.check(kc.lam(n) == kc.lam(n - 1) + spec.sigma(n) * kc.gamma(n),
                    f"lambda step {n}")
            v.check(kc.beta(n) == spec.eps(n) * kc.gamma(n + 1) / kc.gamma(n),
                    f"beta {n}")
            v.check(kc.beta(n) == td.displayed_beta(n), f"displayed beta {n}")
        for n in range(10):
            v.check(kc.lam(n + 1) + kc.lam(n) == kc.p1(family.theta(n)),
                    f"lambda sum {n}")
        kc8 = K.build(td.family, td.spec, td.p2, 8)
        qpolys = kc8.qpolys()
        gram = M.gram_matrix(td.measure, qpolys)
        for i in range(9):
            for j in range(9):
                v.check((gram[i][j] != 0) == (i == j), f"gram {i},{j}")
        gd = M.hankel_orthogonal(td.measure, 8)
        for n in range(9):
            v.check(gd.polys[n] * qpolys[n].leading() == qpolys[n],
                    f"hankel {n}")
        if name == M.LAGUERRE_II:
            t = params.t
            nu = M.laguerre_moments(fam.LaguerreParams(Q0, t / Q0), 10)
            p_polys = fam.laguerre(Q0, t).polys_up_to(10)
            betas, _ = M.combine_with_point_mass(nu, 0, mass, p_polys, 10)
            for n in range(1, 11):
                v.check(betas[n] == kc.beta(n), f"point-mass beta {n}")
        rs = prog.exact.rational_str
        check_digest(v, self.digests, job.key, {
            "operator": kc.operator.to_json(),
            "lambda": [rs(kc.lam(n)) for n in range(11)],
            "beta": [rs(kc.beta(n)) for n in range(1, 11)],
            "gram": [[rs(x) for x in row] for row in gram],
        })
        return v


# ----------------------------------------------------------------- search

# (key, conjecture, keyword arguments, conjectured order).  Each search
# scans orders 2 and 4 (h_max=2), the tightest window that confirms its
# conjecture.  The order-6 searches (A with f3={1,2}, B2) take 10-13 s
# each, too long to repeat within a run.
SEARCHES = (
    ("A/f1=1", "a", {"f1": [1], "h_max": 2}, 4),
    ("A/f3=1", "a", {"f3": [1], "h_max": 2}, 4),
    ("B1/f=1", "b1", {"f_set": [1], "h_max": 2}, 4),
)


def search_checks(which: str, order: int) -> int:
    """Status, order, one per attempt, the program's re-verification of
    each eigenpolynomial (4h + 9 of them), and the B2 theorem agreement."""
    h = order // 2
    return 2 + h + (4 * h + 9) + (2 if which == "b2" else 0)


class SearchScan:
    name = "search-scan"

    def __init__(self, prog, seed: int, digests: dict[str, str]):
        self.seed = seed
        self.digests = digests
        self.all_jobs = [
            Job(key=key, config=(which, kwargs, order),
                expected_checks=search_checks(which, order))
            for key, which, kwargs, order in SEARCHES]

    def jobs(self, pass_index: int) -> list[Job]:
        out = list(self.all_jobs)
        random.Random(f"{self.name}/{self.seed}/{pass_index}").shuffle(out)
        return out

    def run(self, prog, job: Job, ctx) -> Verdict:
        S, fam = prog.search, prog.families
        which, kwargs, order = job.config
        if which == "a":
            report = S.check_conjecture_a(fam.MeixnerParams(Q0, B0, C0),
                                          **kwargs)
        elif which == "b1":
            report = S.check_conjecture_b1(fam.LaguerreParams(Q0, T0),
                                           **kwargs)
        else:
            report = S.check_conjecture_b2(
                fam.LaguerreParams(Q0, Q0 ** 2), **kwargs)
        v = Verdict()
        found = report["status"] == "found"
        v.check(found, f"status {report['status']}")
        v.check(report["conjectured_order"] == order == report["found_order"],
                f"found order {report['found_order']}")
        attempts = report.get("attempts", [])
        for i, attempt in enumerate(attempts):
            v.check(attempt["order"] == 2 * (i + 1)
                    and attempt["found"] == (attempt["order"] == order),
                    f"attempt {attempt}")
        if found:
            # find_operator re-verifies every eigenpolynomial before it
            # reports a hit, so a hit stands for those checks.
            v.checks += 4 * (order // 2) + 9
        if which == "b2":
            agreement = report.get("theorem_agreement", {})
            v.check(agreement.get("order_agrees") is True, "order agreement")
            v.check(agreement.get("eigenvalue_affine_match") is True,
                    "eigenvalue affine match")
        check_digest(v, self.digests, job.key, report)
        return v


# ---------------------------------------------------------------- cli-mix

MEIXNER_THEOREMS = ("meixner-i", "meixner-ii", "meixner-iii")

# One cli-mix pass as (subcommand, theorem or family, k or alpha, n).  Only
# the rational parameters are drawn, afresh for every job, so no two jobs
# share work while the cost of a pass stays steady from seed to seed.
CLI_MIX = (
    *[("families", "q-meixner", None, 8)] * 6,
    *[("verify-dop", "q-meixner", None, 8)] * 6,
    *[("build-krall", th, k, 8)
      for th in MEIXNER_THEOREMS for k in (1, 2)],
    *[("verify-eigen", th, k, 8)
      for th in MEIXNER_THEOREMS for k in (1, 2, 3)],
    *[("verify-orthogonality", th, k, 6)
      for th in MEIXNER_THEOREMS for k in (1, 2)],
    ("verify-eigen", "laguerre-i", 1, 8),
    ("verify-eigen", "laguerre-ii", 1, 8),
)
# Per pass, besides CLI_MIX: invalid inputs (exit 2), and one verify-eigen
# job with an injected wrong beta (exit 1).
INVALID_PER_PASS = 4
PERTURBED = ("verify-eigen", "meixner-i", 2, 8)

# README-contract violations of the program as it stands (exit 2 is due).
KNOWN_DEFECTS = (
    (("families", "--family", "q-meixner", "--n", "-2"),
     "negative n ends in a traceback"),
    (("verify-eigen", "--theorem", "meixner-i", "--perturb-beta", "x", "1"),
     "non-integer perturb index ends in a traceback"),
    (("verify-eigen", "--theorem", "meixner-i", "--n", "-3"),
     "negative n exits 0 on an empty check range"),
)

# The Laguerre-catalog jobs use one base, so their cost does not swing with
# the draw of q.
LAGUERRE_Q = Fraction(7, 11)


def _frac(rng: random.Random, num: tuple[int, int],
          den: tuple[int, int]) -> Fraction:
    """A fraction in lowest terms with numerator and denominator in range."""
    while True:
        a, b = rng.randint(*num), rng.randint(*den)
        if math.gcd(a, b) == 1:
            return Fraction(a, b)


def _checks(command: str, n: int) -> int:
    return {"families": n + 1, "verify-dop": 3 * (n + 1), "build-krall": 1,
            "verify-eigen": n + 3,
            "verify-orthogonality": (n + 1) ** 2 + 1}[command]


class CliMix:
    name = "cli-mix"

    def __init__(self, prog, seed: int, digests: dict[str, str]):
        self.prog = prog
        self.seed = seed

    def _meixner(self, rng: random.Random) -> list[str]:
        """Draw (q, b, c) until the library accepts the parameter sets the
        Meixner theorems build from them.

        With q, b, c positive, the carrier and measure sets of the three
        theorems can only degenerate through b being a power of q, which
        the set (1/q, b, c) rejects.
        """
        params, degenerate = (self.prog.families.MeixnerParams,
                              self.prog.errors.ParamDegeneracy)
        while True:
            q = _frac(rng, (5, 9), (11, 17))
            b = _frac(rng, (2, 7), (11, 19))
            c = _frac(rng, (5, 13), (3, 7))
            try:
                params(q, b, c)
                params(1 / q, b, c)
            except degenerate:
                continue
            return ["--q", str(q), "--b", str(b), "--c", str(c)]

    def _laguerre(self, rng: random.Random, theorem: str,
                  alpha: int) -> list[str]:
        if theorem == "laguerre-ii":
            return ["--q", str(LAGUERRE_Q), "--alpha", str(alpha),
                    "--m", str(_frac(rng, (2, 9), (2, 7)))]
        while True:
            t = _frac(rng, (5, 9), (11, 17))
            try:
                self.prog.families.LaguerreParams(LAGUERRE_Q, t)
            except self.prog.errors.ParamDegeneracy:
                continue
            return ["--q", str(LAGUERRE_Q), "--t", str(t), "--k", str(alpha)]

    def _job(self, rng: random.Random, template: tuple, key: str) -> Job:
        command, target, k, n = template
        if command in ("families", "verify-dop"):
            argv = [command, "--family", target, *self._meixner(rng)]
        elif target in MEIXNER_THEOREMS:
            argv = [command, "--theorem", target, *self._meixner(rng),
                    "--k", str(k)]
        else:
            argv = [command, "--theorem", target,
                    *self._laguerre(rng, target, k)]
        argv += ["--n", str(n)]
        return Job(key, argv=tuple(argv), expected_checks=_checks(command, n))

    def _perturbed(self, rng: random.Random, key: str) -> Job:
        job = self._job(rng, PERTURBED, key)
        n = PERTURBED[3]
        job.argv += ("--perturb-beta", str(rng.randint(1, n)),
                     str(_frac(rng, (1000, 9999), (3, 97))))
        job.expect_exit = 1
        job.expected_checks = n + 2  # no displayed-beta check
        return job

    def _invalid(self, rng: random.Random) -> list[str]:
        """One input the README contract answers with exit 2."""
        choice = rng.randrange(5)
        if choice == 0:
            return ["verify-eigen", "--theorem", rng.choice(MEIXNER_THEOREMS),
                    "--q", rng.choice(["1", "-1", "0"])]
        if choice == 1:
            q = _frac(rng, (5, 9), (11, 17))
            return ["build-krall", "--theorem", "meixner-ii", "--q", str(q),
                    "--b", str(1 / q)]
        if choice == 2:
            q = _frac(rng, (5, 9), (11, 17))
            return ["verify-dop", "--family", "q-laguerre", "--q", str(q),
                    "--t", str(q ** -rng.randint(1, 3))]
        if choice == 3:
            return ["families", "--family", "q-meixner",
                    "--q", rng.choice(["2/0", "x7", "1/3/5", ""])]
        return ["families", "--family", rng.choice(["q-hermite", "meixner"])]

    def jobs(self, pass_index: int) -> list[Job]:
        """One pass: CLI_MIX with fresh parameters, the invalid inputs, the
        fault injection and the known defects, in seeded order."""
        rng = random.Random(f"{self.name}/{self.seed}/{pass_index}")
        out = [self._job(rng, template, f"{i}/{template[0]}")
               for i, template in enumerate(CLI_MIX)]
        out += [Job(f"invalid/{i}",
                    argv=tuple(self._invalid(rng)), expect_exit=2)
                for i in range(INVALID_PER_PASS)]
        out.append(self._perturbed(rng, "perturbed"))
        out += [Job(f"defect/{i}", argv=argv, expect_exit=2,
                    known_defect=why)
                for i, (argv, why) in enumerate(KNOWN_DEFECTS)]
        rng.shuffle(out)
        return out

    def run(self, prog, job: Job, ctx) -> Verdict:
        out_dir = ctx.job_dir(job)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = prog.cli.main([*job.argv, "--out", str(out_dir)])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        report = out_dir / "report.json"
        payload = None
        if report.is_file():
            ctx.report_bytes += report.stat().st_size
            payload = json.loads(report.read_text(encoding="utf-8"))["payload"]
        return judge_cli(job, code, payload)


def judge_cli(job: Job, code, payload: dict | None) -> Verdict:
    """Checks on one CLI job's exit code and report payload."""
    v = Verdict()
    if code != job.expect_exit:
        v.problems.append(f"exit {code}, expected {job.expect_exit}")
    if job.expect_exit == 2 or code == 2:
        return v
    if payload is None:
        v.problems.append("no report written")
        return v
    if "all_passed" in payload and payload["all_passed"] != (job.expect_exit == 0):
        v.problems.append(f"all_passed is {payload['all_passed']}")
    command = payload.get("command")
    if command == "families":
        for row in payload["polynomials"]:
            v.check(len(row["coeffs"]) == row["n"] + 1,
                    f"degree of p_{row['n']}")
    elif command == "verify-dop":
        for spec in payload["specs"]:
            for entry in spec["checks"]:
                v.check(entry["passed"], f"{spec['spec_id']} n={entry['n']}")
    elif command == "build-krall":
        v.check(payload["operator_order"] == payload["expected_order"],
                "operator order")
    elif command == "verify-eigen":
        perturbed = payload["perturbed_beta"]
        bad = {int(i) for i in perturbed} if perturbed else set()
        for entry in payload["eigen_checks"]:
            v.check(entry["passed"] == (entry["n"] not in bad),
                    f"eigen n={entry['n']}")
        v.check(payload["order_passed"], "operator order")
        if not perturbed:
            v.check(payload["beta_matches_displayed"] is True,
                    "displayed beta")
    elif command == "verify-orthogonality":
        for i, row in enumerate(payload["gram"]):
            for j, entry in enumerate(row):
                v.check((entry != "0") == (i == j), f"gram {i},{j}")
        v.check(payload["hankel_monic_match"], "hankel match")
    else:
        v.problems.append(f"unexpected command {command!r}")
    return v


def make(name: str, prog, seed: int, digests: dict[str, dict[str, str]]):
    cls = {"catalog-sweep": CatalogSweep, "search-scan": SearchScan,
           "cli-mix": CliMix}[name]
    return cls(prog, seed, digests.get(name, {}))


def load_digests(path: Path) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text(encoding="utf-8"))
