"""The benchmark's four workloads: task lists with exact oracles.

A workload is a fixed list of tasks.  Each task has a ``run`` callable that
does the program's work (the only part that is timed or traced) and a
``check`` callable that judges the result exactly.  ``build(name, seed,
root)`` is the set-up: it imports deforma, builds fixtures and generates
inputs, and returns the task list.  Only ``mc`` draws from the seed; the
other three are fixed by the shipped fixtures F1-F7.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_EXPECTED = os.path.join(HERE, "cli_expected.json")

WORKLOADS = ("axioms", "linear", "mc", "cli")


@dataclass
class Outcome:
    """``matches``: the result equals its oracle.  ``error``: the task failed
    in a way the oracle does not cover (raised, traceback, non-JSON stdout)."""

    matches: bool
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.matches


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome | bool]
    kind: str = "task"          # mc marks its gauge rounds "round"


def judge(task: Task, value: Any) -> Outcome:
    verdict = task.check(value)
    return verdict if isinstance(verdict, Outcome) else Outcome(bool(verdict))


def in_sequence(name: str, parts: list[Task], kind: str) -> Task:
    """One task that runs ``parts`` one after another; it passes when every
    part does."""
    return Task(name, lambda: [part.run() for part in parts],
                lambda values: all(judge(part, value).matches
                                   for part, value in zip(parts, values)),
                kind)


# ---------------------------------------------------------------------------
# axioms: validate_dgla on the fixture dglas and the criterion-1 Hom slices

# total dimensions of the arity-4 Hom slices (acceptance criterion 1)
SLICE_DIMS = {"F1": {1: 4}, "F2": {1: 16, 2: 24, 3: 16, 4: 4},
              "F5": {0: 18, 1: 45, 2: 36, 3: 9}}


def validate_task(name: str, build: Callable[[], Any],
                  dims: dict[int, int] | None = None) -> Task:
    """Validate the dgla that ``build`` returns; the report must be ok."""
    from deforma import dgla

    def run():
        g = build()
        return g, dgla.validate_dgla(g)

    def check(value):
        g, report = value
        if dims is not None and {d: g.space.dim(d) for d in g.space.degrees} != dims:
            return False
        return report.ok and not report.failures

    return Task(name, run, check)


def axioms_tasks() -> list[Task]:
    from deforma import convolution, endo, fixtures as F

    tasks = [validate_task(f"validate {name}",
                           lambda name=name: F.fixture_dgla(name))
             for name in F.FIXTURE_NAMES]
    slices = {
        "F1": lambda: (F.f1_dgla(), F.f1_dgla()),
        "F2": lambda: (F.f2_dgla(), F.f2_dgla()),
        "F5": lambda: (F.f5_derivations(), endo.end_dgla(F.f5_cdga().complex).dgla),
    }
    for name, pair in slices.items():
        tasks.append(validate_task(
            f"validate Hom({name}) arity 4",
            lambda pair=pair: convolution.hom_dgla_slice(*pair(), 4),
            SLICE_DIMS[name]))
    return tasks


# ---------------------------------------------------------------------------
# linear: holim ranks, the quasi-abelian witness, Kunneth ranks, F6 period

TBOUNDS = range(1, 9)
# H(End F5) = End(H(F5)): H^0(F5) = <1>, H^1(F5) = <x^2 dx>
END_F5_RANKS = {-1: 1, 0: 2, 1: 1}
ARTIN_LINEAR = ((1, 3), (1, 5), (2, 3))


def holim_cases():
    """The three acceptance-criterion-5 pairs with their expected ranks."""
    from deforma import fixtures as F
    from deforma.dgla import sub_dgla_span
    from deforma.holim import holim_pair

    g2 = F.f2_dgla()
    g1 = F.f1_dgla()
    diagonal = {0: [[Q(1 if i == j else 0) for j in range(4)] for i in range(4)]}
    return [("F2/borel", holim_pair(g2, F.f2_borel(g2)), {1: 1}),
            ("F1/0", holim_pair(g1, sub_dgla_span(g1, {})), {2: 1}),
            ("F2/F2", holim_pair(g2, sub_dgla_span(g2, diagonal)), {})]


def holim_task(label: str, pair, tbound: int, expected: dict[int, int]) -> Task:
    from deforma import holim

    def check(res):
        return (res.ranks == expected and res.quotient_ranks == expected
                and res.agree)

    return Task(f"holim {label} tdeg {tbound}",
                lambda: holim.holim_cohomology_bounded(pair, tbound), check)


def linear_tasks() -> list[Task]:
    from deforma import fixtures as F, graded, holim, period
    from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
    from deforma.endo import end_dgla

    cases = holim_cases()
    tasks = [holim_task(label, pair, b, expected)
             for label, pair, expected in cases for b in TBOUNDS]
    borel = cases[0][1]
    section = F.f2_lower_left_section()
    tasks.append(Task("quasi-abelian witness F2/borel",
                      lambda: holim.quasi_abelian_witness(borel, section),
                      lambda w: (w.is_isomorphism
                                 and w.source_ranks == {1: 1} == w.holim_ranks)))

    end5 = end_dgla(F.f5_cdga().complex).dgla
    for k, order in ARTIN_LINEAR:
        a = truncated_polynomial_algebra(k, order)
        complex_ = tensor_nilpotent(end5, a).dgla.underlying
        expected = {d: r * a.dim for d, r in END_F5_RANKS.items()}
        tasks.append(Task(f"cohomology End(F5) (x) m_A k={k} N={order}",
                          lambda c=complex_: graded.cohomology(c),
                          lambda hc, e=expected: hc.ranks == e))

    omega, filt = F.f6_cdga(), F.f6_filtration()
    end6 = end_dgla(omega.complex)
    t6, i6 = F.f6_dgla(), F.f6_contraction(end6)

    def period_f6():
        contraction = period.contraction_cartan(omega, t6, i6, f=filt, end=end6)
        return period.period_differential(contraction, filt)

    tasks.append(Task("period_differential F6", period_f6,
                      lambda p: p.matrix == [[Q(1)]]))
    return tasks


# ---------------------------------------------------------------------------
# mc: gauge rounds over Artin coefficients, mc_extend, BCH associativity

ARTIN_MC = ((1, 3), (1, 4), (2, 3))
ROUNDS = 20
# hosts: the fixtures with degree-0 elements, plus the abelian F1 whose
# independent degree-1 elements give genuine not_equivalent verdicts.  F2
# (gl_2) has no degree-1 part, so its only Maurer-Cartan element is 0 and
# every round on it would be empty; gl_2 enters through the BCH products.
MC_FIXTURES = ("F1", "F3", "F4", "F5", "F6")
ABELIAN_INDEPENDENT = ("F1", "F6")
BCH_TRIPLES = 3


def random_vector(place: str, values: random.Random, dim: int,
                  nonzeros: int = 3,
                  keep: Callable[[int], bool] = lambda t: True) -> list:
    """Nonzero small rationals drawn from ``values`` at ``nonzeros`` positions
    that ``keep`` allows.  The positions depend only on ``place``, not on the
    seed, so every seed asks for the same amount of bracket work."""
    v = [Q(0)] * dim
    allowed = [t for t in range(dim) if keep(t)]
    for t in random.Random(place).sample(allowed, min(nonzeros, len(allowed))):
        v[t] = Q(values.choice((-3, -2, -1, 1, 2, 3)), values.randint(1, 3))
    return v


def _gvec(deg: int, v: list) -> dict:
    return {deg: v} if any(v) else {}


def gauge_round(name: str, host: Callable[[], Any], alpha, beta=None, x1=None,
                y=None) -> Task:
    """One round: gauge_act, mc_residue, gauge_equivalent, irrelevant_stabilizer.

    ``host()`` returns the g (x) m_A that the preceding task built.  With
    ``y`` None, x = e^beta * x1 and y = e^alpha * x are equivalent by
    construction (x1 is closed and of weight at least half the nilpotency
    order, so Maurer-Cartan).  Otherwise x1 and y are independent degree-1
    elements of an abelian host with zero differential, and any verdict may
    occur.
    """
    from deforma import mc
    from deforma.graded import vec_add, vec_is_zero, vec_sub
    constructed = y is None

    def run():
        ng = host()
        if constructed:
            x = mc.gauge_act(ng, beta, x1)
            target = image = mc.gauge_act(ng, alpha, x)
        else:
            x, target = x1, y
            image = mc.gauge_act(ng, alpha, x)
        return (ng, x, target, mc.mc_residue(ng, image),
                mc.gauge_equivalent(ng, x, target),
                mc.irrelevant_stabilizer(ng, x))

    def check(value):
        ng, x, target, residue, verdict, stab = value
        if not vec_is_zero(residue):
            return False
        if verdict.status == "equivalent":
            if not vec_is_zero(vec_sub(mc.gauge_act(ng, verdict.alpha, x), target)):
                return False
        elif constructed and verdict.status == "not_equivalent":
            return False
        # stabilizer directions are closed for the twisted differential d + [x, -]
        return all(set(v) == {0} and not vec_is_zero(v)
                   and vec_is_zero(vec_add(ng.d(v), ng.bracket(x, v)))
                   for v in stab)

    return Task(name, run, check)


def mc_tasks(seed: int) -> list[Task]:
    from deforma import artin, fixtures as F, mc
    from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
    from deforma.graded import vec_is_zero, vec_sub

    rng = random.Random(seed)
    tasks: list[Task] = []
    rounds: list[list[Task]] = [[] for _ in range(ROUNDS)]
    for fixture in MC_FIXTURES:
        g = F.fixture_dgla(fixture)
        closed = g.underlying.differential.is_zero()
        for k, order in ARTIN_MC:
            a = truncated_polynomial_algebra(k, order)
            dim0, dim1 = g.space.dim(0) * a.dim, g.space.dim(1) * a.dim
            built: dict = {}

            def build(g=g, a=a, built=built):
                built["ng"] = artin.tensor_nilpotent(g, a)
                return built["ng"]

            tasks.append(Task(f"tensor_nilpotent {fixture} k={k} N={order}", build,
                              lambda ng, n0=dim0, n1=dim1:
                              ng.space.dim(0) == n0 and ng.space.dim(1) == n1))
            host = lambda built=built: built["ng"]
            high = lambda t, a=a: 2 * a.weights[t % a.dim] >= a.order
            for r in range(ROUNDS):
                name = f"gauge round {fixture} k={k} N={order} #{r}"
                alpha = _gvec(0, random_vector(name + " alpha", rng, dim0))
                if fixture in ABELIAN_INDEPENDENT and (not dim0 or r % 2):
                    x1 = _gvec(1, random_vector(name + " x", rng, dim1))
                    y = _gvec(1, random_vector(name + " y", rng, dim1))
                    rounds[r].append(gauge_round(name, host, alpha, x1=x1, y=y))
                else:
                    beta = _gvec(0, random_vector(name + " beta", rng, dim0))
                    x1 = (_gvec(1, random_vector(name + " x", rng, dim1, keep=high))
                          if closed else {})
                    rounds[r].append(gauge_round(name, host, alpha, beta, x1))
    # a round runs on every host, so that the rounds the percentiles are
    # taken over are alike
    tasks += [in_sequence(f"gauge round #{r} on every host", parts, "round")
              for r, parts in enumerate(rounds)]

    ng6 = tensor_nilpotent(F.f6_dgla(), truncated_polynomial_algebra(1, 5))
    ng7 = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 3))
    seed6 = ng6.tensor_element({1: [Q(1)]}, 0)
    seed7 = ng7.tensor_element({1: [Q(1)]}, 0)
    tasks.append(Task("mc_extend F6 N=5", lambda: mc.mc_extend(ng6, seed6),
                      lambda r: r.status == "solved" and mc.is_mc(ng6, r.element)))
    tasks.append(Task("mc_extend F7 N=3", lambda: mc.mc_extend(ng7, seed7),
                      lambda r: (r.status == "obstructed"
                                 and r.obstruction.weight == 2
                                 and r.obstruction.classes == {"e^2": [Q(1, 2)]})))

    # pi1_multiply on gl_2 (x) K[e]/e^5 uses BCH with cutoff 4
    gl2 = tensor_nilpotent(F.f2_dgla(), truncated_polynomial_algebra(1, 5))
    dim0 = gl2.space.dim(0)
    for t in range(BCH_TRIPLES):
        a, b, c = (_gvec(0, random_vector(f"bch {t} {i}", rng, dim0, dim0 // 2))
                   for i in range(3))

        def triple(a=a, b=b, c=c):
            return (mc.pi1_multiply(gl2, mc.pi1_multiply(gl2, a, b), c),
                    mc.pi1_multiply(gl2, a, mc.pi1_multiply(gl2, b, c)))

        tasks.append(Task(f"pi1_multiply associativity gl2 N=5 #{t}", triple,
                          lambda lr: vec_is_zero(vec_sub(*lr))))
    return tasks


# ---------------------------------------------------------------------------
# cli: every command on every fixture whose model declares its defaults

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def cli_outcome(expected: dict, returncode: int, stdout: bytes,
                stderr: bytes) -> Outcome:
    """Exact oracle: stdout digest and exit code as recorded.  A traceback or
    stdout that is not JSON fails the task even when it matches the record."""
    matches = (returncode == expected["exit"]
               and digest(stdout) == expected["stdout_sha256"])
    if b"Traceback (most recent call last)" in stderr:
        return Outcome(matches, "traceback")
    try:
        json.loads(stdout)
    except ValueError:
        return Outcome(matches, "stdout is not JSON")
    return Outcome(matches)


def cli_task(expected: dict, root: str) -> Task:
    argv = expected["argv"]
    env = cli_env(root)

    def run():
        return subprocess.run([sys.executable, "-m", "deforma.cli", *argv],
                              capture_output=True, env=env, cwd=root,
                              timeout=120)

    return Task("deforma " + " ".join(argv), run,
                lambda p: cli_outcome(expected, p.returncode, p.stdout, p.stderr))


def cli_inprocess_task(expected: dict) -> Task:
    """The same invocation through ``deforma.cli.main`` in this process, for
    the traced run.  An escaping exception stands for the traceback and exit
    code 1 that the interpreter would give."""
    from deforma import cli
    argv = expected["argv"]

    def run():
        out, saved, stderr = io.BytesIO(), sys.stdout, b""
        sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, stderr = 1, traceback.format_exc().encode()
        finally:
            sys.stdout.flush()
            sys.stdout.detach()
            sys.stdout = saved
        return code, out.getvalue(), stderr

    return Task("deforma " + " ".join(argv), run,
                lambda v: cli_outcome(expected, *v))


def load_cli_expected() -> list[dict]:
    with open(CLI_EXPECTED) as fh:
        return json.load(fh)["invocations"]


# ---------------------------------------------------------------------------

def build(name: str, seed: int, root: str, in_process: bool = False) -> list[Task]:
    """The workload's task list.  ``in_process`` runs the CLI through
    ``deforma.cli.main`` instead of fresh processes, so it can be traced."""
    if name == "axioms":
        return axioms_tasks()
    if name == "linear":
        return linear_tasks()
    if name == "mc":
        return mc_tasks(seed)
    if name == "cli":
        expected = load_cli_expected()
        if in_process:
            return [cli_inprocess_task(entry) for entry in expected]
        return [cli_task(entry, root) for entry in expected]
    raise ValueError(f"unknown workload {name!r}")
