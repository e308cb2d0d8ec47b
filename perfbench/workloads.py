"""The benchmark workloads: their inputs, the timed op, its check and the
closed loop that runs them.

Every timed op parses a fresh ``Instance`` from an instance dict and then
calls ``solve`` or ``decide`` on it, because every cache of the package
lives on the instance: a reused instance would time warm caches that no
command-line user ever sees.  The public functions are looked up on their
modules at call time, so the spans of a traced run wrap them.

Checks run after the timed section.  ``solve`` is checked by certificate
(the returned centers attain the returned radius, the largest assignment
cost equals it, and a slightly smaller radius is infeasible); a feasible
``decide`` verdict by the cost of its witness centers, and the verdicts of
one instance by monotonicity in the radius.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import ucactus.decision
import ucactus.io
import ucactus.optimizer
from ucactus.uncertain import median_values, objective

import gen
import spans

# 2000 comes twice per cycle, so the median op is a 2000-vertex solve in
# every run instead of sitting between two sizes
TREE_SIZES = (1000, 2000, 4000, 2000)
RING_POINTS = (40, 50, 60, 70, 80)
DECIDE_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
# witness costs may exceed the radius by the decision procedure's own
# tolerance, and by twice that at its terminals (see ucactus.decision)
SLACK_TOLS = 2.0
# a radius this many tolerances below the optimum must be infeasible; the
# same margin solve() uses to detect a missed optimum
BELOW_TOLS = 10.0


def tolerance(eps: float, lam: float) -> float:
    return eps * max(1.0, abs(lam))


@dataclass(frozen=True)
class OpInput:
    """One timed operation: which dict to parse and what to ask of it."""

    data: dict
    instance_id: int  # position in the workload's pool of dicts
    lam: float | None = None  # radius for decide ops; None means solve
    frac: float | None = None  # where ``lam`` sits between the bracket ends


@dataclass
class OpResult:
    seconds: float
    instance: object
    answer: object


def run_op(op: OpInput) -> OpResult:
    """Parse a fresh instance and solve or decide it; only this is timed."""
    start = time.perf_counter()
    inst = ucactus.io.parse_instance(op.data)
    if op.lam is None:
        answer = ucactus.optimizer.solve(inst)
    else:
        answer = ucactus.decision.decide(inst, op.lam)
    return OpResult(time.perf_counter() - start, inst, answer)


def check_solve(inst, sol) -> str | None:
    """Why the solution fails its certificate, or None when it holds."""
    lam = sol.value
    tol = tolerance(inst.eps, lam)
    cost = objective(inst, *sol.centers)
    if not cost <= lam + SLACK_TOLS * tol:
        return f"centers cost {cost!r} above lambda* {lam!r}"
    worst = max(a.cost for a in sol.assignments)
    if not abs(worst - lam) <= SLACK_TOLS * tol:
        return f"largest assignment cost {worst!r} is not lambda* {lam!r}"
    if lam > 0.0:
        below = lam - BELOW_TOLS * tol
        if ucactus.decision.decide(inst, below).feasible:
            return f"radius {below!r} below lambda* {lam!r} is feasible"
    return None


def check_verdict(inst, lam: float, verdict) -> str | None:
    """Why a decide verdict fails its witness check, or None."""
    if not verdict.feasible:
        return None
    if verdict.centers is None:
        return "feasible verdict without witness centers"
    cost = objective(inst, *verdict.centers)
    if not cost <= lam + SLACK_TOLS * tolerance(inst.eps, lam):
        return f"witness cost {cost!r} above radius {lam!r}"
    return None


def monotone_failures(verdicts: dict[tuple[int, float], bool]) -> list[str]:
    """Instances whose feasibility does not grow with the radius fraction."""
    bad = []
    for inst_id in sorted({i for i, _ in verdicts}):
        seq = [verdicts[(inst_id, f)] for f in DECIDE_FRACTIONS if (inst_id, f) in verdicts]
        if any(a and not b for a, b in zip(seq, seq[1:])):
            bad.append(f"instance {inst_id}: feasibility {seq} not monotone in radius")
    return bad


def bracket(data: dict) -> tuple[float, float]:
    """``(L, U)`` around the optimum: the largest weighted median value and
    the one-center radius."""
    inst = ucactus.io.parse_instance(data)
    low = float((inst.weights * median_values(inst)).max())
    _, high = ucactus.decision.one_center(inst)
    return low, float(high)


@dataclass
class Workload:
    """A pool of instance dicts and the op each loop step makes of them.

    A decide op needs the bracket of its instance; it is computed when the
    instance is first used, outside the timed section, so a run can spread
    its ops over many instances without a long set-up."""

    name: str
    kind: str  # "solve" or "decide"
    pool: list[dict]
    warmup: OpInput
    # the highest common percentile that leaves at least ten of a run's
    # ops beyond it; fixed, so a faster program does not move it
    tail_percentile: float
    # op pairs of a traced run: few enough to fit in a run, and fixed so the
    # per-op counts of two traced runs repeat exactly
    trace_ops: int
    brackets: dict[int, tuple[float, float]] = field(default_factory=dict)

    def op(self, i: int) -> OpInput:
        if self.kind == "solve":
            j = i % len(self.pool)
            return OpInput(self.pool[j], j)
        j, step = divmod(i, len(DECIDE_FRACTIONS))
        j %= len(self.pool)
        if j not in self.brackets:
            self.brackets[j] = bracket(self.pool[j])
        low, high = self.brackets[j]
        frac = DECIDE_FRACTIONS[step]
        return OpInput(self.pool[j], j, low + frac * (high - low), frac)


def _rng(seed: int, *tags: object) -> random.Random:
    # a string seed is hashed deterministically (unlike hash() of a tuple)
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _rings(rng: random.Random, i: int) -> dict:
    # the point count cycles so that op times spread smoothly and every run
    # has the same mix; at one fixed size they split into two clusters (with
    # and without the optimizer's wide fallback search) and a run's median
    # jumps between them
    n_points = RING_POINTS[i % len(RING_POINTS)]
    return gen.rings(rng, n_rings=6, ring_size=60, n_points=n_points, n_locations=4)


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from ``seed``; this is its set-up."""
    if name == "tree-large":
        pool = [gen.tree_like(_rng(seed, name, i), TREE_SIZES[i % 4]) for i in range(TREE_POOL)]
        warm = OpInput(gen.tree_like(_rng(seed, "warm"), 200), -1)
        return Workload(name, "solve", pool, warm, 65.0, 8)
    small = gen.rings(_rng(seed, "warm"), n_rings=3, ring_size=20, n_points=20)
    if name == "rings-many-points":
        pool = [_rings(_rng(seed, name, i), i) for i in range(RINGS_POOL)]
        return Workload(name, "solve", pool, OpInput(small, -1), 80.0, 24)
    if name == "decide-cold":
        pool = [_rings(_rng(seed, name, i), i) for i in range(DECIDE_POOL)]
        low, high = bracket(small)
        warm = OpInput(small, -1, (low + high) / 2, 0.5)
        return Workload(name, "decide", pool, warm, 97.5, 200)
    raise ValueError(f"unknown workload {name!r}")


class Run:
    """Outcome of one measuring loop."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.verdicts: dict[tuple[int, float], bool] = {}


def check(workload: Workload, op: OpInput, result: OpResult, run: Run, i: int) -> None:
    """Check one op after its timed section; any problem is a failure."""
    try:
        if workload.kind == "solve":
            error = check_solve(result.instance, result.answer)
        else:
            error = check_verdict(result.instance, op.lam, result.answer)
            key = (op.instance_id, op.frac)
            feasible = result.answer.feasible
            if error is None and op.frac == 1.0 and not feasible:
                error = f"one-center radius {op.lam!r} infeasible for two centers"
            if error is None and run.verdicts.setdefault(key, feasible) != feasible:
                error = f"verdict at {key} changed between identical ops"
    except Exception as exc:  # a crashing check fails the op, not the run
        error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        run.failures.append(f"op {i}: {error}")


def measure(workload: Workload, seconds: float, tracer=None) -> Run:
    """Closed loop over the workload's ops for ``seconds`` of wall time.

    With a tracer, every op runs twice in a row on the same input: untraced
    with every original function in place, then traced; the loop also stops
    after ``workload.trace_ops`` such pairs.
    """
    run = Run()
    # one unmeasured, checked warm-up op on a throwaway instance
    run.attempted += 1
    try:
        check(workload, workload.warmup, run_op(workload.warmup), run, -1)
    except Exception as exc:
        run.failures.append(f"warm-up raised {type(exc).__name__}: {exc}")
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        if tracer is not None and i == workload.trace_ops:
            break
        try:
            op = workload.op(i)  # a decide op's bracket is found here
        except Exception as exc:
            run.attempted += 1
            run.failures.append(f"op {i}: bracket raised {type(exc).__name__}: {exc}")
            i += 1
            continue
        for traced in (False, True) if tracer is not None else (False,):
            run.attempted += 1
            try:
                if traced:
                    tracer.op = i
                    tracer.install()
                    try:
                        with tracer.span("op"):
                            result = run_op(op)
                    finally:
                        tracer.uninstall()
                else:
                    if not spans.originals_in_place():
                        raise RuntimeError("traced wrappers left installed")
                    result = run_op(op)
            except Exception as exc:  # an op that raises is a failed op
                run.failures.append(f"op {i}: raised {type(exc).__name__}: {exc}")
                continue
            (run.traced_times if traced else run.times).append(result.seconds)
            check(workload, op, result, run, i)
        if tracer is not None:
            tracer.fold()
        i += 1
    if workload.kind == "decide":
        run.failures.extend(monotone_failures(run.verdicts))
    return run


WORKLOADS = ("tree-large", "rings-many-points", "decide-cold")
# pools hold more instances than one run uses, so no dict repeats
TREE_POOL = 40
RINGS_POOL = 120
DECIDE_POOL = 200
