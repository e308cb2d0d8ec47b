"""Command line interface.

Exit codes: 0 on success; 2 for usage errors, unreadable or malformed
files, and bad parameters; 3 for an internal invariant failure or a
``verify`` run with mismatches.  Decision results are reported in the JSON
output, never through the exit code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from ucactus.decision import decide, one_center
from ucactus.errors import InternalInvariantError, UcactusError, ValidationError
from ucactus.io import (
    instance_to_dict,
    place_to_json,
    random_instance,
    read_instance,
    write_instance,
)
from ucactus.optimizer import solve
from ucactus.oracle import oracle_solve
from ucactus.reduction import reduce_instance
from ucactus.uncertain import build_instance, median, objective


def _reload_eps(inst, eps):
    if eps is None:
        return inst
    return build_instance(inst.graph, inst.points, eps)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_solve(args) -> int:
    inst = _reload_eps(read_instance(args.file), args.eps)
    sol = solve(inst)
    g = inst.graph
    out = {
        "lambda_star": float(f"{sol.value:.12g}"),
        "centers": [place_to_json(g, c) for c in sol.centers],
        "assignments": [
            {"id": a.label, "center": a.center, "cost": float(f"{a.cost:.12g}")}
            for a in sol.assignments
        ],
    }
    if args.verify:
        attained = objective(inst, *sol.centers)
        out["verified"] = bool(attained <= sol.value + 1e-9 * max(1.0, sol.value))
    _emit(out)
    return 0


def _cmd_decide(args) -> int:
    inst = _reload_eps(read_instance(args.file), args.eps)
    v = decide(inst, args.lam)
    g = inst.graph
    _emit(
        {
            "lambda": args.lam,
            "feasible": v.feasible,
            "centers": None
            if v.centers is None
            else [place_to_json(g, c) for c in v.centers],
            "probes": v.probes,
        }
    )
    return 0


def _cmd_one_center(args) -> int:
    inst = _reload_eps(read_instance(args.file), args.eps)
    center, value = one_center(inst)
    _emit(
        {
            "value": float(f"{value:.12g}"),
            "center": place_to_json(inst.graph, center),
        }
    )
    return 0


def _cmd_median(args) -> int:
    inst = read_instance(args.file)
    for k, p in enumerate(inst.points):
        if p.label == args.point:
            where, value = median(inst, k)
            _emit(
                {
                    "id": p.label,
                    "value": float(f"{value:.12g}"),
                    "location": place_to_json(inst.graph, where),
                }
            )
            return 0
    raise ValidationError(f"no uncertain point with id {args.point!r}")


def _cmd_reduce(args) -> int:
    inst = read_instance(args.file)
    red = reduce_instance(inst)
    if args.output:
        write_instance(red.reduced, args.output)
        _emit(
            {
                "identity": red.identity,
                "vertices": [inst.graph.vertex_count, red.reduced.graph.vertex_count],
                "edges": [len(inst.graph.edges), len(red.reduced.graph.edges)],
            }
        )
    else:
        _emit(instance_to_dict(red.reduced))
    return 0


def _cmd_gen(args) -> int:
    inst = random_instance(
        args.seed,
        n_vertices=args.vertices,
        n_cycles=args.cycles,
        n_points=args.points,
        n_locations=args.locations,
        prob_denominator=args.denominator,
        edge_locations=args.edge_locations,
    )
    if args.output:
        write_instance(inst, args.output)
    else:
        _emit(instance_to_dict(inst))
    return 0


def _cmd_verify(args) -> int:
    mismatches = []
    for t in range(args.trials):
        rng = random.Random(args.seed * 100003 + t)
        n_vertices = rng.randint(4, args.max_vertices)
        inst = random_instance(
            rng.randrange(2**32),
            n_vertices=n_vertices,
            n_cycles=rng.randint(0, min(2, (n_vertices - 1) // 2)),
            n_points=rng.randint(1, 4),
            n_locations=rng.randint(1, 3),
        )
        got = solve(inst).value
        want, _ = oracle_solve(inst)
        if abs(got - want) > 1e-6 * max(1.0, want):
            mismatches.append({"trial": t, "got": got, "expected": want})
    _emit({"trials": args.trials, "mismatches": mismatches})
    return 3 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="ucactus",
        description="Two-center problems for uncertain points on cactus networks.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="instance JSON file")
        p.add_argument("--eps", type=float, default=None, help="comparison tolerance")

    p = sub.add_parser("solve", help="minimise the maximum weighted expected distance")
    common(p)
    p.add_argument("--verify", action="store_true", help="re-check the witnesses")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("decide", help="test whether a covering radius is achievable")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("one-center", help="best single center")
    common(p)
    p.set_defaults(fn=_cmd_one_center)

    p = sub.add_parser("median", help="1-median of one uncertain point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="uncertain point id")
    p.set_defaults(fn=_cmd_median)

    p = sub.add_parser("reduce", help="rewrite as an equivalent vertex-constrained instance")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=12)
    p.add_argument("--cycles", type=int, default=2)
    p.add_argument("-n", "--points", type=int, default=4)
    p.add_argument("-m", "--locations", type=int, default=3)
    p.add_argument("--denominator", type=int, default=8)
    p.add_argument("--edge-locations", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="cross-check the solver against the oracle")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=10, choices=range(4, 21))
    p.set_defaults(fn=_cmd_verify)

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except InternalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UcactusError as exc:
        # bad files, malformed graphs, out-of-range parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
