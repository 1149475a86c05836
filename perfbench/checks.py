"""Property checks on served plans, computed apart from ``repro.core.partition``.

Each check takes a decoded response body (the JSON a client receives)
and the models the server plans against, and raises :class:`CheckFailed`
when the property does not hold.  Only the models' public ``time`` is
used, never the partitioners.  :func:`self_test` feeds every check a
deliberately broken copy of a real plan and reports any check that
failed to notice.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Relative tolerance for recomputed makespans and energies: sums over at
#: most a few hundred float64 terms, in a possibly different order.
REL_TOL = 1e-9


class CheckFailed(Exception):
    """A served plan broke a property it must hold."""


class Unbalanced(CheckFailed):
    """A plan failed the balance certificate: one unit moved would help."""


def shares(plan: Dict[str, Any], ranks: int, total: int) -> None:
    """Non-negative integer shares, one per device, summing to the total."""
    sizes = plan.get("sizes")
    if not isinstance(sizes, list) or len(sizes) != ranks:
        raise CheckFailed(f"expected {ranks} shares, got {sizes!r:.80}")
    for d in sizes:
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise CheckFailed(f"share {d!r} is not a non-negative integer")
    if sum(sizes) != total:
        raise CheckFailed(f"shares sum to {sum(sizes)}, not {total}")


def balance(sizes: Sequence[int], models: Sequence[Any]) -> None:
    """``max_i t_i(d_i - 1) <= min_j t_j(d_j + 1)``: no one-unit move helps."""
    worst_without = max(
        models[i].time(float(d - 1)) for i, d in enumerate(sizes) if d >= 1
    )
    best_with = min(models[j].time(float(d + 1)) for j, d in enumerate(sizes))
    if worst_without > best_with:
        raise Unbalanced(
            f"unbalanced: max t_i(d_i-1) = {worst_without!r} > "
            f"min t_j(d_j+1) = {best_with!r}"
        )


def predicted_times(plan: Dict[str, Any], models: Sequence[Any]) -> None:
    """The plan's per-rank times equal the models' predictions."""
    for i, (d, t) in enumerate(zip(plan["sizes"], plan["times"])):
        want = models[i].time(float(d)) if d > 0 else 0.0
        if float(t) != want:
            raise CheckFailed(f"rank {i}: time {t} but the model predicts {want!r}")


def time_plan(plan: Dict[str, Any], total: int, models: Sequence[Any]) -> None:
    """Every property of a time plan (the balance certificate last)."""
    shares(plan, len(models), total)
    predicted_times(plan, models)
    balance(plan["sizes"], models)


def _recompute(point: Dict[str, Any], models: Sequence[Any],
               energy_models: Sequence[Any]) -> Tuple[float, float]:
    sizes = point["sizes"]
    times = [models[i].time(float(d)) if d > 0 else 0.0 for i, d in enumerate(sizes)]
    joules = [energy_models[i].time(float(d)) if d > 0 else 0.0
              for i, d in enumerate(sizes)]
    return max(times), math.fsum(joules)


def front_values(plan: Dict[str, Any], total: int, models: Sequence[Any],
                 energy_models: Sequence[Any]) -> None:
    """Each point's shares are valid and its makespan and energy recompute."""
    for k, point in enumerate(plan["front"]):
        shares(point, len(models), total)
        t, e = _recompute(point, models, energy_models)
        if not (math.isclose(float(point["time"]), t, rel_tol=REL_TOL)
                and math.isclose(float(point["energy"]), e, rel_tol=REL_TOL)):
            raise CheckFailed(
                f"front point {k} reports ({point['time']}, {point['energy']}) "
                f"but the models give ({t!r}, {e!r})"
            )


def front_nondominated(plan: Dict[str, Any]) -> None:
    """No front point dominates another."""
    pts = [(float(p["time"]), float(p["energy"])) for p in plan["front"]]
    for a, (ta, ea) in enumerate(pts):
        for b, (tb, eb) in enumerate(pts):
            if a != b and ta <= tb and ea <= eb and (ta < tb or ea < eb):
                raise CheckFailed(f"front point {a} dominates point {b}")


def front_endpoint(plan: Dict[str, Any], models: Sequence[Any]) -> None:
    """The fastest front point passes the balance certificate."""
    fastest = min(plan["front"], key=lambda p: float(p["time"]))
    balance(fastest["sizes"], models)


def front_serves_member(plan: Dict[str, Any]) -> None:
    """The served distribution is one of the front's points."""
    if not any(p["sizes"] == plan["sizes"] for p in plan["front"]):
        raise CheckFailed("the served plan is not on its front")


def pareto_plan(plan: Dict[str, Any], total: int, models: Sequence[Any],
                energy_models: Sequence[Any]) -> None:
    """Every property of a Pareto plan (the balance certificate last)."""
    shares(plan, len(models), total)
    if plan.get("kind") != "pareto" or not plan.get("front"):
        raise CheckFailed("a pareto request was answered without a front")
    front_values(plan, total, models, energy_models)
    front_nondominated(plan)
    front_serves_member(plan)
    predicted_times(plan, models)
    front_endpoint(plan, models)


def same_plan(hit: Dict[str, Any], primed: Dict[str, Any]) -> None:
    """A cache hit equals the plan its priming solve returned, bar ``cached``."""
    a = {k: v for k, v in hit.items() if k != "cached"}
    b = {k: v for k, v in primed.items() if k != "cached"}
    if a != b:
        changed = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        raise CheckFailed(f"hit differs from its primed plan in {changed}")


# -- self-test -----------------------------------------------------------------


def _shift(sizes: List[int], models: Sequence[Any]) -> List[int]:
    """Move half of the fastest-finishing rank's share onto the slowest rank."""
    times = [m.time(float(d)) for m, d in zip(models, sizes)]
    src = max(range(len(sizes)), key=lambda i: sizes[i])
    dst = max(range(len(sizes)), key=lambda i: (i != src, times[i]))
    out = list(sizes)
    moved = max(1, out[src] // 2)
    out[src] -= moved
    out[dst] += moved
    return out


def self_test(time_plan_body: Dict[str, Any], pareto_body: Dict[str, Any],
              models: Sequence[Any], energy_models: Sequence[Any]) -> Tuple[int, List[str]]:
    """Break a copy of real plans once per check.

    Returns the number of broken plans and the names of the checks that
    let theirs pass.
    """
    total = time_plan_body["total"]
    ptotal = pareto_body["total"]

    def broken(body: Dict[str, Any], edit: Callable[[Dict[str, Any]], None]) -> Dict[str, Any]:
        out = copy.deepcopy(body)
        edit(out)
        return out

    def off_by_one(p):
        p["sizes"][0] += 1

    def negative(p):
        p["sizes"][0], p["sizes"][1] = -1, p["sizes"][1] + p["sizes"][0] + 1

    def short(p):
        p["sizes"].pop()

    def unbalanced(p):
        p["sizes"] = _shift(p["sizes"], models)

    def stale_time(p):
        p["times"][0] = repr(float(p["times"][0]) * 1.01)

    def wrong_energy(p):
        p["front"][-1]["energy"] = repr(float(p["front"][-1]["energy"]) * 1.01)

    def dominated(p):
        worse = copy.deepcopy(p["front"][0])
        worse["time"] = repr(float(worse["time"]) * 1.5)
        worse["energy"] = repr(float(worse["energy"]) * 1.5)
        p["front"].append(worse)

    def bad_endpoint(p):
        p["front"][0]["sizes"] = _shift(p["front"][0]["sizes"], models)

    def off_front(p):
        p["sizes"] = _shift(p["sizes"], models)

    cases = [
        ("shares: sum", lambda: shares(broken(time_plan_body, off_by_one), len(models), total)),
        ("shares: negative", lambda: shares(broken(time_plan_body, negative), len(models), total)),
        ("shares: count", lambda: shares(broken(time_plan_body, short), len(models), total)),
        ("balance", lambda: balance(broken(time_plan_body, unbalanced)["sizes"], models)),
        ("predicted times", lambda: predicted_times(broken(time_plan_body, stale_time), models)),
        ("front values", lambda: front_values(broken(pareto_body, wrong_energy), ptotal, models, energy_models)),
        ("front dominance", lambda: front_nondominated(broken(pareto_body, dominated))),
        ("front endpoint", lambda: front_endpoint(broken(pareto_body, bad_endpoint), models)),
        ("front membership", lambda: front_serves_member(broken(pareto_body, off_front))),
        ("same plan", lambda: same_plan(broken(time_plan_body, unbalanced), time_plan_body)),
    ]
    missed = []
    for name, run in cases:
        try:
            run()
        except CheckFailed:
            continue
        missed.append(name)
    # The unbroken plans must pass, or the self-test proves nothing.
    time_plan(time_plan_body, total, models)
    pareto_plan(pareto_body, ptotal, models, energy_models)
    return len(cases), missed
