"""Answer checker: every outcome the program returns is checked against
quantities the benchmark computes itself, from the instance alone.

For each answer:
  * the outcome is ok;
  * periods rise strictly and latencies fall strictly along the front;
  * every latency is >= L* and the smallest equals L* to 1e-9 relative;
  * every period is >= the instance's period lower bound;
  * on exact-eligible instances the front equals the Pareto front that
    perfbench_oracle enumerates over all interval mappings (1e-9 relative);
  * where a reference answer is given (the same request solved with
    --no-cache --share-subresults off), the front is identical to it.

`self_test` feeds the checker correct answers and perturbed ones (a nudged
latency, a dropped point, a failed outcome, a reordered front, a front that
differs from its reference) and fails unless every perturbation is caught.

    python3 perfbench/check.py --self-test
"""

import math
import os
import random
import subprocess
import sys

import instances

REL = 1e-9
HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench_oracle")


def near(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def oracle_fronts(insts, oracle=ORACLE):
    """Reference fronts [(period, latency), ...] for each instance."""
    if not insts:
        return []
    lines = []
    for inst in insts:
        values = [inst.bandwidth] + inst.work + inst.comm + inst.speeds
        lines.append(f"{inst.stages} {inst.processors} " + " ".join(repr(v) for v in values))
    out = subprocess.run([oracle], input="\n".join(lines) + "\n", capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    if len(out) != len(insts):
        raise RuntimeError(f"oracle answered {len(out)} of {len(insts)} instances")
    fronts = []
    for line in out:
        values = [float(v) for v in line.split()[1:]]
        fronts.append(list(zip(values[0::2], values[1::2])))
    return fronts


def front_problems(inst, outcome, exact=None, reference=None):
    """Problems with one answer; empty when it is correct."""
    if not outcome.get("ok"):
        return [f"outcome not ok: {outcome.get('error')}"]
    front = [(p["period"], p["latency"]) for p in outcome.get("front", [])]
    if not front:
        return ["empty front"]
    problems = []
    for (p0, l0), (p1, l1) in zip(front, front[1:]):
        if not (p1 > p0 and l1 < l0):
            problems.append(f"front not strictly monotone at period {p1!r}")
            break
    # The smallest latency equals L*, so none lies below it.
    l_star = inst.latency_optimum()
    if not near(min(l for _, l in front), l_star):
        problems.append(f"smallest latency {min(l for _, l in front)!r} is not L* {l_star!r}")
    lower = inst.period_lower_bound()
    if any(p < lower and not near(p, lower) for p, _ in front):
        problems.append(f"period below the lower bound {lower!r}")
    if exact is not None:
        if len(exact) != len(front) or not all(
                near(a, c) and near(b, d) for (a, b), (c, d) in zip(front, exact)):
            problems.append(f"front ({len(front)} points) differs from the enumerated "
                            f"Pareto front ({len(exact)} points)")
    if reference is not None and reference_key(outcome) != reference_key(reference):
        problems.append("front differs from the uncached, unshared solve of the same request")
    return problems


def reference_key(outcome):
    return (outcome.get("ok"), outcome.get("exact_used"),
            tuple((p["period"], p["latency"], p.get("intervals")) for p in outcome.get("front", [])))


def check(items, oracle=ORACLE):
    """items: [(instance, outcome, reference-or-None)]. Returns the problems found."""
    eligible = {}
    for inst, _, _ in items:
        if inst.exact_eligible():
            eligible.setdefault(id(inst), inst)
    fronts = dict(zip(eligible, oracle_fronts(list(eligible.values()), oracle)))
    problems = []
    for k, (inst, outcome, reference) in enumerate(items):
        for problem in front_problems(inst, outcome, fronts.get(id(inst)), reference):
            problems.append(f"answer {k}: {problem}")
    return problems


def hypervolume(inst, outcome):
    """Share of the instance's box [P_lb, 1.1 P_1] x [L*, 1.1 L_ub] that the front dominates.

    P_lb is the period lower bound and P_1 the period of the all-on-the-fastest
    mapping, which equals its latency L*; no Pareto point has a larger period.
    L_ub is a latency no mapping exceeds. So every front point lies in the box
    and the value is in (0, 1).
    """
    p_lo, p_hi = inst.period_lower_bound(), 1.1 * inst.latency_optimum()
    l_lo, l_hi = inst.latency_optimum(), 1.1 * inst.latency_upper_bound()
    front = sorted((p["period"], p["latency"]) for p in outcome["front"])
    area = 0.0
    for k, (p, l) in enumerate(front):
        right = front[k + 1][0] if k + 1 < len(front) else p_hi
        area += (min(right, p_hi) - max(p, p_lo)) * (l_hi - max(l, l_lo))
    return area / ((p_hi - p_lo) * (l_hi - l_lo))


def self_test(oracle=ORACLE):
    """Problems with the checker itself; empty when it accepts correct answers
    and rejects every perturbed one."""
    rng = random.Random("self-test")
    insts = []
    while len(insts) < 3:
        inst = instances.draw(rng, stages=rng.randint(4, 8), processors=rng.randint(3, 6))
        if inst.exact_eligible():
            insts.append(inst)
    answers = []
    for inst, front in zip(insts, oracle_fronts(insts, oracle)):
        answers.append({"ok": True, "exact_used": True,
                        "front": [{"period": p, "latency": l} for p, l in front]})
    failures = []
    good = check([(i, a, a) for i, a in zip(insts, answers)], oracle)
    if good:
        failures.append(f"correct answers rejected: {good[0]}")

    def perturbed(name, change, with_reference=False):
        inst, answer = insts[0], answers[0]
        bad = {**answer, "front": [dict(p) for p in answer["front"]]}
        change(bad)
        if not check([(inst, bad, answer if with_reference else None)], oracle):
            failures.append(f"perturbation not caught: {name}")

    def nudge_latency(a):
        a["front"][-1]["latency"] *= 1 + 1e-6

    def drop_point(a):
        del a["front"][len(a["front"]) // 2]

    def fail_outcome(a):
        a["ok"] = False

    def reverse(a):
        a["front"].reverse()

    def nudge_period_past_reference(a):
        a["front"][0]["period"] = math.nextafter(a["front"][0]["period"], math.inf)

    if len(answers[0]["front"]) < 2:
        failures.append("self-test instance has a one-point front")
    else:
        perturbed("nudged latency", nudge_latency)
        perturbed("dropped front point", drop_point)
        perturbed("failed outcome", fail_outcome)
        perturbed("reversed front", reverse)
        perturbed("answer differs from its reference", nudge_period_past_reference,
                  with_reference=True)
    return failures


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        sys.exit("usage: check.py --self-test   (run after the benchmark has built)")
    failed = self_test()
    for failure in failed:
        print(failure)
    print("checker self-test:", "FAILED" if failed else "ok")
    sys.exit(1 if failed else 0)
