"""
The benchmark's three workloads. Each has a parameter set, an input
generator driven by the seed, and a job: a fixed list of calls into the
library or the CLI, made one after another (a closed loop with one
client). Each step runs inside a span; its results are checked against
``oracles`` after the span has closed, so checking is not timed.

Why these three:

- ``sweep`` is the brute-force oracle path. perms, machine and words do
  almost all the work and there is no big-integer arithmetic, so a
  change to counting formulas or growth must leave it unchanged.
- ``asymptotics`` is the exact big-integer path. counting formulas and
  growth do all the work; machine and words do none. It mixes a few
  huge bound evaluations with thousands of small refined counts, so a
  change that speeds one up at the other's cost shows.
- ``session`` runs the CLI as a reproduction does. It is the only
  workload that exercises verify and cli, and it runs the library
  layers at small n with the repeated exhaustive enumeration that the
  verify checks do.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

import oracles
import stackwords as sw
from spans import Checker, Raised, Tracer, each, instrument

PARAMS = {
    "sweep": {
        "full": {"n": 8, "placements_n": 7, "series_perms": 200, "series_length": 60, "series_stacks": [1, 2, 3, 4]},
        "small": {"n": 6, "placements_n": 5, "series_perms": 16, "series_length": 16, "series_stacks": [1, 2, 3, 4]},
    },
    "asymptotics": {
        "full": {
            "bound_n": [500, 1000, 2000],
            "rows_max_n": 200,
            "summand_n": [200, 500, 1000, 2000],
            "bound_root_n": [10, 50, 200],
            "tolerance": 1e-10,
        },
        "small": {
            "bound_n": [50, 100, 200],
            "rows_max_n": 40,
            "summand_n": [50, 100, 200],
            "bound_root_n": [10, 50],
            "tolerance": 1e-10,
        },
    },
    "session": {
        "full": {"verify_level": "full", "count_n": 8, "bound_n": 1000, "perms": 24, "perm_length": 12},
        "small": {"verify_level": "quick", "count_n": 6, "bound_n": 100, "perms": 4, "perm_length": 8},
    },
}


def seeded_permutations(seed: int, count: int, length: int) -> list[tuple[int, ...]]:
    """Alternately a uniform permutation and a random 231-avoider (sortable by one stack)."""
    rng = random.Random(seed)
    perms = []
    for i in range(count):
        if i % 2 == 0:
            p = list(range(1, length + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
            continue
        # a random push/pop sequence on one stack; output order names the values
        stack: list[int] = []
        value: dict[int, int] = {}
        pushed = emitted = 0
        while emitted < length:
            if pushed < length and (not stack or rng.random() < 0.5):
                stack.append(pushed)
                pushed += 1
            else:
                emitted += 1
                value[stack.pop()] = emitted
        perms.append(tuple(value[j] for j in range(length)))
    return perms


def _ok(result) -> bool:
    return not isinstance(result, Raised)


def _compare(ck: Checker, what: str, args: list, results: list, expected: list) -> None:
    ck.attempt(len(args))
    for a, r, e in zip(args, results, expected):
        ck.expect(r == e, what, a, r, e)


def _enumerate(tr: Tracer, ck: Checker, n: int) -> list[tuple[int, ...]]:
    """All permutations of length n from the library, checked; later steps use the reference list."""
    expected = list(itertools.permutations(range(1, n + 1)))
    perms = tr.call("perms.enumerate", lambda: list(sw.all_permutations(n)))
    ck.attempt(1)
    ck.expect(perms == expected, f"all_permutations({n}) is not the permutations in lexicographic order")
    return expected


# ---------------------------------------------------------------- sweep


def sweep_inputs(seed: int, prm: dict) -> dict:
    return {"series": seeded_permutations(seed, prm["series_perms"], prm["series_length"])}


def sweep_job(inputs: dict, prm: dict, tr: Tracer, ck: Checker) -> None:
    n = prm["n"]
    perms = _enumerate(tr, ck, n)
    images = {1: [oracles.stack_sort(p) for p in perms]}
    for t in (2, 3):
        images[t] = [oracles.stack_sort(q) for q in images[t - 1]]
    sortable = {t: [oracles.is_identity(q) for q in images[t]] for t in images}
    published = {1: oracles.catalan(n), 2: oracles.two_stack_count(n), 3: oracles.THREE_STACK_COUNTS[n]}
    ck.attempt(3)  # the reference itself against the published counts
    for t in (1, 2, 3):
        ck.expect(sum(sortable[t]) == published[t], f"reference sort count for t={t}", sum(sortable[t]))

    with tr.span("machine.stack_sort", len(perms)):
        result = each(sw.stack_sort, perms)
    _compare(ck, "stack_sort", perms, result, images[1])

    for t in (1, 2, 3):
        with tr.span("machine.sortable", len(perms)):
            result = each(lambda p, t=t: sw.is_t_stack_sortable(p, t), perms)
        _compare(ck, f"is_t_stack_sortable t={t}", perms, result, sortable[t])
        tr.counts["machine.sortable_true"] += sum(v is True for v in result)

    with tr.span("perms.pattern", len(perms)):
        result = each(lambda p: sw.contains_pattern(p, (2, 3, 1)), perms)
    # Knuth: the 231-avoiders are exactly the 1-stack sortable permutations
    _compare(ck, "contains_pattern 231", perms, result, [not s for s in sortable[1]])

    with tr.span("machine.series", len(perms)):
        words = each(lambda p: sw.encode(p, 3), perms)
    ck.attempt(len(perms))
    for p, w, image in zip(perms, words, images[3]):
        ck.expect(lambda: oracles.replay(p, w.letters, 3) == image, "encode t=3 is not a trace to s^3(p)", p, w)
    good = [w for w in words if _ok(w)]
    tr.counts["machine.letters"] += sum(len(w.letters) for w in good)

    with tr.span("words.scan", len(good)):
        result = each(sw.forbidden_factor_violations, good)
    _compare(ck, "forbidden_factor_violations", good, result, [[] for _ in good])
    tr.counts["words.violations"] += sum(len(h) for h in result if _ok(h))

    with tr.span("words.project", len(good)):
        result = each(sw.image_word, good)
    ck.attempt(len(good))
    for w, v in zip(good, result):
        ck.expect(lambda: (v.letters, v.alphabet) == (w.letters.replace("A", ""), "BCD"), "image_word", w, v)

    with tr.span("words.decode", len(words)):
        result = each(sw.decode, words)
    # the codec round-trips exactly when p is 3-stack sortable
    roundtrips = [q == p if _ok(q) else q for p, q in zip(perms, result)]
    _compare(ck, "decode(encode(p, 3)) == p", perms, roundtrips, sortable[3])

    for t in (1, 2, 3):
        count = tr.call("counting.brute", sw.brute_force_count, n, t)
        tr.counts["counting.brute_perms"] += math.factorial(n)
        ck.attempt(1)
        ck.expect(count == published[t], f"brute_force_count({n}, {t})", count)
    tallies = tr.call("counting.image_descents", sw.brute_force_image_descent_counts, n)
    tr.counts["counting.brute_perms"] += math.factorial(n)
    expected: dict[int, int] = {}
    for image, ok in zip(images[1], sortable[3]):
        if ok:
            d = oracles.descents(image)
            expected[d] = expected.get(d, 0) + 1
    ck.attempt(1)
    ck.expect(tallies == expected, f"brute_force_image_descent_counts({n})", tallies, expected)

    _placements(tr, ck, prm["placements_n"])

    series = inputs["series"]
    for t in prm["series_stacks"]:
        with tr.span("machine.series", len(series)):
            runs = each(lambda p, t=t: sw.run_series_machine(p, t), series)
        with tr.span("machine.trace", len(series)):
            traced = each(lambda p, t=t: sw.run_series_machine(p, t, record_steps=True), series)
        with tr.span("words.decode", len(series)):
            decoded = each(lambda r: sw.decode(r.word), runs)
        ck.attempt(3 * len(series))
        for p, run, steps, q in zip(series, runs, traced, decoded):
            image = oracles.iterate(p, t)
            # machine output equals the iterated sort, and the word carries p there
            ck.expect(
                lambda: run.output == image == oracles.replay(p, run.word.letters, t),
                f"run_series_machine t={t}", p, run,
            )
            ck.expect(
                lambda: steps.word == run.word
                and len(steps.steps) == (t + 1) * len(p)
                and steps.steps[-1].output == image,
                f"run_series_machine t={t} record_steps", p, steps,
            )
            ck.expect(_ok(q) and (q == p) == oracles.is_identity(image), f"decode of the t={t} word == p", p, q)
            tr.counts["machine.letters"] += sum(len(r.word.letters) for r in (run, steps) if _ok(r))


def _placements(tr: Tracer, ck: Checker, n: int) -> None:
    """Candidate A-reinsertions for every projection of a 3-stack trace at length n."""
    perms = _enumerate(tr, ck, n)
    reference = [oracles.is_identity(oracles.iterate(p, 3)) for p in perms]
    ck.attempt(1)
    ck.expect(sum(reference) == oracles.THREE_STACK_COUNTS[n], f"reference 3-stack count at n={n}", sum(reference))
    with tr.span("machine.sortable", len(perms)):
        result = each(lambda p: sw.is_t_stack_sortable(p, 3), perms)
    _compare(ck, "is_t_stack_sortable t=3", perms, result, reference)
    tr.counts["machine.sortable_true"] += sum(v is True for v in result)

    sortable = [p for p, ok in zip(perms, reference) if ok]
    with tr.span("machine.series", len(sortable)):
        traces = each(lambda p: sw.encode(p, 3), sortable)
    ck.attempt(len(sortable))
    identity = tuple(range(1, n + 1))
    for p, w in zip(sortable, traces):
        ck.expect(lambda: oracles.replay(p, w.letters, 3) == identity, "encode t=3 of a sortable p", p, w)
    traces = [w for w in traces if _ok(w)]
    tr.counts["machine.letters"] += sum(len(w.letters) for w in traces)

    with tr.span("words.project", len(traces)):
        projected = each(sw.image_word, traces)
    ck.attempt(len(traces))
    members: dict[str, set[str]] = {}
    for w, v in zip(traces, projected):
        letters = w.letters.replace("A", "")
        ck.expect(lambda: v.letters == letters, "image_word", w, v)
        members.setdefault(letters, set()).add(w.letters)

    projections = sorted(members)
    with tr.span("words.placements", len(projections)):
        streams = each(lambda v: list(sw.enumerate_a_placements(sw.StackWord(v, "BCD"), n)), projections)
    ck.attempt(len(projections))
    candidates: list[tuple[object, bool]] = []
    for v, stream in zip(projections, streams):
        k = oracles.factor_count(v, "BB") + 1
        size = math.comb(2 * n - 2 * k, n - 1)
        letters = {w.letters for w in stream} if _ok(stream) else set()
        # C(2n-2k, n-1) distinct candidates, and every trace is among them
        if ck.expect(_ok(stream) and len(stream) == len(letters) == size and members[v] <= letters, "enumerate_a_placements", v, size):
            candidates.extend((w, w.letters in members[v]) for w in stream)
    tr.counts["words.candidates"] += len(candidates)

    with tr.span("machine.genuine", len(candidates)):
        result = each(sw.is_genuine_word, [w for w, _ in candidates])
    # a candidate is genuine iff it is the trace of a 3-stack sortable permutation
    _compare(ck, "is_genuine_word", [w for w, _ in candidates], result, [m for _, m in candidates])
    tr.counts["words.genuine"] += sum(g is True for g in result)


# ---------------------------------------------------------- asymptotics


def asymptotics_inputs(seed: int, prm: dict) -> dict:
    # exact formulas at fixed sizes: nothing depends on the seed
    return {}


def asymptotics_job(inputs: dict, prm: dict, tr: Tracer, ck: Checker) -> None:
    for n in prm["bound_n"]:
        value = tr.call("counting.bound", sw.three_stack_bound, n)
        ck.attempt(1)
        if ck.expect(lambda: oracles.digest(value) == oracles.BOUND_DIGESTS[n], f"three_stack_bound({n}) digest"):
            tr.counts["counting.bound_terms"] += (n + 1) // 2
            tr.counts["counting.bound_bits"] += value.bit_length()

    sizes = range(1, prm["rows_max_n"] + 1)
    with tr.span("counting.refine", sum(sizes)):
        rows = [each(lambda d, n=n: sw.two_stack_count_by_descents(n, d), range(n)) for n in sizes]
    for n, row in zip(sizes, rows):
        ck.attempt(n)
        # each row sums to the 2-stack count and is symmetric
        ck.expect(lambda: sum(row) == oracles.two_stack_count(n) and row == row[::-1], f"refined row n={n}", row)

    x = tr.call("growth.critical_point", sw.critical_point)
    ck.attempt(1)
    ck.expect(lambda: abs(x - oracles.X_STAR) < 1e-12, "critical_point()", x)
    for n in prm["summand_n"]:
        root = tr.call("growth.summand_root", sw.summand_nth_root, n, oracles.X_STAR)
        expected = oracles.summand_nth_root(n, oracles.X_STAR)
        ck.attempt(1)
        ck.expect(lambda: math.isclose(root, expected, rel_tol=1e-9), f"summand_nth_root({n})", root, expected)

    for n in prm["bound_root_n"]:
        root = tr.call("growth.bound_root", sw.bound_nth_root, n)
        expected = math.exp(math.log(oracles.bound(n)) / n)
        ck.attempt(1)
        ck.expect(lambda: math.isclose(root, expected, rel_tol=1e-12), f"bound_nth_root({n})", root, expected)

    for method in ("golden_section", "derivative_bisection"):
        found = tr.call("growth.maximize", sw.maximize_growth_rate, prm["tolerance"], method)
        ck.attempt(1)
        if ck.expect(
            lambda: abs(found.x_star - oracles.X_STAR) < oracles.X_TOLERANCE
            and abs(found.g_star - oracles.G_STAR) < oracles.G_TOLERANCE,
            f"maximize_growth_rate {method}", found,
        ):
            tr.counts["growth.maximize_iterations"] += found.iterations


# -------------------------------------------------------------- session


def session_inputs(seed: int, prm: dict) -> dict:
    from stackwords import cli  # noqa: F401  (CLI start-up is part of set-up)

    perms = seeded_permutations(seed, prm["perms"], prm["perm_length"])
    return {"perms": perms, "args": [",".join(map(str, p)) for p in perms]}


def _parse(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in (text.split(",") if "," in text else text))


def _cli(tr: Tracer, name: str, argv: list[str]) -> tuple[int | None, dict | None]:
    """One in-process CLI run with --format json; returns (exit code, parsed stdout)."""
    from stackwords import cli

    out, err = io.StringIO(), io.StringIO()
    with tr.span(name), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--format", "json", *argv])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:  # a traceback is a failed operation
            code = None
    text = out.getvalue()
    tr.counts["cli.stdout_bytes"] += len(text.encode())
    try:
        return code, json.loads(text)
    except ValueError:
        return code, None


def session_job(inputs: dict, prm: dict, tr: Tracer, ck: Checker) -> None:
    with instrument(tr) if tr.record else contextlib.nullcontext():
        _session_calls(inputs, prm, tr, ck)


def _session_calls(inputs: dict, prm: dict, tr: Tracer, ck: Checker) -> None:
    perms, args = inputs["perms"], inputs["args"]
    ck.attempt(4 + 3 * len(perms))
    # JSON fields are checked, not bytes, so added fields are not failures

    code, out = _cli(tr, "cli.verify", ["verify", "--level", prm["verify_level"]])
    checks = out.get("checks", []) if isinstance(out, dict) else []
    passed = sum(isinstance(c, dict) and c.get("passed") is True for c in checks)
    tr.counts["verify.passed"] += passed
    ck.expect(lambda: code == 0 and out["passed"] is True and 0 < passed == len(checks), "verify", code, out)

    code, out = _cli(tr, "cli.asymptote", ["asymptote"])

    def asymptote_ok() -> bool:
        roots = [row["bound_nth_root"] for row in out["convergence"]]
        return (
            code == 0
            and abs(out["x_star"] - oracles.X_STAR) < oracles.X_TOLERANCE
            and abs(out["x_star_bisection"] - oracles.X_STAR) < oracles.X_TOLERANCE
            and abs(out["g_star"] - oracles.G_STAR) < oracles.G_TOLERANCE
            and all(a < b for a, b in zip(roots, roots[1:]))
            and roots[-1] < 12.6
            and all(
                math.isclose(row["bound_nth_root"], math.exp(math.log(oracles.bound(row["n"])) / row["n"]), rel_tol=1e-12)
                for row in out["convergence"]
                if row["n"] <= 200
            )
        )

    ck.expect(asymptote_ok, "asymptote", code, out)

    n = prm["count_n"]
    code, out = _cli(tr, "cli.count", ["count", "-n", str(n), "-t", "3", "--mode", "both"])
    ck.expect(
        lambda: code == 0
        and out["brute"] == oracles.THREE_STACK_COUNTS[n]
        and out["upper_bound"] == oracles.bound(n)
        and out["verdict"] == "CONSISTENT",
        f"count -n {n} -t 3", code, out,
    )

    n = prm["bound_n"]
    code, out = _cli(tr, "cli.bound", ["bound", "-n", str(n), "-t", "3"])
    ck.expect(
        lambda: code == 0
        and oracles.digest(out["insertion_bound"]) == oracles.BOUND_DIGESTS[n]
        and out["trivial_bound"] == 4 ** (2 * n),
        f"bound -n {n} -t 3", code,
    )

    words = []
    for p, arg in zip(perms, args):
        image = oracles.iterate(p, 3)
        code, out = _cli(tr, "cli.word", ["word", "encode", arg, "-t", "3", "--trace"])
        word = out.get("word", "") if isinstance(out, dict) else ""
        words.append(word)
        ck.expect(
            lambda: code == 0
            and oracles.replay(p, word, 3) == image == _parse(out["output"])
            and len(out["steps"]) == 4 * len(p)
            and tuple(out["steps"][-1]["output"]) == image
            and out["violations"] == []
            and out["projection"] == word.replace("A", "")
            and out["aa_factors"] == oracles.factor_count(word, "AA"),
            "word encode --trace", arg, code, out,
        )

    for p, word in zip(perms, words):
        code, out = _cli(tr, "cli.word", ["word", "decode", word, "-t", "3"])
        sortable = oracles.is_identity(oracles.iterate(p, 3))
        # round-trips exactly when p is 3-stack sortable
        ck.expect(
            lambda: code == 0
            and ((_parse(out["permutation"]) == p and out["roundtrip"] is True) if sortable else _parse(out["permutation"]) != p),
            "word decode", word, code, out,
        )

    for p, arg in zip(perms, args):
        code, out = _cli(tr, "cli.sort", ["sort", arg, "-t", "3"])
        image = oracles.iterate(p, 3)
        ck.expect(
            lambda: code == 0
            and _parse(out["result"]) == image
            and out["sortable"] == oracles.is_identity(image)
            and out["min_passes"] == oracles.min_passes(p),
            "sort -t 3", arg, code, out,
        )


WORKLOADS = {
    "sweep": (sweep_inputs, sweep_job),
    "asymptotics": (asymptotics_inputs, asymptotics_job),
    "session": (session_inputs, session_job),
}
