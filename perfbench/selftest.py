"""Self-tests of the benchmark itself (not collected by the repo's test run).

    python3 -m pytest -q perfbench/selftest.py

They run a cheap slice of each workload, so they take well under a minute.
"""

from __future__ import annotations

import importlib
import random

import oracles
import tracing
import workloads

CHEAP = {
    "eig": lambda a: a[2] <= 12,
    "isolate": lambda a: a[1] <= 24,
    "adm": lambda a: a[2] <= 10,
    "float_adm": lambda a: a[1] <= 10,
    "enum": lambda a: a[1] <= 8,
}


def _first_round(name: str, seed: int):
    wl = workloads.make_workload(name)
    return wl, wl.round(random.Random(f"{name}:{seed}"), 0)


def _cheap_slice(name: str, ops, limit: int = 12):
    if name == "profiles":
        return [op for op in ops if op.kind == "selfsimilar" and op.args[3] == workloads.XI_MIN][:2]
    if name == "cli-session":
        return [op for op in ops if op.kind != "cli-curves"]
    return [op for op in ops if CHEAP[op.kind](op.args)][:limit]


def _run(ops):
    return [workloads.summarize(op, workloads.run_op(op)) for op in ops]


def _setup(name: str):
    wl = workloads.make_workload(name)
    if name == "nodal-warm":
        workloads._prebuild(range(31), 12)
    else:
        wl.setup()
    return wl


def test_same_seed_gives_same_ops_and_digests():
    for name in workloads.WORKLOADS:
        _, a = _first_round(name, 1)
        _, b = _first_round(name, 1)
        assert a == b, name
        wl = _setup(name)
        try:
            ops = _cheap_slice(name, a)
            assert ops, name
            assert _run(ops) == _run(ops), name
        finally:
            getattr(wl, "teardown", lambda: None)()


def test_other_seed_gives_other_ops_that_pass_every_oracle():
    for name in workloads.WORKLOADS:
        _, a = _first_round(name, 1)
        _, b = _first_round(name, 2)
        assert a != b, name
        wl = _setup(name)
        try:
            ops = _cheap_slice(name, b)
            for op, summary in zip(ops, _run(ops)):
                ok, _, detail = workloads.check(op, summary)
                assert ok, (op.key, detail)
        finally:
            getattr(wl, "teardown", lambda: None)()


def test_perturbed_root_is_caught():
    op = workloads.Op("isolate", (1, 12))
    summary = workloads.summarize(op, workloads.run_op(op))
    ok, clean, _ = workloads.check(op, summary)
    assert ok and clean > 11
    nudged = dict(summary, roots=[summary["roots"][0] * (1 + 1e-6)] + summary["roots"][1:])
    ok, digits, _ = workloads.check(op, nudged)
    assert digits < 7
    dropped = dict(summary, roots=summary["roots"][1:], mults=summary["mults"][1:])
    assert not workloads.check(op, dropped)[0]


def test_perturbed_shot_is_caught():
    op = workloads.Op("stationary", (3.0, "symmetric", "decay_inverse"))
    exact = oracles.stationary_oracle(3.0, "symmetric", "decay_inverse", 0, 1.0)
    summary = {"digest": oracles.digest({"zero_count": 0}), "shot": exact, "zero_count": 0, "truncated": False}
    ok, digits, _ = workloads.check(op, summary)
    assert ok and digits > 14
    ok, digits, _ = workloads.check(op, dict(summary, shot=exact * (1 + 1e-3)))
    assert digits < 3.1
    wrong_branch = dict(summary, zero_count=2, digest=oracles.digest({"zero_count": 2}))
    assert not workloads.check(op, wrong_branch)[0]


def test_wrong_zero_count_or_digest_is_a_failure():
    op = workloads.Op("selfsimilar", (3.0, 1.0, 1.0, workloads.XI_MIN))
    summary = workloads.summarize(op, workloads.run_op(op))
    assert workloads.check(op, summary)[0]
    assert not workloads.check(op, dict(summary, zeros=summary["zeros"][1:]))[0]

    op = workloads.Op("eig", ("quadratic", 1, 5))
    summary = workloads.summarize(op, workloads.run_op(op))
    assert workloads.check(op, summary)[0]
    assert not workloads.check(op, dict(summary, digest="0" * 20))[0]


def test_wrappers_restore_module_attributes():
    before = {
        (module, attr): getattr(importlib.import_module(module), attr) for module, attr, _ in tracing.PATCHES
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
        op = workloads.Op("adm", ("bilaplace", ("-1/2", "2/3"), 6))
        traced = workloads.summarize(op, workloads.run_op(op))
    finally:
        tracer.uninstall()
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())
    assert traced == workloads.summarize(op, workloads.run_op(op))
    layers = tracer.metrics()
    assert layers["nodal.decide.calls"] == 1 and layers["nodal.isolate.calls"] >= 1
    assert layers["nodal.decide.admissible_ratio"] == 1.0
    assert all(parent == 0 or parent in {s[1] for s in tracer.spans} for _, _, parent, *_ in tracer.spans)
