"""Retention policies: admit (applied by the store's push), reap, env config."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadcache.idle_store import IdleStore
from threadcache.retention import Policy, RetentionConfig, admit, reap

from conftest import FakeWorker
from oracles import PolicySimulator, SimEvent

NS = 1_000_000_000


def store_with_ages(now, ages_s, cfg=None):
    """Store whose workers have the given idle ages (oldest pushed first)."""
    s = IdleStore(cfg)
    ws = []
    for i, age in enumerate(sorted(ages_s, reverse=True)):
        w = FakeWorker(i)
        s.push(w)
        w.idle_since = now - int(age * NS)
        ws.append(w)
    return s, ws


class TestConfig:
    def test_defaults_valid(self):
        cfg = RetentionConfig()
        assert cfg.policy is Policy.UNBOUNDED
        assert not IdleStore(cfg)._timed

    @pytest.mark.parametrize("kw", [
        {"clamp_size": -1},
        {"max_idle_age": 0},
        {"budget": -0.5},
        {"reap_period": 0},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            RetentionConfig(**kw)

    def test_from_env(self):
        env = {"THREADCACHE_POLICY": "integral",
               "THREADCACHE_BUDGET_MS": "2500",
               "THREADCACHE_REAP_MS": "100"}
        cfg = RetentionConfig.from_env(env)
        assert cfg.policy is Policy.INTEGRAL_BUDGET
        assert cfg.budget == 2.5
        assert cfg.reap_period == 0.1
        assert IdleStore(cfg)._timed

    def test_from_env_clamp_and_age(self):
        cfg = RetentionConfig.from_env({"THREADCACHE_POLICY": "clamp",
                                        "THREADCACHE_CLAMP": "3"})
        assert (cfg.policy, cfg.clamp_size) == (Policy.CLAMP, 3)
        cfg = RetentionConfig.from_env({"THREADCACHE_POLICY": "age",
                                        "THREADCACHE_AGE_MS": "750"})
        assert cfg.max_idle_age == 0.75

    def test_from_env_empty_means_defaults(self):
        assert RetentionConfig.from_env({}) == RetentionConfig()

    def test_from_env_bad_policy(self):
        with pytest.raises(ValueError):
            RetentionConfig.from_env({"THREADCACHE_POLICY": "bogus"})

    def test_fields(self):
        # no refusing clamp: a full one always evicts its oldest worker
        assert [f.name for f in dataclasses.fields(RetentionConfig)] == [
            "policy", "clamp_size", "max_idle_age", "budget", "reap_period"]


class TestAdmit:
    """admit() is the pure rule; push applies it under the store's lock."""

    def test_unbounded_always_caches(self):
        assert admit(1000, RetentionConfig()) == 0
        s, _ = store_with_ages(5 * NS, [3, 2, 1])
        assert s.push(FakeWorker(9)) == ()
        assert s.count == 4

    def test_clamp_evicts_oldest_for_incoming(self):
        now = 100 * NS
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=2)
        assert admit(2, cfg) == 1
        s, ws = store_with_ages(now, [9, 1], cfg)
        w = FakeWorker(99)
        assert s.push(w) == [ws[0]]  # the 9s-old one
        w.idle_since = now
        assert s.snapshot() == [w, ws[1]]
        assert s.integral(now) == pytest.approx(1.0)

    def test_clamp_zero_terminates(self):
        # a store that may keep nothing is born closed: it refuses every
        # push, handing the pusher back to exit
        s = IdleStore(RetentionConfig(policy=Policy.CLAMP, clamp_size=0))
        assert s.closed
        w = FakeWorker(0)
        assert s.push(w) == (w,)
        assert (s.count, s.peak) == (0, 0)

    def test_clamp_under_limit_no_eviction(self):
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=2)
        assert admit(1, cfg) == 0
        s, _ = store_with_ages(5 * NS, [1], cfg)
        assert s.push(FakeWorker(9)) == ()
        assert s.count == 2

    @pytest.mark.parametrize("policy", [Policy.AGE_OUT,
                                        Policy.INTEGRAL_BUDGET])
    def test_deferred_policies_admit(self, policy):
        cfg = RetentionConfig(policy=policy, clamp_size=0)
        assert admit(1000, cfg) == 0
        s = IdleStore(cfg)
        assert s.push(FakeWorker(0)) == ()
        assert s.count == 1


class TestReap:
    def test_age_out(self):
        now = 100 * NS
        s, ws = store_with_ages(now, [12, 4])
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=10)
        got = reap(s, now, cfg)
        assert got == [ws[0]]
        assert s.count == 1

    def test_integral_budget_culls_oldest(self):
        # ages {5,3,1}s, integral 9; budget 4 -> cull the 5s worker
        now = 100 * NS
        s, ws = store_with_ages(now, [5, 3, 1])
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET, budget=4)
        got = reap(s, now, cfg)
        assert got == [ws[0]]
        assert s.integral(now=now) == pytest.approx(4.0)

    def test_integral_empty_store(self):
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET, budget=0)
        assert reap(IdleStore(), now=5 * NS, cfg=cfg) == []

    def test_integral_zero_budget_drains(self):
        now = 10 * NS
        s, ws = store_with_ages(now, [3, 2, 1])
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET, budget=0)
        got = reap(s, now, cfg)
        assert got == ws
        assert s.count == 0

    @pytest.mark.parametrize("policy", [Policy.UNBOUNDED, Policy.CLAMP])
    def test_non_reaping_policies(self, policy):
        now = 10 * NS
        s, _ = store_with_ages(now, [5])
        assert reap(s, now, RetentionConfig(policy=policy)) == []


# ---------------------------------------------------------------------------
# policy engine vs brute-force scalar simulator

def run_script_pair(cfg, events):
    """Drive IdleStore push/pop/reap and the simulator on one event script."""
    store = IdleStore(cfg)
    by_tag = {}
    next_tag = [0]
    sim = PolicySimulator(cfg)
    for ev in events:
        out = sim.step(ev)
        if ev.kind == "exit":
            tag = next_tag[0]
            next_tag[0] += 1
            w = FakeWorker(tag)
            evicted = list(store.push(w))
            w.idle_since = ev.t
            if w in evicted:  # refused: the closed store hands it back
                assert out.admitted is None and evicted == [w]
                evicted = []
            else:
                assert out.admitted == tag
                by_tag[tag] = w
            assert [e.worker_id for e in evicted] == out.evicted
            for e in evicted:
                by_tag.pop(e.worker_id)
        elif ev.kind == "spawn":
            w = store.pop()
            if w is None:
                assert out.reused is None
            else:
                assert out.reused == w.worker_id
                by_tag.pop(w.worker_id)
        else:
            culled = reap(store, ev.t, cfg)
            assert [w.worker_id for w in culled] == out.culled
            for w in culled:
                by_tag.pop(w.worker_id)
        # post-step invariants
        if cfg.policy is Policy.CLAMP:
            assert store.count <= cfg.clamp_size
        if ev.kind == "tick":
            if cfg.policy is Policy.AGE_OUT:
                for w in store.snapshot():
                    assert ev.t - w.idle_since <= cfg.max_idle_age * NS
            elif cfg.policy is Policy.INTEGRAL_BUDGET:
                assert store.integral(now=ev.t) <= cfg.budget


def random_script(rng, length=40):
    t = 0
    events = []
    for _ in range(length):
        t += rng.randrange(1, 3 * NS)
        kind = rng.choices(["exit", "spawn", "tick"], weights=[5, 3, 2])[0]
        events.append(SimEvent(kind, t))
    return events


def random_config(rng):
    policy = rng.choice([Policy.CLAMP, Policy.AGE_OUT,
                         Policy.INTEGRAL_BUDGET])
    return RetentionConfig(
        policy=policy,
        clamp_size=rng.randrange(0, 5),
        max_idle_age=rng.choice([0.5, 1.0, 2.5, 6.0]),
        budget=rng.choice([0.0, 1.0, 4.0, 10.0]),
    )


def test_policy_engine_matches_simulator_sampled():
    rng = random.Random(1234)
    for _ in range(500):  # the full 10k-script sweep runs in acceptance
        run_script_pair(random_config(rng), random_script(rng))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_policy_engine_matches_simulator_hypothesis(data):
    policy = data.draw(st.sampled_from([Policy.CLAMP, Policy.AGE_OUT,
                                        Policy.INTEGRAL_BUDGET]))
    cfg = RetentionConfig(
        policy=policy,
        clamp_size=data.draw(st.integers(0, 4)),
        max_idle_age=data.draw(st.sampled_from([0.5, 1.0, 3.0])),
        budget=data.draw(st.sampled_from([0.0, 2.0, 8.0])),
    )
    kinds = data.draw(st.lists(st.sampled_from(["exit", "spawn", "tick"]),
                               max_size=30))
    t = 0
    events = []
    for k in kinds:
        t += data.draw(st.integers(1, 2 * NS))
        events.append(SimEvent(k, t))
    run_script_pair(cfg, events)
