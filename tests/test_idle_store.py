"""Idle store: LIFO behavior, conservation, culling, integral."""

import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadcache.idle_store import IdleStore
from threadcache.retention import Policy, RetentionConfig

from conftest import FakeWorker
from oracles import ReferenceStack


def make_store(**kw):
    return IdleStore(**kw)


class TestLifoBasics:
    def test_push_then_pop_is_lifo(self, fake_workers):
        a, b = fake_workers(2)
        s = make_store()
        s.push(a)
        s.push(b)
        assert s.pop() is b
        assert s.pop() is a

    def test_pop_empty(self):
        assert make_store().pop() is None

    def test_push_onto_empty_count(self, fake_workers):
        (w,) = fake_workers(1)
        s = make_store()
        assert s.count == 0
        s.push(w)
        assert s.count == 1

    def test_idle_since_stamped_by_push(self, fake_workers):
        # a timed store's push stamps; the Unbounded store's stamps nothing,
        # since nothing reaps it
        a, b = fake_workers(2)
        s = make_store(retention=RetentionConfig(policy=Policy.AGE_OUT))
        before = time.monotonic_ns()
        s.push(a)
        assert before <= a.idle_since <= time.monotonic_ns()
        make_store().push(b)
        assert b.idle_since == 0

    def test_peak_tracks_high_water_mark(self, fake_workers):
        ws = fake_workers(3)
        s = make_store()
        for w in ws:
            s.push(w)
        for _ in range(3):
            s.pop()
        assert s.count == 0
        assert s.peak == 3


class TestCull:
    def test_cull_removes_tail(self, fake_workers):
        a, b, c = fake_workers(3)
        s = make_store()
        for w, t in ((a, 1), (b, 2), (c, 3)):
            s.push(w)
            w.idle_since = t
        assert s.cull_oldest(1) == [a]
        assert s._items[::-1] == [c, b]

    def test_cull_clamps_to_size(self, fake_workers):
        ws = fake_workers(3)
        s = make_store()
        for i, w in enumerate(ws):
            s.push(w)
            w.idle_since = i
        got = s.cull_oldest(5)
        assert got == ws  # oldest first
        assert s.count == 0

    def test_cull_zero(self, fake_workers):
        s = make_store()
        s.push(fake_workers(1)[0])
        assert s.cull_oldest(0) == []
        assert s.count == 1

    def test_cull_negative_rejected(self):
        with pytest.raises(ValueError):
            make_store().cull_oldest(-1)

    def test_cull_older_than(self, fake_workers):
        ws = fake_workers(4)
        s = make_store()
        for i, w in enumerate(ws):
            s.push(w)
            w.idle_since = i * 10
        got = s.cull_older_than(15)
        assert got == ws[:2]
        assert s.count == 2

    def test_cull_during_concurrent_pushes_is_oldest_first(self, fake_workers):
        # every culled worker is no younger than every survivor
        s = make_store()
        ws = fake_workers(400)
        for w in ws[:200]:
            s.push(w)
        stop = threading.Event()

        def pusher(chunk):
            for w in chunk:
                s.push(w)
                if stop.is_set():
                    return

        threads = [threading.Thread(target=pusher, args=(ws[200 + 50 * i:250 + 50 * i],))
                   for i in range(4)]
        for t in threads:
            t.start()
        culled = s.cull_oldest(100)
        stop.set()
        for t in threads:
            t.join()
        assert len(culled) == 100
        survivors = s._items[::-1]
        max_culled = max(w.idle_since for w in culled)
        assert all(w.idle_since >= max_culled for w in survivors)
        # conservation across the whole episode
        assert len(culled) + len(survivors) == 400


class TestIntegral:
    def test_empty_is_zero(self):
        assert make_store().integral(now=123) == 0

    def test_direct_summation(self, fake_workers):
        # idle 5 s, 3 s, 1 s -> 9 thread-seconds
        ws = fake_workers(3)
        s = make_store()
        now = 10_000_000_000
        for w, age_s in zip(ws, (5, 3, 1)):
            s.push(w)
            w.idle_since = now - age_s * 1_000_000_000
        assert s.integral(now=now) == pytest.approx(9.0)

    def test_single_worker(self, fake_workers):
        (w,) = fake_workers(1)
        s = make_store()
        s.push(w)
        w.idle_since = 0
        assert s.integral(now=2_000_000_000) == pytest.approx(2.0)

    def test_exact_against_frozen_snapshot(self, fake_workers):
        s = make_store()
        for i, w in enumerate(fake_workers(20)):
            s.push(w)
            w.idle_since = i * 7919
        now = 1_000_000
        frozen = s._items[::-1]
        recomputed = sum(now - w.idle_since for w in frozen) / 1e9
        assert s.integral(now=now) == recomputed


class TestRaces:
    def test_concurrent_pushes_then_pops_conserve(self, fake_workers):
        s = make_store()
        ws = fake_workers(64)
        barrier = threading.Barrier(8)

        def pusher(chunk):
            barrier.wait()
            for w in chunk:
                s.push(w)

        threads = [threading.Thread(target=pusher, args=(ws[i * 8:(i + 1) * 8],))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        popped = [s.pop() for _ in range(64)]
        assert Counter(id(w) for w in popped) == Counter(id(w) for w in ws)
        assert s.pop() is None

    def test_single_element_pop_race(self, fake_workers):
        # exactly one of two racing pops wins
        s = make_store()
        (w,) = fake_workers(1)
        for _ in range(2000):
            s.push(w)
            results = [None, None]
            barrier = threading.Barrier(2)

            def popper(i):
                barrier.wait()
                results[i] = s.pop()

            ts = [threading.Thread(target=popper, args=(i,)) for i in (0, 1)]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            assert sorted(x is not None for x in results) == [False, True]

    def test_push_pop_stress_conservation(self, fake_workers):
        # scaled-down here; the full 8x8/1e6 run lives in the acceptance suite
        run_stress(n_ops=40_000, pushers=4, poppers=4)

    def test_reinserted_worker_never_loses_neighbours(self, fake_workers):
        # the A-B-A shape: a worker popped and pushed again on top of a
        # newcomer; every worker stays reachable and LIFO order holds
        s = make_store()
        a, b = fake_workers(2)
        s.push(a)
        assert s.pop() is a
        s.push(b)
        s.push(a)
        assert s.pop() is a
        assert s.pop() is b
        assert s.pop() is None
        assert (s.count, s.peak, s.integral(now=10**12)) == (0, 2, 0)

    def test_pop_sees_pushes_from_every_thread(self, fake_workers):
        s = make_store()
        ws = fake_workers(8)
        ts = [threading.Thread(target=s.push, args=(w,)) for w in ws]
        for t in ts:
            t.start()
        for t in ts:
            t.join(2.0)
        assert not any(t.is_alive() for t in ts)
        got = [s.pop() for _ in range(8)]
        assert Counter(id(w) for w in got) == Counter(id(w) for w in ws)
        assert s.peak == 8

    def test_recycled_pool_stress_conserves_and_peak_exact(self):
        # the locked store keeps the exact peak, reached at the fill
        s = make_store(retention=RetentionConfig(policy=Policy.AGE_OUT,
                                                 max_idle_age=60.0))
        pool, _ = recycle_pool(s)
        assert s.peak == len(pool)
        left = s._items[::-1]
        now = time.monotonic_ns()
        direct = sum(now - w.idle_since for w in left) / 1e9
        assert s.integral(now=now) == direct

    def test_recycled_pool_stress_on_the_bare_store(self):
        # the bare store's peak never falls and never exceeds the true
        # peak, here at most the pool; half the pool is pushed by the
        # racing threads, so new peaks are set while pushes race
        s = make_store()
        pool, peaks = recycle_pool(s, fill=16)
        assert peaks == sorted(peaks)
        assert 16 == peaks[0] and peaks[-1] <= len(pool)


def recycle_pool(s, fill=32):
    """Push fill workers of a pool of 32 onto s, then let 8 threads each
    push two more of the rest and then pop a worker and push it back, under
    a tiny switch interval, for 0.5 s; a lost or duplicated worker breaks
    the audit. Returns the pool and the peaks sampled."""
    pool = [FakeWorker(i) for i in range(32)]
    for w in pool[:fill]:
        s.push(w)
    popped = [0] * 8
    stop = threading.Event()

    def churn(i):
        for w in pool[fill:][i::8]:
            s.push(w)
        while not stop.is_set():
            w = s.pop()
            if w is not None:
                popped[i] += 1
                s.push(w)

    peaks = [s.peak]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ts = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for t in ts:
            t.start()
        for _ in range(10):
            time.sleep(0.05)
            peaks.append(s.peak)
        stop.set()
        for t in ts:
            t.join(5.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in ts)
    assert sum(popped) > 0
    left = s._items[::-1]
    assert Counter(id(w) for w in left) == Counter(id(w) for w in pool)
    return pool, peaks + [s.peak]


class TestClose:
    def test_close_drains_oldest_first_and_refuses_pushes(self, fake_workers):
        a, b, c = fake_workers(3)
        s = make_store()
        for w in (a, b):
            assert s.push(w) == ()
        assert s.close() == [a, b]
        assert s.count == 0 and s.integral(now=5) == 0
        assert s.push(c) == (c,)  # refused: handed back to exit
        assert s.count == 0 and s.pop() is None
        assert s.close() == []

    def test_close_races_pushes_without_losing_workers(self):
        # every worker is either refused or drained, never left behind
        for _ in range(50):
            s = make_store()
            ws = [FakeWorker(i) for i in range(16)]
            accepted = [None] * len(ws)
            go = threading.Barrier(len(ws) + 1)

            def push(i):
                go.wait()
                accepted[i] = ws[i] not in s.push(ws[i])

            ts = [threading.Thread(target=push, args=(i,))
                  for i in range(len(ws))]
            for t in ts:
                t.start()
            go.wait()
            drained = s.close()
            for t in ts:
                t.join(2.0)
            assert not any(t.is_alive() for t in ts)
            assert s.count == 0
            assert sorted(w.worker_id for w in drained) == \
                [i for i, ok in enumerate(accepted) if ok]


class TestClamp:
    def test_concurrent_pushes_never_exceed_clamp(self):
        # the clamp check and the append are one step under the lock
        cfg = RetentionConfig(policy=Policy.CLAMP, clamp_size=2)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                s = make_store(retention=cfg)
                ws = [FakeWorker(i) for i in range(16)]
                out = [None] * len(ws)
                go = threading.Barrier(len(ws))

                def push(i):
                    go.wait()
                    out[i] = s.push(ws[i])

                ts = [threading.Thread(target=push, args=(i,))
                      for i in range(len(ws))]
                for t in ts:
                    t.start()
                for t in ts:
                    t.join(2.0)
                assert not any(t.is_alive() for t in ts)
                assert s.peak == s.count == 2
                # every worker is admitted, then stored or evicted once
                assert None not in out
                evicted = [w for e in out for w in e]
                assert Counter(map(id, s._items[::-1] + evicted)) \
                    == Counter(map(id, ws))
                assert len(evicted) == 14
        finally:
            sys.setswitchinterval(old)


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def acquire(self, *a):
        self.acquired += 1
        return self._lock.acquire(*a)

    def release(self):
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


class TestRunPass:
    """The timer's pass: one hold of the lock, with no thread."""

    NS = 1_000_000_000

    def timed(self, ages):
        """An AgeOut store (max age 10 s) holding one worker per age in s,
        oldest first, at now = 100 s; returns it, the workers and now."""
        cfg = RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=10.0)
        s, now = make_store(retention=cfg), 100 * self.NS
        ws = [FakeWorker(i) for i in range(len(ages))]
        for w, age in zip(ws, ages):
            s.push(w)
            w.idle_since = now - age * self.NS
        return s, ws, now

    def test_only_the_timer_passes(self):
        s, (t, w), now = self.timed([20, 15])
        assert s.timer is t
        assert s.run_pass(w, now) == []
        assert s.count == 2

    def test_timer_is_the_front_of_a_timed_store(self):
        s, (t, w), _ = self.timed([30, 20])
        assert s.pop() is w and s.timer is t
        assert s.pop() is t and s.timer is None  # the last worker
        s.push(w)  # onto an empty store
        assert s.timer is w
        s.push(t)
        assert s.timer is w
        later = time.monotonic_ns() + 60 * self.NS  # both idle over 10 s
        assert s.run_pass(w, later) == [w, t]  # culls every worker
        assert s.timer is None
        s.push(t)
        assert s.timer is t
        s.after_fork()
        assert s.timer is None
        s.push(w)
        assert s.timer is w
        assert s.close() == [w] and s.timer is None

    @pytest.mark.parametrize("cfg", [
        RetentionConfig(),
        RetentionConfig(policy=Policy.CLAMP, clamp_size=2)])
    def test_a_store_that_does_not_reap_has_no_timer(self, cfg):
        s = make_store(retention=cfg)
        w = FakeWorker(0)
        s.push(w)
        assert s._items[::-1] == [w] and s.timer is None

    def test_a_culled_timer_swaps_place_and_stamp_with_a_survivor(self):
        s, (t, a, b, c), now = self.timed([30, 20, 15, 5])
        stamp = c.idle_since
        assert s.run_pass(t, now) == [c, a, b]
        assert s._items[::-1] == [t] and s.timer is t
        assert t.idle_since == stamp

    def test_a_timer_culled_alone_clears_timer(self):
        s, ws, now = self.timed([30, 20])
        assert s.run_pass(ws[0], now) == ws
        assert s.count == 0 and s.timer is None

    def test_a_pass_that_culls_takes_the_lock_once(self):
        s, (t, a, b), now = self.timed([30, 20, 5])
        s._lock = lock = CountingLock()
        assert s.run_pass(t, now) == [b, a]
        assert lock.acquired == 1

    def test_an_integral_budget_pass_keeps_the_timer(self):
        # ages {5,3,1}s, integral 9; budget 4 -> cull the 5 s worker, the
        # timer, whose place the 3 s worker gives up
        cfg = RetentionConfig(policy=Policy.INTEGRAL_BUDGET, budget=4.0)
        s, now = make_store(retention=cfg), 100 * self.NS
        t, a, b = ws = [FakeWorker(i) for i in range(3)]
        for w, age in zip(ws, (5, 3, 1)):
            s.push(w)
            w.idle_since = now - age * self.NS
        stamp = a.idle_since
        assert s.run_pass(t, now) == [a]
        assert s._items[::-1] == [b, t] and t.idle_since == stamp
        assert s.integral(now) == 4.0


def run_stress(n_ops, pushers, poppers):
    """Element-conservation stress; returns (pushed, popped) multisets."""
    s = IdleStore()
    per = n_ops // (2 * pushers)
    pools = [[FakeWorker((p, i)) for i in range(per)] for p in range(pushers)]
    popped = [[] for _ in range(poppers)]
    start = threading.Barrier(pushers + poppers)
    done = threading.Event()

    def push_job(p):
        start.wait()
        for w in pools[p]:
            s.push(w)

    def pop_job(q):
        start.wait()
        out = popped[q]
        while not done.is_set() or s.count:
            w = s.pop()
            if w is not None:
                out.append(w)

    ts = [threading.Thread(target=push_job, args=(p,)) for p in range(pushers)]
    ts += [threading.Thread(target=pop_job, args=(q,)) for q in range(poppers)]
    for t in ts:
        t.start()
    for t in ts[:pushers]:
        t.join()
    done.set()
    for t in ts[pushers:]:
        t.join()
    leftovers = []
    while True:
        w = s.pop()
        if w is None:
            break
        leftovers.append(w)
    got = [w for lst in popped for w in lst] + leftovers
    want = [w for pool in pools for w in pool]
    assert Counter(id(w) for w in got) == Counter(id(w) for w in want)
    return want, got


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["push", "pop", "cull1", "cull2"]),
                max_size=60))
def test_sequential_history_matches_reference_stack(ops):
    """Any single-threaded op sequence behaves like a plain list stack."""
    s = IdleStore()
    ref = ReferenceStack()
    serial = 0
    now = 0
    for op in ops:
        now += 1
        if op == "push":
            w = FakeWorker(serial)
            serial += 1
            s.push(w)
            w.idle_since = now
            ref.push(w)
        elif op == "pop":
            assert s.pop() is ref.pop()
        else:
            k = int(op[-1])
            assert s.cull_oldest(k) == ref.cull_oldest(k)
        assert s.count == len(ref.items)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["push", "pop", "cull", "age"]),
                          st.integers(0, 3)), max_size=60),
       st.integers(0, 10**9))
def test_integral_matches_direct_sum_after_any_history(ops, later):
    """The O(1) integral equals the direct sum of idle ages, at any time."""
    s = IdleStore()
    ref = ReferenceStack()
    stamp = {}  # the test's own record of each push time
    now = 0
    for serial, (op, arg) in enumerate(ops):
        now += 1 + arg * 1000
        if op == "push":
            w = FakeWorker(serial)
            s.push(w)
            w.idle_since = now
            ref.push(w)
            stamp[w] = now
        elif op == "pop":
            assert s.pop() is ref.pop()
        elif op == "cull":
            assert s.cull_oldest(arg) == ref.cull_oldest(arg)
        else:
            cutoff = now - arg * 1000
            k = sum(1 for w in ref.items if stamp[w] < cutoff)
            assert s.cull_older_than(cutoff) == ref.cull_oldest(k)
        t = now + later
        direct = sum(t - stamp[w] for w in ref.items) / 1e9
        assert s.integral(now=t) == direct
        assert s._items[::-1] == ref.items[::-1]


def check_roles(cfg, steps):
    """Run steps of the runtime's own store operations on a timed store:
    push, pop, a pass by the timer at a later now, and close. A worker that
    stays stored keeps its role, timer or not, and one that leaves is one
    the step returned. So the runtime may read the role once, as a worker
    parks: leaving the store is what wakes it."""
    s = IdleStore(cfg)
    now = 0
    for serial, (op, dt) in enumerate(steps):
        now += dt
        before = [(w, w is s.timer) for w in s._items]
        if op == "push":
            w = FakeWorker(serial)
            returned = list(s.push(w))
            w.idle_since = now
        elif op == "pop":
            returned = [s.pop()]
        elif op == "pass":
            returned = s.run_pass(s.timer, now)
        else:
            returned = s.close()
        for w, was_timer in before:  # FakeWorkers compare by identity
            if w in s._items:
                assert (w is s.timer) == was_timer, (op, w)
            else:
                assert w in returned, (op, w)


ROLE_CONFIGS = [
    RetentionConfig(policy=Policy.AGE_OUT, max_idle_age=2.0),
    RetentionConfig(policy=Policy.INTEGRAL_BUDGET, budget=3.0),
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ROLE_CONFIGS),
       st.lists(st.tuples(
           st.sampled_from(["push"] * 6 + ["pop"] * 3 + ["pass"] * 3
                           + ["close"]),
           st.integers(0, 3 * 10**9)), max_size=60))
def test_a_stored_worker_keeps_its_role(cfg, steps):
    check_roles(cfg, steps)


class Fates:
    """A bare store, the workers that entered it, and every worker that an
    operation handed out: refused by a push, drained by close or popped."""

    def __init__(self, prefill: int):
        self.s = IdleStore()
        # an interjection that would wait for the lock runs at once: more
        # orders than threads can reach, and none fewer
        self.s._lock = threading.RLock()
        self.entered, self.out = [], []
        for _ in range(prefill):
            self.push()

    def push(self):
        w = FakeWorker(len(self.entered))
        self.entered.append(w)
        self.out += self.s.push(w)

    def pop(self):
        w = self.s.pop()
        if w is not None:
            self.out.append(w)

    def close(self):
        self.out += self.s.close()

    def check(self):
        """Each worker ended exactly once: handed out, or stored in a store
        that is open."""
        s = self.s
        assert not (s.closed and s._items), "a closed store keeps a worker"
        assert Counter(map(id, self.out + s._items)) == \
            Counter(map(id, self.entered))
        assert s.peak <= len(self.entered)


STORE_CODES = {f.__code__ for f in (IdleStore.push, IdleStore.pop,
                                    IdleStore.close, IdleStore._take_front)}


def run_with_interjection(op, at: int, interject) -> bool:
    """Run op, calling interject at the at-th opcode boundary that op
    executes in the store's frames; False when op ended before it."""
    count, fired = [0], [False]

    def opcodes(frame, event, arg):
        if event == "opcode":
            if count[0] == at:
                fired[0] = True
                interject()  # a trace call: its own frames are not traced
            count[0] += 1
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code in STORE_CODES:
            frame.f_trace_opcodes = True
            return opcodes
        return None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        op()
    finally:
        sys.settrace(old)
    return fired[0]


# main operation, the operations run to completion at one of its opcode
# boundaries, and how many workers the store holds first
OPCODE_SCENARIOS = [
    ("push", ("close",), 0), ("push", ("close",), 1),
    ("push", ("pop",), 0), ("push", ("pop",), 1),
    ("push", ("pop", "close"), 1), ("push", ("close", "pop"), 1),
    ("pop", ("close",), 1), ("pop", ("close",), 2),
    ("close", ("pop",), 1), ("close", ("pop",), 2),
    ("close", ("push",), 0), ("close", ("push",), 1),
]


@pytest.mark.parametrize("main,interjected,prefill", OPCODE_SCENARIOS,
                         ids=[f"{m}-{'+'.join(i)}-{n}"
                              for m, i, n in OPCODE_SCENARIOS])
def test_bare_store_at_every_opcode_boundary(main, interjected, prefill):
    """The bare store's push, pop and close against each other at opcode
    granularity, where a thread switch may fall under the GIL. At every
    boundary of the main operation the others run to completion, then the
    main one finishes; afterwards, and once more without an interjection,
    each worker ended exactly once."""
    at = 0
    while True:
        f = Fates(prefill)

        def interject():
            for name in interjected:
                getattr(f, name)()

        fired = run_with_interjection(getattr(f, main), at, interject)
        if not fired:
            interject()  # after the main operation, for completeness
        f.check()
        if not fired:
            break
        at += 1
    assert at > 10  # the main operation was stepped through
