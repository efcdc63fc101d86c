"""YCSB and Faban client drivers."""

import pytest

from repro.faults.metrics import ServiceMetrics
from repro.faults.retry import RetryPolicy
from repro.load.distributions import ScrambledZipf
from repro.load.faban import FabanDriver
from repro.load.ycsb import YcsbClient


class TestYcsb:
    def test_read_write_ratio(self):
        client = YcsbClient(10_000, seed=1)
        ops = [client.next_op() for _ in range(5000)]
        reads = sum(1 for op in ops if op.kind == "read")
        assert 0.93 < reads / len(ops) < 0.97  # the paper's 95:5 mix

    def test_keys_in_range(self):
        client = YcsbClient(500, seed=1)
        assert all(0 <= client.next_op().key < 500 for _ in range(2000))

    def test_counters(self):
        client = YcsbClient(100, seed=2)
        for _ in range(100):
            client.next_op()
        assert client.reads_issued + client.updates_issued == 100

    def test_hot_keys_unique_prefix(self):
        client = YcsbClient(100_000, seed=3)
        hot = client.hot_keys(1000)
        assert len(hot) == 1000
        assert all(0 <= k < 100_000 for k in hot)

    @pytest.mark.parametrize("records, count", [
        (1, 10), (255, 10_000), (257, 10_000), (4_096, 10_000),
        (75_000, 10_000), (100_000, 70_000), (2**40 + 3, 300)])
    def test_hot_keys_match_the_scalar_hash(self, records, count):
        hot = YcsbClient(records, seed=3).hot_keys(count)
        assert hot == [ScrambledZipf._fnv(rank) % records
                       for rank in range(min(count, records))]
        assert all(type(key) is int for key in hot)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            YcsbClient(10, read_fraction=1.5)

    def test_ratio_converges_with_more_draws(self):
        client = YcsbClient(10_000, seed=4)
        for _ in range(20_000):
            client.next_op()
        total = client.reads_issued + client.updates_issued
        assert abs(client.reads_issued / total - 0.95) < 0.01

    def test_identical_seeds_generate_identical_streams(self):
        a = YcsbClient(5_000, seed=8)
        b = YcsbClient(5_000, seed=8)
        assert [a.next_op() for _ in range(200)] \
            == [b.next_op() for _ in range(200)]


class TestYcsbResilience:
    def test_observe_classifies_against_the_policy(self):
        policy = RetryPolicy(hedge_after=100, timeout=200)
        client = YcsbClient(100, seed=1, retry=policy)
        client.observe(50)
        client.observe(150, retries=1)            # hedged, not timed out
        client.observe(250, ok=False, dropped=True)
        m = client.metrics
        assert m.requests == 3
        assert m.retries == 1
        assert m.hedges == 2
        assert m.timeouts == 1
        assert m.drops == 1
        assert m.goodput() == pytest.approx(2 / 3)

    def test_shared_metrics_accumulator(self):
        shared = ServiceMetrics()
        client = YcsbClient(100, seed=1, metrics=shared)
        client.observe(10)
        assert shared.requests == 1

    def test_defaults_are_self_contained(self):
        client = YcsbClient(100, seed=1)
        assert isinstance(client.retry, RetryPolicy)
        client.observe(10)
        assert client.metrics.requests == 1


class TestFaban:
    MIX = [("browse", 70.0), ("search", 20.0), ("post", 10.0)]

    def test_mix_ratios_respected(self):
        driver = FabanDriver(16, self.MIX, seed=1)
        for _ in range(6000):
            driver.next_request()
        total = sum(driver.issued.values())
        assert 0.6 < driver.issued["browse"] / total < 0.8
        assert driver.issued["post"] / total < 0.2

    def test_round_robin_over_sessions(self):
        driver = FabanDriver(4, self.MIX, seed=1)
        sessions = [driver.next_request()[0].session_id for _ in range(8)]
        assert sessions == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_affinity_partitions_sessions(self):
        driver = FabanDriver(16, self.MIX, seed=1)
        for affinity in range(4):
            for _ in range(8):
                session, _ = driver.next_request(affinity=affinity)
                assert session.session_id % 4 == affinity

    def test_sessions_have_independent_rngs(self):
        driver = FabanDriver(2, self.MIX, seed=1)
        a, b = driver.sessions
        assert a.rng.random() != b.rng.random()

    def test_run_invokes_handler(self):
        driver = FabanDriver(2, self.MIX, seed=1)
        seen = []
        driver.run(lambda session, op: seen.append((session.session_id, op)), 10)
        assert len(seen) == 10

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            FabanDriver(0, self.MIX)
        with pytest.raises(ValueError):
            FabanDriver(2, [])
        with pytest.raises(ValueError):
            FabanDriver(2, [("x", 0.0)])

    def test_observe_classifies_against_the_policy(self):
        policy = RetryPolicy(hedge_after=100, timeout=200)
        driver = FabanDriver(2, self.MIX, seed=1, retry=policy)
        driver.observe(50)
        driver.observe(300, ok=False, retries=2)
        m = driver.metrics
        assert m.requests == 2
        assert m.retries == 2
        assert m.hedges == 1
        assert m.timeouts == 1
        assert m.goodput() == pytest.approx(0.5)

    def test_shared_metrics_accumulator(self):
        shared = ServiceMetrics()
        driver = FabanDriver(2, self.MIX, seed=1, metrics=shared)
        driver.observe(10)
        assert shared.requests == 1
