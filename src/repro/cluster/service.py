"""The fleet simulation: open-loop clients against a replicated service.

One :func:`simulate` call plays a seeded request schedule against a
fleet of :class:`~repro.cluster.node.Node` replicas behind a
health-checked :class:`~repro.cluster.balancer.LoadBalancer`:

* **reads** route down the key's preference list (healthy replicas
  first), carry a per-attempt timeout, hedge a duplicate once they
  outlive ``policy.hedge_after``, and retry on the policy's backoff
  schedule;
* **writes** run a Dynamo-style sloppy quorum: the first R available
  nodes on the ring walk take the write, substitutes durably queue a
  *hint* for each down owner, and the client acks once W = R//2+1
  replicas confirm.  Applied writes are durable (commit-log
  semantics) — a crash loses in-flight work, never applied state — so
  "no acknowledged write is ever lost" is checked against real replica
  contents at the end of the run, not asserted;
* **fleet faults** (crash/slow/partition) fire on the simulated clock;
  recovery replays hinted writes to the returning node and a periodic
  digest check read-repairs stale replicas;
* the :class:`~repro.cluster.recorder.LatencyRecorder` accounts every
  request against its *intended* (open-loop) start, so a stalled fleet
  cannot hide its own queueing delay (coordinated omission).

Everything runs on the :class:`~repro.cluster.clock.EventLoop`; the
whole run is a pure function of the config.  The load itself (each
request's intended start, key and read/write coin) depends only on the
config's load fields, so it is a :class:`LoadSchedule` built once per
process and shared by every fleet that plays it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from repro.cluster.balancer import LoadBalancer
from repro.cluster.backend import build_backend
from repro.cluster.clock import EventLoop
from repro.cluster.costs import ServiceCostModel
from repro.cluster.faults import ClusterFaultPlan
from repro.cluster.node import Node
from repro.cluster.recorder import LatencyRecorder
from repro.cluster.ring import HashRing
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.load.distributions import ARRIVAL_SHAPES, ScrambledZipf, \
    UniformGenerator, build_arrivals
from repro.machine.hashing import stable_hash


def default_cluster_policy() -> RetryPolicy:
    """The fleet clients' resilience policy, in integer microseconds."""
    return RetryPolicy(base_delay=500, multiplier=2.0, jitter=0.25,
                       max_retries=2, cap_delay=4_000, timeout=6_000,
                       hedge_after=2_500, retry_failure_p=0.3)


@dataclass(frozen=True)
class ClusterConfig:
    """One fleet simulation cell (fingerprintable via ``canonical``)."""

    workload: str = "data-serving"
    fleet: int = 4
    replication: int = 2
    requests: int = 1_600
    arrival: str = "poisson"
    mean_gap_us: int = 150
    theta: float = 0.0            # 0 = uniform keys; else scrambled Zipf
    keyspace: int = 4_096
    read_fraction: float = 0.95
    workers_per_node: int = 4
    vnodes: int = 48
    network_us: int = 120
    probe_interval_us: int = 10_000
    seed: int = 0
    fault_plan: ClusterFaultPlan = field(default_factory=ClusterFaultPlan.none)
    node_plan: FaultPlan | None = None
    policy: RetryPolicy = field(default_factory=default_cluster_policy)
    #: Where per-op service costs come from: ``"static"`` (the apps'
    #: hand-written tables) or ``"measured"`` (a calibrated model from
    #: :mod:`repro.cluster.calibrate`, carried in ``cost_model``).
    costs: str = "static"
    cost_model: ServiceCostModel | None = None

    def __post_init__(self) -> None:
        if self.fleet < 1:
            raise ValueError("fleet must be positive")
        if self.costs not in ("static", "measured"):
            raise ValueError(
                f"costs must be 'static' or 'measured', got {self.costs!r}")
        if self.costs == "measured":
            if self.cost_model is None:
                raise ValueError(
                    "costs='measured' needs a calibrated cost_model "
                    "(see repro.cluster.calibrate.calibrate)")
            if self.cost_model.source != "measured":
                raise ValueError(
                    "costs='measured' got a model whose provenance says "
                    f"{self.cost_model.source!r}")
            if self.cost_model.workload != self.workload:
                raise ValueError(
                    f"cost_model was calibrated for "
                    f"{self.cost_model.workload!r}, not {self.workload!r}")
        elif self.cost_model is not None:
            raise ValueError("costs='static' takes no cost_model; the "
                             "backend builds the labeled fallback itself")
        if not 1 <= self.replication <= self.fleet:
            raise ValueError("replication must be in [1, fleet]")
        if self.requests < 1:
            raise ValueError("requests must be positive")
        if self.arrival not in ARRIVAL_SHAPES:
            raise ValueError(
                f"arrival must be one of {', '.join(ARRIVAL_SHAPES)}, "
                f"got {self.arrival!r}")
        if self.mean_gap_us < 1:
            raise ValueError("mean_gap_us must be positive")
        if self.keyspace < 1:
            raise ValueError("keyspace must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.theta and not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be 0 or in (0, 1)")
        if self.policy.timeout is None:
            raise ValueError("the cluster policy needs a finite timeout")

    def latency_bound(self) -> int:
        """A physical upper bound on any recorded latency: every
        request resolves (success or declared failure) within its
        attempts' timeouts plus the backoff delays between them."""
        attempts = self.policy.max_retries + 1
        return (attempts * int(self.policy.timeout)
                + self.policy.max_retries * int(self.policy.cap_delay)
                + 4 * self.network_us)

    def load(self) -> LoadSchedule:
        """The open-loop load this cell plays; every config with the
        same load fields gets the same :class:`LoadSchedule` object."""
        return load_schedule(self.arrival, self.mean_gap_us, self.keyspace,
                             self.theta, self.seed, self.requests)


def request_rng(seed: int, rid: int) -> random.Random:
    """Request ``rid``'s private RNG: its first draw is the read/write
    coin, a read's backoff schedule comes next."""
    return random.Random(stable_hash(("req", seed, rid)))


@dataclass(frozen=True)
class LoadSchedule:
    """Requests ``0 … N-1`` of one load, indexed by rid: intended
    (open-loop) start in µs, key, and the first draw of
    :func:`request_rng`, which makes the request a read when it is
    below the config's ``read_fraction``."""

    starts: tuple[int, ...]
    keys: tuple[int, ...]
    coins: tuple[float, ...]


# ``typed``: ``stable_hash`` folds each field's repr, so ``seed=1`` and
# ``seed=True`` are different loads although they compare equal.
@functools.lru_cache(maxsize=16, typed=True)
def load_schedule(arrival: str, mean_gap_us: int, keyspace: int,
                  theta: float, seed: int, requests: int) -> LoadSchedule:
    """Play the arrival process, key generator and request coins for
    one load.  Cached: a sweep grid prices each load on many fleets,
    and these six fields are everything the load depends on."""
    key_seed = stable_hash(("keys", seed))
    keys = (ScrambledZipf(keyspace, theta=theta, seed=key_seed) if theta
            else UniformGenerator(keyspace, seed=key_seed))
    arrivals = build_arrivals(arrival, mean_gap_us,
                              seed=stable_hash(("arrivals", seed)))
    starts = []
    when = 0
    for _ in range(requests):
        when += arrivals.next_gap(when)
        starts.append(when)
    return LoadSchedule(
        starts=tuple(starts),
        keys=tuple(keys.next() for _ in range(requests)),
        coins=tuple(request_rng(seed, rid).random()
                    for rid in range(requests)))


class ClusterService:
    """One fleet instance wired to a seeded event loop."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.policy = config.policy
        self.loop = EventLoop()
        self.node_ids = list(range(config.fleet))
        self.nodes = {
            node_id: Node(node_id,
                          build_backend(config.workload,
                                        model=config.cost_model,
                                        node_id=node_id, seed=config.seed),
                          workers=config.workers_per_node, seed=config.seed,
                          plan=config.node_plan)
            for node_id in self.node_ids
        }
        self.ring = HashRing(self.node_ids, vnodes=config.vnodes)
        self.balancer = LoadBalancer(self.node_ids)
        self.recorder = LatencyRecorder()
        self.schedule = config.load()
        #: coordinator-side version counter per key
        self._versions: dict[int, int] = {}
        #: every (key, version) the client was told is durable
        self._acked: list[tuple[int, int]] = []
        self.acked_writes = 0

    # -- request entry points ----------------------------------------------
    def _start_request(self, rid: int, intended: int) -> None:
        key = self.schedule.keys[rid]
        walk = self.ring.walk(key)
        replication = self.config.replication
        pref = list(walk[:replication])
        if self.schedule.coins[rid] < self.config.read_fraction:
            state = {
                "rid": rid, "key": key, "intended": intended, "pref": pref,
                "attempts": 0, "retries": 0, "outstanding": 0,
                "hedged": False, "done": False, "timed_out": False,
                "backoffs": None,
            }
            self._send_read(state, self._pick_target(state))
            self.loop.after(int(self.policy.hedge_after),
                            lambda: self._hedge(state))
        else:
            self._start_write(key, intended, pref, walk[replication:])

    # -- read path ---------------------------------------------------------
    def _pick_target(self, state: dict) -> int:
        ordered = self.balancer.order(state["pref"], self.loop.now)
        return ordered[state["attempts"] % len(ordered)]

    def _send_read(self, state: dict, node_id: int) -> None:
        state["attempts"] += 1
        state["outstanding"] += 1
        attempt = {"settled": False}
        network = self.config.network_us

        def deliver() -> None:
            if state["done"] or attempt["settled"]:
                return
            node = self.nodes[node_id]
            if not node.available():
                # Connection refused: an error races back one hop.
                self.loop.after(network,
                                lambda: self._read_refused(state, attempt,
                                                           node_id))
                return
            finish = node.admit(self.loop.now, "read")
            if finish is None:
                return  # request-drop fault: silence; the timeout fires

            def respond() -> None:
                if not self.nodes[node_id].up:
                    return  # crashed mid-service: response lost in flight
                self._read_succeeded(state, attempt, node_id)

            self.loop.at(finish + network, respond)

        def expire() -> None:
            if state["done"] or attempt["settled"]:
                return
            attempt["settled"] = True
            state["outstanding"] -= 1
            state["timed_out"] = True
            self.balancer.record(node_id, self.loop.now, False)
            self._next_read_attempt(state)

        self.loop.after(network, deliver)
        self.loop.after(int(self.policy.timeout), expire)

    def _read_refused(self, state: dict, attempt: dict, node_id: int) -> None:
        if state["done"] or attempt["settled"]:
            return
        attempt["settled"] = True
        state["outstanding"] -= 1
        self.balancer.record(node_id, self.loop.now, False)
        self._next_read_attempt(state)

    def _read_succeeded(self, state: dict, attempt: dict,
                        node_id: int) -> None:
        if attempt["settled"]:
            return  # answered after its own deadline: already counted
        attempt["settled"] = True
        state["outstanding"] -= 1
        self.balancer.record(node_id, self.loop.now, True)
        if state["done"]:
            return  # the hedge's sibling already won this request
        state["done"] = True
        self.recorder.observe(state["intended"], self.loop.now, ok=True,
                              retries=state["retries"],
                              hedged=state["hedged"],
                              timed_out=state["timed_out"])
        if state["rid"] % 8 == 0 and self.config.replication > 1:
            self._digest_check(state["key"], node_id, state["pref"])

    def _next_read_attempt(self, state: dict) -> None:
        if state["done"]:
            return
        index = state["retries"]
        if index < self.policy.max_retries:
            if state["backoffs"] is None:
                # Drawn at the first retry from the request's RNG, past
                # the coin the schedule already holds: the numbers an
                # up-front draw would give, since nothing else draws.
                rng = request_rng(self.config.seed, state["rid"])
                rng.random()
                state["backoffs"] = self.policy.schedule(rng)
            state["retries"] += 1
            delay = int(state["backoffs"][index])
            self.loop.after(delay, lambda: self._retry_read(state))
        elif state["outstanding"] > 0:
            # Retries are spent but an attempt is still in flight; its
            # own response or per-attempt timeout decides the request.
            return
        else:
            state["done"] = True
            self.recorder.observe(state["intended"], self.loop.now, ok=False,
                                  retries=state["retries"],
                                  hedged=state["hedged"],
                                  timed_out=state["timed_out"],
                                  dropped=not state["timed_out"])

    def _retry_read(self, state: dict) -> None:
        if state["done"]:
            return
        self._send_read(state, self._pick_target(state))

    def _hedge(self, state: dict) -> None:
        if state["done"] or state["hedged"]:
            return
        state["hedged"] = True
        self._send_read(state, self._pick_target(state))

    def _digest_check(self, key: int, responder: int,
                      pref: list[int]) -> None:
        """Compare the responder's version with the next replica's; the
        staler side is repaired in the background (read repair)."""
        partner = next((n for n in pref if n != responder), None)
        if partner is None:
            return
        a, b = self.nodes[responder], self.nodes[partner]
        va, vb = a.backend.version_of(key), b.backend.version_of(key)
        if va == vb:
            return
        stale, newer = (a, vb) if va < vb else (b, va)
        if not stale.available():
            return
        finish = stale.admit(self.loop.now, "repair")
        if finish is None:
            return

        def apply_repair() -> None:
            if stale.up:
                stale.backend.apply(key, newer)
                stale.counters.read_repairs += 1

        self.loop.at(finish, apply_repair)

    # -- write path --------------------------------------------------------
    def _start_write(self, key: int, intended: int, pref: list[int],
                     extras: tuple[int, ...]) -> None:
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        quorum = self.config.replication // 2 + 1
        network = self.config.network_us

        # Sloppy quorum: each down owner is substituted by the next
        # available node on the ring walk past the preference list
        # (``extras``), which holds a durable hint.
        assignments: list[tuple[int, str, int | None]] = []
        extra_index = 0
        for owner in pref:
            if self.nodes[owner].available():
                assignments.append((owner, "update", None))
                continue
            while extra_index < len(extras) \
                    and not self.nodes[extras[extra_index]].available():
                extra_index += 1
            if extra_index < len(extras):
                assignments.append((extras[extra_index], "hint", owner))
                extra_index += 1

        state = {"acks": 0, "done": False,
                 "acked_by": {node_id: False for node_id, _, _ in assignments}}

        def make_deliver(node_id: int, op: str, owner: int | None):
            def deliver() -> None:
                node = self.nodes[node_id]
                if not node.available():
                    return  # crashed since assignment: silence
                finish = node.admit(self.loop.now, op)
                if finish is None:
                    return

                def complete() -> None:
                    node_now = self.nodes[node_id]
                    if not node_now.up:
                        return  # in-flight work died with the process
                    # The write is durable from this point on.
                    if op == "update":
                        node_now.backend.apply(key, version)
                    else:
                        node_now.backend.store_hint(owner, key, version)
                        node_now.counters.hints_stored += 1
                    self.loop.after(network, ack)

                def ack() -> None:
                    self.balancer.record(node_id, self.loop.now, True)
                    if state["done"]:
                        return
                    state["acked_by"][node_id] = True
                    state["acks"] += 1
                    if state["acks"] >= quorum:
                        state["done"] = True
                        self.acked_writes += 1
                        self._acked.append((key, version))
                        self.recorder.observe(intended, self.loop.now,
                                              ok=True)

                self.loop.at(finish, complete)

            return deliver

        for node_id, op, owner in assignments:
            self.loop.after(network, make_deliver(node_id, op, owner))

        def deadline() -> None:
            if state["done"]:
                return
            state["done"] = True
            for node_id, acked in state["acked_by"].items():
                if not acked:
                    self.balancer.record(node_id, self.loop.now, False)
            self.recorder.observe(intended, self.loop.now, ok=False,
                                  timed_out=True,
                                  dropped=not assignments)

        self.loop.after(int(self.policy.timeout), deadline)

    # -- fleet faults ------------------------------------------------------
    def _schedule_faults(self) -> None:
        for event in self.config.fault_plan.events:
            heal_at = event.at_us + event.duration_us
            if event.kind == "node-crash":
                node = self.nodes[event.target % self.config.fleet]
                self.loop.at(event.at_us, node.crash)
                self.loop.at(heal_at,
                             lambda n=node: self._recover_node(n))
            elif event.kind == "slow-node":
                node = self.nodes[event.target % self.config.fleet]
                factor = 1.0 + 3.0 * event.severity
                self.loop.at(event.at_us,
                             lambda n=node, until=heal_at, f=factor:
                             n.slow(until, f))
            elif event.kind == "partition":
                shard = self.ring.preference_list(event.target,
                                                  self.config.replication)
                self.loop.at(event.at_us,
                             lambda ids=shard: self._partition(ids, True))
                self.loop.at(heal_at,
                             lambda ids=shard: self._partition(ids, False))

    def _recover_node(self, node: Node) -> None:
        node.recover()
        self._replay_hints(node.node_id)

    def _partition(self, node_ids: list[int], isolated: bool) -> None:
        for node_id in node_ids:
            self.nodes[node_id].partition(isolated)
        if not isolated:
            for node_id in node_ids:
                self._replay_hints(node_id)

    def _replay_hints(self, node_id: int) -> None:
        """Deliver every hinted write queued for a returning node."""
        target = self.nodes[node_id]
        for holder_id in self.node_ids:
            if holder_id == node_id:
                continue
            for key, version in self.nodes[holder_id].backend \
                    .take_hints(node_id):
                target.backend.apply(key, version)
                target.counters.hints_replayed += 1

    # -- health probing ----------------------------------------------------
    def _probe(self, total: int) -> None:
        now = self.loop.now
        for node_id in self.node_ids:
            node = self.nodes[node_id]
            node.counters.probes += 1
            self.balancer.record(node_id, now, node.available())
        if self.recorder.requests < total:
            self.loop.after(self.config.probe_interval_us,
                            lambda: self._probe(total))

    # -- the run -----------------------------------------------------------
    def run(self) -> dict:
        config = self.config
        for rid, when in enumerate(self.schedule.starts):
            self.loop.at(when, lambda r=rid, t=when: self._start_request(r, t))
        last_intended = self.schedule.starts[-1]
        self._schedule_faults()
        self.loop.after(config.probe_interval_us,
                        lambda: self._probe(config.requests))
        fault_end = max(
            (e.at_us + e.duration_us for e in config.fault_plan.events),
            default=0)
        horizon = (max(last_intended, fault_end) + config.latency_bound()
                   + 2 * config.probe_interval_us + 1_000_000)
        self.loop.run(horizon=horizon)
        return self._summary(last_intended)

    def _audit(self) -> int:
        """Acked writes no replica (nor hint log) can produce anymore."""
        lost = 0
        for key, version in self._acked:
            for node in self.nodes.values():
                if node.backend.version_of(key) >= version:
                    break
                if node.backend.hinted_version_of(key) >= version:
                    break
            else:
                lost += 1
        return lost

    def _summary(self, last_intended: int) -> dict:
        config = self.config
        per_node = [self.nodes[node_id].counters.summary()
                    for node_id in self.node_ids]
        busy_total = sum(profile["busy_us"] for profile in per_node)
        hot_share = (max(profile["busy_us"] for profile in per_node)
                     / busy_total if busy_total else 0.0)
        summary = dict(self.recorder.summary())
        summary.update({
            "workload": config.workload,
            "costs": config.costs,
            "fleet": config.fleet,
            "replication": config.replication,
            "fault": config.fault_plan.name,
            "arrival": config.arrival,
            "theta": config.theta,
            "seed": config.seed,
            "acked_writes": self.acked_writes,
            "acked_lost": self._audit(),
            "ejections": self.balancer.ejections,
            "readmissions": self.balancer.readmissions,
            "hints_stored": sum(p["hints_stored"] for p in per_node),
            "hints_replayed": sum(p["hints_replayed"] for p in per_node),
            "read_repairs": sum(p["read_repairs"] for p in per_node),
            "probes": sum(p["probes"] for p in per_node),
            "hot_node_share": hot_share,
            "latency_bound": config.latency_bound(),
            "sim_us": self.loop.now,
            "events_fired": self.loop.fired,
            "last_intended_us": last_intended,
            "per_node": per_node,
        })
        return summary


def simulate(config: ClusterConfig) -> dict:
    """Run one fleet cell and return its JSON-shaped summary."""
    return ClusterService(config).run()
