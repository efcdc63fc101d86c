"""MySQL-like backend serving the Olio frontend's queries.

The query mix mirrors what :mod:`repro.apps.webstack.olio`'s pages
issue: event lists (range scans), event/user point reads, tag lookups,
and the occasional insert.  Compared with TPC-C the transactions are
simpler and read-heavier, which is why the paper groups Web Backend
with TPC-E as the "more recent" transaction workloads that scale-out
behaviour most resembles.
"""

from __future__ import annotations

from repro.apps.base import ServerApp
from repro.apps.oltp.engine import StorageEngine
from repro.machine.runtime import Runtime


class WebBackendApp(ServerApp):
    """The Olio database tier on a MySQL-like engine."""

    name = "web-backend"
    os_intensive = True

    CODE_PLAN = [
        ("net_service", 96, "scatter", 7, 0.2),
        ("sql_parser", 160, "scatter", 7, 0.12),
        ("optimizer", 192, "scatter", 7, 0.12),
        ("executor", 256, "scatter", 7, 0.12),
        ("innodb_btree", 192, "scatter", 7, 0.15),
        ("buffer_pool", 160, "scatter", 7, 0.15),
        ("lock_log_code", 128, "scatter", 7, 0.15),
        ("mysql_runtime", 320, "scatter", 7, 0.1),
    ]

    QUERY_MIX = [
        ("q_event_list", 30.0),
        ("q_event_detail", 26.0),
        ("q_user", 18.0),
        ("q_tag_search", 14.0),
        ("q_comments", 8.0),
        ("q_insert_event", 2.5),
        ("q_insert_comment", 1.5),
    ]

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)

    def setup(self) -> None:
        self.fns = {
            name: self.layout.function(
                f"mysql.{name}", kb * 1024, locality=loc,
                bb_mean=bb, hot_fraction=hot,
            )
            for name, kb, loc, bb, hot in self.CODE_PLAN
        }
        self.engine = StorageEngine(self.space)
        self.users = self.engine.create_table("users", 100_000, 512)
        self.events = self.engine.create_table("events", 60_000, 512)
        self.comments = self.engine.create_table("comments", 240_000, 256)
        self.tags = self.engine.create_table("tags", 2_000, 128)
        self.users.load(range(100_000))
        self.events.load(range(50_000))
        self.comments.load(range(160_000))
        self.tags.load(range(2_000))
        self._next_event = 50_000
        self._next_comment = 160_000
        self._cdf: list[tuple[float, str]] = []
        total = sum(w for _, w in self.QUERY_MIX)
        acc = 0.0
        for name, weight in self.QUERY_MIX:
            acc += weight / total
            self._cdf.append((acc, name))
        self.queries_served = 0

    def warm_ranges(self):
        engine = self.engine
        return [
            (engine.locks.lock_words.base, engine.locks.lock_words.nbytes),
            (engine.buffer_control.base, engine.buffer_control.nbytes),
            (engine.log_buffer, engine.log_buffer_bytes),
            (self.tags.rows.base, self.tags.rows.nbytes),
        ]

    def serve(self, rt: Runtime) -> None:
        draw = self.rng.random()
        query = next(name for edge, name in self._cdf if draw <= edge)
        self.kernel.recv(rt, 192, sock_id=rt.tid * 67 + self.queries_served % 32)
        with rt.frame(self.fns["net_service"]):
            rt.alu(n=25, chain=False)
        with rt.frame(self.fns["sql_parser"]):
            rt.alu(n=110, chain=False)
        with rt.frame(self.fns["optimizer"]):
            rt.alu(n=120, chain=False)
        with rt.frame(self.fns["executor"]):
            self.engine.touch_buffer_manager(rt)
            with rt.frame(self.fns["innodb_btree"]):
                getattr(self, f"_{query}")(rt)
        with rt.frame(self.fns["mysql_runtime"]):
            rt.alu(n=110, chain=False)
        self.kernel.send(rt, 2048, sock_id=rt.tid * 67 + self.queries_served % 32)
        self.queries_served += 1

    # -- queries ------------------------------------------------------------
    def _q_event_list(self, rt: Runtime) -> None:
        start = self.rng.randrange(50_000)
        rows = self.events.index.range_scan(start, 12, rt)
        for _key, slot in rows[:8]:
            token = rt.load(self.events.rows.addr(slot))
            rt.alu((token,), n=6, chain=False)

    def _q_event_detail(self, rt: Runtime) -> None:
        self.events.read(self.rng.randrange(50_000), rt, lines=4)
        self.comments.index.range_scan(self.rng.randrange(160_000), 10, rt)
        rt.alu(n=40, chain=False)

    def _q_user(self, rt: Runtime) -> None:
        self.users.read(self.rng.randrange(100_000), rt, lines=4)
        rt.alu(n=30, chain=False)

    def _q_tag_search(self, rt: Runtime) -> None:
        self.tags.read(self.rng.randrange(2_000), rt, lines=1)
        self.events.index.range_scan(self.rng.randrange(50_000), 10, rt)
        rt.alu(n=35, chain=False)

    def _q_comments(self, rt: Runtime) -> None:
        rows = self.comments.index.range_scan(self.rng.randrange(160_000), 8, rt)
        for _key, slot in rows[:6]:
            rt.load(self.comments.rows.addr(slot))
        rt.alu(n=25, chain=False)

    def _q_insert_event(self, rt: Runtime) -> None:
        self.engine.locks.acquire(rt, ("events", self._next_event))
        self.events.insert(self._next_event % self.events.capacity, rt)
        self._next_event += 1
        self.engine.log_append(rt, 192)
        self.kernel.log_write(rt, 256)
        self.engine.locks.release_all(rt)

    def _q_insert_comment(self, rt: Runtime) -> None:
        self.engine.locks.acquire(rt, ("comments", self._next_comment))
        self.comments.insert(self._next_comment % self.comments.capacity, rt)
        self._next_comment += 1
        self.engine.log_append(rt, 128)
        self.kernel.log_write(rt, 192)
        self.engine.locks.release_all(rt)
