"""The four workloads: populations, seeded request streams, the oracle.

Every request is a JSON-lines request of ``repro serve --port``.  The
seed chooses keys (and fine amounts) only; the server sees nothing but
the generated requests.  Connection ``c`` owns the keys ``i`` with
``i % CONNECTIONS == c``, so the two request streams touch disjoint
instances and the final state does not depend on how the server
interleaved them -- which is what lets one in-process oracle replay each
connection's stream in turn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.diagnostics import TrollError
from repro.distributed.coordinator import normalize_state
from repro.distributed.workload import COUNTER_SPEC
from repro.library import LENDING_LIBRARY_SPEC
from repro.runtime.objectbase import ObjectBase
from repro.runtime.persistence import dump_state, value_from_json, value_to_json

#: client connections; the load comes from one process
CONNECTIONS = 2

#: ops that change state (everything else is a read)
MUTATING = frozenset({"create", "occur"})


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration.

    ``sizes`` holds every size the run depends on; callers (the smoke
    test) pass smaller ones through :func:`resolve_sizes`.  A run sets
    up ``servers`` servers in turn and gives each an equal share of the
    measured requests.  Closed loops send ``requests_per_second *
    seconds`` requests in all -- a count fixed by the run length, never
    by how fast the server answers, because per-request cost grows with
    history (see README.md).  The open loop sends ``rate`` requests per
    second, so its shares add up to ``seconds``."""

    name: str
    spec: str
    sizes: Dict[str, Any] = field(default_factory=dict)
    paged: bool = False
    open_loop: bool = False


WORKLOADS: Dict[str, Workload] = {
    "bump-durable": Workload(
        "bump-durable",
        COUNTER_SPEC,
        {"counters": 256, "requests_per_second": 900, "servers": 3},
    ),
    "read-paged": Workload(
        "read-paged",
        LENDING_LIBRARY_SPEC,
        {
            "members": 2000,
            "hot_set": 256,
            "requests_per_second": 2800,
            "servers": 3,
        },
        paged=True,
    ),
    "loan-2pc": Workload(
        "loan-2pc",
        LENDING_LIBRARY_SPEC,
        {"members": 1000, "requests_per_second": 400, "servers": 3},
    ),
    "bump-open": Workload(
        "bump-open",
        COUNTER_SPEC,
        {"counters": 256, "rate": 300, "servers": 3},
        open_loop=True,
    ),
}


def resolve_sizes(
    workload: Workload, seconds: float, overrides: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The workload's sizes for a run of ``seconds``, with ``overrides``
    applied; ``requests`` is the measured request count over all
    servers."""
    sizes = dict(workload.sizes)
    sizes.update(overrides or {})
    if "requests" not in sizes:
        rate = sizes["rate"] if workload.open_loop else sizes["requests_per_second"]
        sizes["requests"] = int(round(rate * seconds))
    # every server gets the same share; loan-2pc pairs each borrow with
    # its give_back on one connection
    unit = 2 * CONNECTIONS * sizes["servers"]
    sizes["requests"] = max(unit, sizes["requests"] - sizes["requests"] % unit)
    return sizes


def _book(index: int) -> Dict[str, Any]:
    return {"k": "id", "class": "BOOK", "key": f"b{index}"}


def population(workload: Workload, sizes: Dict[str, Any], conn: int) -> List[dict]:
    """The create requests connection ``conn`` sends during set-up."""
    if workload.spec is COUNTER_SPEC:
        return [
            {"op": "create", "class": "COUNTER", "identification": {"IdNo": i}}
            for i in range(conn, sizes["counters"], CONNECTIONS)
        ]
    creates = []
    for i in range(conn, sizes["members"], CONNECTIONS):
        creates.append(
            {
                "op": "create",
                "class": "MEMBER",
                "identification": {"MName": f"m{i}"},
                "event": "join",
            }
        )
        creates.append(
            {
                "op": "create",
                "class": "BOOK",
                "identification": {"Isbn": f"b{i}"},
                "event": "acquire",
                "args": [f"title {i}"],
            }
        )
    return creates


def requests(
    workload: Workload, sizes: Dict[str, Any], seed: int, conn: int, server: int
) -> List[dict]:
    """Connection ``conn``'s measured requests to server ``server`` of
    the run, in send order."""
    rng = random.Random(f"{seed}:{workload.name}:{conn}:{server}")
    count = sizes["requests"] // (CONNECTIONS * sizes["servers"])
    if workload.spec is COUNTER_SPEC:
        counters = sizes["counters"]
        return [
            {
                "op": "occur",
                "class": "COUNTER",
                "key": rng.randrange(conn, counters, CONNECTIONS),
                "event": "bump",
            }
            for _ in range(count)
        ]
    keys = list(range(conn, sizes["members"], CONNECTIONS))
    if workload.name == "loan-2pc":
        out = []
        for _ in range(count // 2):
            member, book = f"m{rng.choice(keys)}", _book(rng.choice(keys))
            for event in ("borrow", "give_back"):
                out.append(
                    {
                        "op": "occur",
                        "class": "MEMBER",
                        "key": member,
                        "event": event,
                        "args": [book],
                    }
                )
        return out
    # read-paged: 80% of requests go to a seeded 20% of the keys
    rng.shuffle(keys)
    hot, cold = keys[: len(keys) // 5], keys[len(keys) // 5 :]
    out = []
    for _ in range(count):
        index = rng.choice(hot if rng.random() < 0.8 else cold)
        draw = rng.random()
        member = rng.random() < 0.5
        if draw < 0.6:
            request = (
                {"op": "get", "class": "MEMBER", "key": f"m{index}", "attribute": "Fines"}
                if member
                else {"op": "get", "class": "BOOK", "key": f"b{index}", "attribute": "OnLoan"}
            )
        elif draw < 0.9:
            request = (
                {
                    "op": "is_permitted",
                    "class": "MEMBER",
                    "key": f"m{index}",
                    "event": "pay_fine",
                    "args": [1],
                }
                if member
                else {"op": "is_permitted", "class": "BOOK", "key": f"b{index}", "event": "lend"}
            )
        else:
            request = {
                "op": "occur",
                "class": "MEMBER",
                "key": f"m{index}",
                "event": "incur_fine",
                "args": [rng.randint(1, 5)],
            }
        out.append(request)
    return out


# ----------------------------------------------------------------------
# The oracle: one in-process ObjectBase replaying the acknowledged stream
# ----------------------------------------------------------------------


def _args(request: dict) -> List[Any]:
    return [
        value_from_json(a) if isinstance(a, dict) else a
        for a in request.get("args") or []
    ]


def _expected(system: ObjectBase, request: dict) -> dict:
    """The reply fields ``repro serve`` must produce for ``request``."""
    op = request["op"]
    try:
        if op == "create":
            system.create(
                request["class"], request["identification"], request.get("event"),
                _args(request),
            )
            return {"ok": True}
        target = (request["class"], request["key"])
        if op == "occur":
            system.occur(target, request["event"], _args(request))
            return {"ok": True}
        if op == "get":
            value = system.get(target, request["attribute"], _args(request))
            return {"ok": True, "value": value_to_json(value)}
        if op == "is_permitted":
            instance = system.instance(*target)
            return {
                "ok": True,
                "permitted": system.is_permitted(instance, request["event"], _args(request)),
            }
    except TrollError as error:
        return {"ok": False, "error": type(error).__name__}
    raise ValueError(f"the oracle does not model op {op!r}")


def oracle_check(
    workload: Workload, streams: List[List[Tuple[dict, dict]]]
) -> Tuple[List[str], Dict[str, Any]]:
    """Replay each connection's ``(request, reply)`` stream, in order,
    on a single-process ObjectBase.  Returns the mismatching replies
    (described) and the oracle's final state in the canonical order of
    the server's merged ``dump``."""
    system = ObjectBase(workload.spec)
    mismatches = []
    for conn, stream in enumerate(streams):
        for index, (request, reply) in enumerate(stream):
            expected = _expected(system, request)
            got = {key: reply.get(key) for key in expected}
            if got != expected:
                mismatches.append(
                    f"conn {conn} request {index} {request}: "
                    f"server {got}, oracle {expected}"
                )
    return mismatches, normalize_state(dump_state(system))
