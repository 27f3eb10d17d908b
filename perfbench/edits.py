"""The ``daemon-edits`` request script: a pure function of the workload seed.

``SESSIONS`` sessions are opened, each over its own SPEC-model module and
with its own script; their requests take turns.  Each session's set-up
update adds
families of mini-C functions: members of a family share one statement
shape and differ in constants, so they merge.  The timed script then sends
single-edit ``session_update`` requests - mostly ``replace`` (a new member
body of the same family, which keeps or creates a merge, or a foreign body,
which breaks one), some ``add`` and ``remove``, in a fixed cycle of edit
kinds - and every ``COMPILE_EVERY``-th request is a ``compile_module`` of
one small MiBench model that has mergeable families (``COMPILE_MODEL``).
Compile payloads are distinct (they miss the daemon's response memo) except
every ``REPEAT_EVERY``-th, which repeats an earlier payload and hits it.
Which names are edited, the new bodies and the payloads' generator seeds
come from the seed.

The mix is an assumption: the repository has no log of real client
traffic.  ``perfbench/README.md`` gives the reason for each value.
"""

from __future__ import annotations

import random

#: Sessions open at once.  The cost of an update depends on the session's
#: generated module and drawn family bodies, so one session's median moves
#: by a third from seed to seed; a run averages over several.
SESSIONS = 3
#: The model each session is opened over.
SESSION_BENCHMARK = "403.gcc"
SESSION_SCALE = 0.01
SESSION_CAP = 24

FAMILIES = 4
MEMBERS = 3
#: Statements per loop body; one length for every family keeps the cost of
#: an edit about the same whichever family it hits.
SHAPE_LENGTH = 10
#: Edit kinds, in turn: ``same`` and ``foreign`` are replaces with a body
#: of the member's family, or with one whose statements come in another
#: order and do not align with it.  Adds and removes balance, so the
#: population stays near ``FAMILIES * MEMBERS``.
EDIT_CYCLE = ("same", "same", "foreign", "add", "same", "same", "foreign",
              "remove")

#: One write per read: a 20 s run gets about 35 samples of each, enough
#: for a p50 and a tail with ten samples beyond it.
COMPILE_EVERY = 2
#: One compile in four repeats an earlier payload and hits the memo.
REPEAT_EVERY = 4

#: The MiBench model of the compile payloads, and its scale: a model with
#: mergeable families whose compile takes about 0.2 s.  One model, not a
#: rotation: compiles of different models take different times, and the
#: request p50 would then fall between their clusters and jump from run to
#: run.  Of the small models tried, its Fig 14 overhead varies least across
#: generator seeds: ``stringsearch`` and ``bitcount`` swing more,
#: ``rijndael`` reads 0.
COMPILE_MODEL = "ghostscript"
COMPILE_SCALE = 0.006

_OPS = ("+", "-", "*", "^", "&", "|")
_KINDS = ("arith", "cond", "mix")


def _shape(rng: random.Random, offset: int) -> list:
    """``SHAPE_LENGTH`` statements.  The statement kinds follow one fixed
    rotation, so every body has about the same size; the operators are
    drawn.  Each family starts the rotation at its own ``offset``, so
    bodies of different offsets do not align."""
    return [(_KINDS[(index + offset) % len(_KINDS)], rng.choice(_OPS))
            for index in range(SHAPE_LENGTH)]


def function_source(name: str, shape: list, consts: list) -> str:
    """Mini-C for one member: a loop whose body follows ``shape``."""
    lines = [f"int {name}(int *a, int n, int k) {{",
             f"    int acc = {consts[0]};",
             "    for (int i = 0; i < n; i++) {",
             "        int v = a[i];"]
    for index, (kind, op) in enumerate(shape):
        const = consts[(index + 1) % len(consts)]
        if kind == "arith":
            lines.append(f"        v = v {op} {const};")
        elif kind == "cond":
            other = "+" if op == "-" else "-"
            lines.append(f"        if (v > {const}) {{ acc = acc {op} v; }} "
                         f"else {{ acc = acc {other} {const}; }}")
        else:
            lines.append(f"        acc = acc {op} (v * k + {const});")
    lines += ["    }", f"    return acc {shape[0][1]} k;", "}", ""]
    return "\n".join(lines)


class RequestScript:
    """The seeded request sequence; two instances with one seed produce
    identical requests."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self._shapes = [_shape(self._rng, family) for family in range(FAMILIES)]
        self._live = {}        # name -> family index
        self._added = 0
        self._edits = 0
        self._compiles = []    # payloads sent so far
        self.session_payload = {
            "kind": "workload", "suite": "spec2006",
            "benchmark": SESSION_BENCHMARK, "scale": SESSION_SCALE,
            "cap": SESSION_CAP, "seed": seed}

    def _body(self, name: str, family: int, foreign: bool = False) -> dict:
        shape = self._shapes[family]
        if foreign:
            shape = _shape(self._rng, family + 1)
        consts = [self._rng.randrange(1, 64) for _ in range(4)]
        return {"name": name, "source": function_source(name, shape, consts)}

    def seed_edits(self) -> list:
        """The set-up update: every family's first members."""
        edits = []
        for family in range(FAMILIES):
            for member in range(MEMBERS):
                name = f"fam{family}_m{member}"
                self._live[name] = family
                edits.append(dict(op="add", **self._body(name, family)))
        return edits

    def _edit(self) -> dict:
        kind = EDIT_CYCLE[self._edits % len(EDIT_CYCLE)]
        self._edits += 1
        if kind == "add":
            family = self._rng.randrange(FAMILIES)
            name = f"fam{family}_x{self._added}"
            self._added += 1
            self._live[name] = family
            return dict(op="add", **self._body(name, family))
        if kind == "remove":
            # the cycle adds before it removes, so an added member exists
            name = self._rng.choice(sorted(n for n in self._live if "_x" in n))
            del self._live[name]
            return {"op": "remove", "name": name}
        name = self._rng.choice(sorted(self._live))
        return dict(op="replace", **self._body(name, self._live[name],
                                                foreign=kind == "foreign"))

    def _compile_payload(self) -> dict:
        index = len(self._compiles)
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            payload = self._compiles[index - 2]
        else:
            payload = {"kind": "workload", "suite": "mibench",
                       "benchmark": COMPILE_MODEL, "scale": COMPILE_SCALE,
                       "seed": self.seed * 10007 + index}
        self._compiles.append(payload)
        return payload

    def requests(self, count: int):
        """``count`` requests after set-up: ``("update", [edit])`` or
        ``("compile", payload)``."""
        for index in range(count):
            if index % COMPILE_EVERY == COMPILE_EVERY - 1:
                yield "compile", self._compile_payload()
            else:
                yield "update", [self._edit()]


class Workload:
    """Every session's script, with the requests of all of them
    interleaved: session ``i`` uses seed ``seed * SESSIONS + i``."""

    def __init__(self, seed: int):
        self.scripts = [RequestScript(seed * SESSIONS + index)
                        for index in range(SESSIONS)]

    def requests(self, count: int):
        """``count`` requests after set-up, ``(session, kind, body)``; the
        sessions take turns."""
        per_session = -(-count // SESSIONS)
        streams = [script.requests(per_session) for script in self.scripts]
        for index in range(count):
            session = index % SESSIONS
            kind, body = next(streams[session])
            yield session, kind, body
