"""The program rules: RL001's control calls, RL003, RL010 and RL011
over a linked Program.

Each rule consumes the per-function summaries plus one of the
Program's fixpoints and yields :class:`Violation` findings.  The
shared discipline: findings anchor to a *call site the author can act
on* (the first hop of an offending chain, the acquire that closes a
cycle, the handler that swallows), and interprocedural context rides
in ``Violation.detail`` so the headline stays one line.
"""

from __future__ import annotations

from repro.tools.source import Violation

__all__ = ["run_rules"]

#: exception class names that are deterministic failures by definition
FATAL_SEEDS = {"FatalError"}


def _func_label(program, fid):
    record = program.functions[fid]
    return f"{record['qual']} ({record['rel']}:{record['line']})"


# -- RL001: control-path isolation -----------------------------------------

def _rl001(program):
    """Every control call a steady-state data-path function makes or
    reaches — one reach computation, two shapes of finding."""
    seeds = {fid for fid, f in program.functions.items()
             if f["control_sites"]}
    reach = program.propagate_flag(seeds)
    for fid in sorted(program.functions):
        func = program.functions[fid]
        if (not func["data_path"] or func["control_named"]
                or fid not in reach):
            continue
        if fid in seeds:
            # a direct control call: one finding per site
            for site in func["control_sites"]:
                yield Violation(
                    func["rel"], site["line"], "RL001",
                    f"control-path call .{site['name']}() from function "
                    f"{func['name']!r} — move it into a create/open/"
                    "setup-style function")
            continue
        # anchor at the root's earliest call that reaches the control
        # path (stable under unrelated edits), then follow the BFS
        # witness chain from there to a concrete control site
        candidates = [
            (func["calls"][index]["line"], callee)
            for index, callee in program.edges[fid]
            if callee in reach
        ]
        line, callee = min(candidates)
        chain, lines = [fid, callee], [line]
        cur = callee
        while reach[cur] is not None:
            line, callee = reach[cur]
            lines.append(line)
            chain.append(callee)
            cur = callee
        site = min((s["line"], s["name"])
                   for s in program.functions[cur]["control_sites"])
        detail = ["call path:"]
        for hop, (caller, line) in enumerate(zip(chain[:-1], lines)):
            arrow = "   " if hop == 0 else "-> "
            callee = chain[hop + 1]
            detail.append(
                f"{arrow}{_func_label(program, caller)} calls "
                f"{program.functions[callee]['qual']} at "
                f"{program.functions[caller]['rel']}:{line}")
        leaf = program.functions[cur]
        detail.append(f"-> .{site[1]}() at {leaf['rel']}:{site[0]}")
        yield Violation(
            func["rel"], lines[0], "RL001",
            f"steady-state data-path function {func['qual']!r} reaches "
            f"control-path call .{site[1]}() through a "
            f"{len(chain) - 1}-hop helper chain — hoist the control "
            "work into a create/open/setup-style caller or pass the "
            "mapped state in",
            detail=detail)


# -- RL003: future-escape --------------------------------------------------

def _returns_future(program):
    """Fixpoint: does calling f hand back an OpFuture?"""
    flags = {fid: f["returns_future"]
             for fid, f in program.functions.items()}
    changed = True
    while changed:
        changed = False
        for fid, func in program.functions.items():
            if flags[fid]:
                continue
            resolved = dict(program.edges[fid])
            for index in func["return_calls"]:
                callee = resolved.get(index)
                if callee is not None and flags[callee]:
                    flags[fid] = True
                    changed = True
                    break
    return flags


def _rl003(program):
    flags = _returns_future(program)

    def future_source(func, resolved, index):
        """``name()`` of the call at *index* if it hands back a future:
        a ``*_async`` call itself, or a helper that returns one."""
        name = func["calls"][index]["name"]
        if name.endswith("_async"):
            return f"{name}()"
        callee = resolved.get(index)
        if callee is not None and flags[callee]:
            return f"{program.functions[callee]['qual']}()"
        return None

    for fid in sorted(program.functions):
        func = program.functions[fid]
        resolved = dict(program.edges[fid])
        for record in func["bare_calls"]:
            source = future_source(func, resolved, record["index"])
            if source is not None:
                yield Violation(
                    func["rel"], record["line"], "RL003",
                    f"discards the future returned by {source} — store, "
                    "wait, or batch it")
        for record in func["assigned_calls"]:
            source = future_source(func, resolved, record["index"])
            if source is not None:
                yield Violation(
                    func["rel"], record["line"], "RL003",
                    f"future from {source} assigned to {record['var']!r} "
                    "is never read again — nobody waits it, nobody sees "
                    "its error")


# -- RL010: static lock-order graph ----------------------------------------

def _lock_key(program, fid, recv):
    """A static identity for the lock behind a receiver expression.

    Preference order: constructing class + constant lock name (shared
    program-wide), constructing class + attribute slot (shared across
    one class's methods), then a purely local key (still good for
    intra-function edges)."""
    func = program.functions[fid]
    module = func["module"]
    own_cid = f"{module}:{func['cls']}" if func["cls"] else None

    def from_record(record, fallback):
        if record is None:
            return fallback
        cid = program._ctor_class(module, record["ctor"])
        cls = (cid.split(":", 1)[1] if cid
               else record["ctor"].split(".")[0])
        if record["name"]:
            return f"{cls}:{record['name']}"
        return f"{cls}@{fallback}"

    head, _, rest = recv.partition(".")
    if head in ("self", "cls") and own_cid and rest and "." not in rest:
        record = program.classes.get(own_cid, {}) \
            .get("attrs", {}).get(rest)
        return from_record(record, f"{own_cid}.{rest}")
    if "." not in recv:
        record = func["local_types"].get(recv)
        return from_record(record, f"{fid}:{recv}")
    return f"{fid}:{recv}"


def _rl010(program):
    # transitive acquire sets: every lock key a call may take
    direct = {}
    for fid, func in program.functions.items():
        direct[fid] = {
            _lock_key(program, fid, e["recv"])
            for e in func["events"] if e["op"] == "acq"
        }
    acq_all = program.propagate_sets(direct)

    # edges: key -> key with the witness site of the second acquire
    edges = {}
    for fid in sorted(program.functions):
        func = program.functions[fid]
        resolved = dict(program.edges[fid])
        held = []
        for event in func["events"]:
            if event["op"] == "acq":
                key = _lock_key(program, fid, event["recv"])
                for h in held:
                    if h != key:
                        edges.setdefault(h, {}).setdefault(
                            key, (func["rel"], event["line"],
                                  func["qual"], None))
                if key not in held:
                    held.append(key)
            elif event["op"] == "rel":
                key = _lock_key(program, fid, event["recv"])
                if key in held:
                    held.remove(key)
            elif held:
                callee = resolved.get(event["index"])
                if callee is None:
                    continue
                for key in sorted(acq_all.get(callee, ())):
                    for h in held:
                        if h != key:
                            edges.setdefault(h, {}).setdefault(
                                key, (func["rel"], event["line"],
                                      func["qual"],
                                      program.functions[callee]["qual"]))

    # cycle detection: report every edge that lies on some cycle
    def reaches(start, goal, seen):
        if start == goal:
            return True
        if start in seen:
            return False
        seen.add(start)
        return any(reaches(nxt, goal, seen)
                   for nxt in edges.get(start, ()))

    for a in sorted(edges):
        for b in sorted(edges[a]):
            if not reaches(b, a, set()):
                continue
            rel, line, qual, via = edges[a][b]
            detail = [f"lock-order graph edge {a} -> {b} closes a "
                      "cycle; reverse path exists via:"]
            for x in sorted(edges):
                for y in sorted(edges[x]):
                    if reaches(b, x, set()) and reaches(y, a, set()):
                        xrel, xline, xqual, xvia = edges[x][y]
                        suffix = (f" (through {xvia})" if xvia else "")
                        detail.append(
                            f"{x} -> {y} at {xrel}:{xline} in "
                            f"{xqual}{suffix}")
            suffix = f" (through {via})" if via else ""
            yield Violation(
                rel, line, "RL010",
                f"lock-order inversion: acquires {b} while holding "
                f"{a}{suffix}, but the reverse order exists elsewhere "
                "— a schedule interleaving the two deadlocks",
                detail=detail)


# -- RL011: exception-flow conformance -------------------------------------

def _fatal_classes(program):
    fatal = set(FATAL_SEEDS)
    changed = True
    while changed:
        changed = False
        for cid, record in program.classes.items():
            name = cid.split(":", 1)[1].split(".")[-1]
            if name in fatal:
                continue
            for base in record["bases"]:
                if base.split(".")[-1] in fatal:
                    fatal.add(name)
                    changed = True
                    break
    return fatal


def _rl011(program):
    fatal = _fatal_classes(program)
    direct = {}
    for fid, func in program.functions.items():
        direct[fid] = {r.split(".")[-1] for r in func["raises"]
                       if r.split(".")[-1] in fatal}
    fatal_raises = program.propagate_sets(direct)

    for fid in sorted(program.functions):
        func = program.functions[fid]
        resolved = dict(program.edges[fid])
        for record in func["swallows"]:
            reachable = set()
            for index in record["calls"]:
                callee = resolved.get(index)
                if callee is not None:
                    reachable |= fatal_raises.get(callee, set())
            witness = (f" — this body can raise "
                       f"{', '.join(sorted(reachable))}, which would "
                       "be silently retried forever"
                       if reachable else "")
            yield Violation(
                func["rel"], record["line"], "RL011",
                "retry loop swallows every exception and continues — "
                "Fatal errors are deterministic and must propagate; "
                f"catch RecoverableError or re-raise fatals{witness}")


def run_rules(program) -> list:
    """Every finding the program rules make, unsorted."""
    return [violation
            for rule in (_rl001, _rl003, _rl010, _rl011)
            for violation in rule(program)]
