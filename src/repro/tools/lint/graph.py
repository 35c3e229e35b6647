"""Linking: module summaries -> one program with a resolved call graph.

Name resolution is deliberately conservative: an edge exists only when
the callee can be pinned to a single known function — a module-level
name, an imported function, ``self.method`` through the class (and its
resolvable bases), ``Cls.method`` through an imported class, or a
method on a value whose constructing class was captured by the
summary (``lock = RemoteLock.open(...)``; ``self._lock = RemoteLock(
...)``).  Everything else stays unresolved and contributes no edge —
the right bias for gating rules, which must not invent call paths.
"""

from __future__ import annotations

__all__ = ["Program"]


class Program:
    """Every summary in scope, indexed and cross-linked.

    Functions are addressed as ``"<module>:<Qual.name>"`` (fids),
    classes as ``"<module>:<Class>"`` (cids).
    """

    def __init__(self, summaries: list):
        self.modules = {s["module"]: s for s in summaries}
        self.functions = {}
        self.classes = {}
        for s in summaries:
            for qual, record in s["functions"].items():
                fid = f"{s['module']}:{qual}"
                self.functions[fid] = record
                record["fid"] = fid
                record["module"] = s["module"]
                record["rel"] = s["rel"]
                record["data_path"] = s["data_path"]
            for qual, record in s["classes"].items():
                cid = f"{s['module']}:{qual}"
                self.classes[cid] = record
                record["cid"] = cid
                record["module"] = s["module"]
        # resolved call graph: fid -> [(call_index, callee_fid)]
        self.edges = {}
        self.redges = {}    # callee_fid -> [(caller_fid, call_index)]
        for fid in sorted(self.functions):
            resolved = []
            for index, call in enumerate(self.functions[fid]["calls"]):
                callee = self.resolve_call(fid, call)
                if callee is not None:
                    resolved.append((index, callee))
                    self.redges.setdefault(callee, []).append(
                        (fid, index))
            self.edges[fid] = resolved

    # -- name resolution ---------------------------------------------------

    def _binding(self, module: str, name: str):
        """What *name* means at module scope: a ("module"|"class"|
        "function", id) ref, or None."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        if name in summary["functions"] and "." not in name:
            return ("function", f"{module}:{name}")
        if name in summary["classes"] and "." not in name:
            return ("class", f"{module}:{name}")
        target = summary["imports"].get(name)
        if target is None:
            return None
        return self._dotted_ref(target)

    def _dotted_ref(self, dotted: str):
        """Resolve an absolute dotted path against the program."""
        if dotted in self.modules:
            return ("module", dotted)
        if "." in dotted:
            head, leaf = dotted.rsplit(".", 1)
            if head in self.modules:
                summary = self.modules[head]
                if leaf in summary["classes"]:
                    return ("class", f"{head}:{leaf}")
                if leaf in summary["functions"]:
                    return ("function", f"{head}:{leaf}")
                return None
            # one more hop: package.module.Class
            ref = self._dotted_ref(head)
            if ref and ref[0] == "class":
                return None  # attribute of a class handled elsewhere
        return None

    def resolve_class(self, module: str, text: str):
        """A class id for dotted *text* as written in *module*."""
        if not text:
            return None
        head, _, rest = text.partition(".")
        ref = self._binding(module, head)
        if ref is None:
            ref = self._dotted_ref(text)
            return ref[1] if ref and ref[0] == "class" else None
        while rest and ref:
            part, _, rest = rest.partition(".")
            if ref[0] == "module":
                ref = self._binding(ref[1], part)
            else:
                return None
        return ref[1] if ref and ref[0] == "class" else None

    def resolve_method(self, cid: str, name: str, _seen=None):
        """A function id for method *name* on class *cid* (MRO walk)."""
        _seen = _seen or set()
        if cid in _seen or cid not in self.classes:
            return None
        _seen.add(cid)
        record = self.classes[cid]
        module, qual = cid.split(":", 1)
        fid = f"{module}:{qual}.{name}"
        if fid in self.functions:
            return fid
        for base in record["bases"]:
            base_cid = self.resolve_class(module, base)
            if base_cid:
                found = self.resolve_method(base_cid, name, _seen)
                if found:
                    return found
        return None

    def _ctor_class(self, module: str, ctor: str):
        """The class a captured constructor expression names.

        Accepts ``Cls``, ``mod.Cls``, and the ``Cls.create`` /
        ``Cls.open`` factory idiom (classmethods returning ``cls``).
        """
        cid = self.resolve_class(module, ctor)
        if cid:
            return cid
        if "." in ctor:
            head = ctor.rsplit(".", 1)[0]
            return self.resolve_class(module, head)
        return None

    def local_type(self, fid: str, var: str):
        """Class id of a local variable, via its captured constructor."""
        func = self.functions[fid]
        record = func["local_types"].get(var)
        if record is None:
            return None
        return self._ctor_class(func["module"], record["ctor"])

    def attr_type(self, cid: str, attr: str):
        """Class id of ``self.<attr>`` on class *cid*."""
        record = self.classes.get(cid, {}).get("attrs", {}).get(attr)
        if record is None:
            return None
        return self._ctor_class(cid.split(":", 1)[0], record["ctor"])

    def resolve_call(self, fid: str, call: dict):
        """The single function a call record names, or None."""
        func = self.functions[fid]
        module = func["module"]
        name, recv = call["name"], call["recv"]
        own_cid = f"{module}:{func['cls']}" if func["cls"] else None

        if not recv:  # bare name
            ref = self._binding(module, name)
            if ref is None:
                return None
            if ref[0] == "function":
                return ref[1]
            if ref[0] == "class":
                return self.resolve_method(ref[1], "__init__")
            return None

        if recv in ("self", "cls") and own_cid:
            return self.resolve_method(own_cid, name)

        head, _, rest = recv.partition(".")
        if head in ("self", "cls") and own_cid:
            if rest and "." not in rest:
                cid = self.attr_type(own_cid, rest)
                return self.resolve_method(cid, name) if cid else None
            return None

        # a local whose constructing class the summary captured
        if "." not in recv:
            cid = self.local_type(fid, recv)
            if cid:
                return self.resolve_method(cid, name)

        # imported class / module / dotted chain
        ref = self._binding(module, head)
        while rest and ref and ref[0] == "module":
            part, _, rest = rest.partition(".")
            ref = self._binding(ref[1], part)
        if ref is None or rest:
            return None
        if ref[0] == "class":
            return self.resolve_method(ref[1], name)
        if ref[0] == "module":
            return self._function_in(ref[1], name)
        return None

    def _function_in(self, module: str, name: str):
        fid = f"{module}:{name}"
        return fid if fid in self.functions else None

    # -- fixpoint helpers --------------------------------------------------

    def propagate_flag(self, seeds: set) -> dict:
        """Reverse-reachability with witness edges.

        Returns ``{fid: (call_line, callee_fid) | None}`` for every
        function that reaches a seed; seeds map to ``None``.  BFS order
        makes every recorded witness a shortest chain, and the sorted
        seed/edge iteration keeps it deterministic.
        """
        reach = {fid: None for fid in sorted(seeds)}
        frontier = sorted(seeds)
        while frontier:
            next_frontier = []
            for callee in frontier:
                for caller, index in sorted(
                        self.redges.get(callee, [])):
                    if caller in reach:
                        continue
                    line = self.functions[caller]["calls"][index]["line"]
                    reach[caller] = (line, callee)
                    next_frontier.append(caller)
            frontier = sorted(next_frontier)
        return reach

    def propagate_sets(self, direct: dict) -> dict:
        """Transitive union of per-function sets over the call graph:
        ``result[f] = direct[f] | union(result[g] for g called by f)``.
        """
        result = {fid: set(values) for fid, values in direct.items()}
        changed = sorted(fid for fid, values in result.items() if values)
        while changed:
            frontier = set()
            for callee in changed:
                for caller, _index in self.redges.get(callee, []):
                    before = len(result[caller])
                    result[caller] |= result[callee]
                    if len(result[caller]) != before:
                        frontier.add(caller)
            changed = sorted(frontier)
        return result
