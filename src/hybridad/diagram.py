"""Block-diagram intermediate representation.

A diagram is a set of independent, self-standing blocks wired by
directed links; signals are scalar except for Mux/Demux bundles.  The
representation is closed under graphic differentiation: transformed
diagrams serialize to the same versioned JSON schema they were parsed
from.  Diagrams are values: every transform builds a new one, and each
indexes its blocks and input-port drivers once, when it is built.

Schema (version 1)::

    {"schema": 1, "name": ...,
     "params": {"k": 1.0, "tau": 0.5},
     "blocks": [{"id": "G1", "kind": "Gain", "gain": "k/tau"}, ...],
     "links":  [{"from": "G1.out", "to": "I1.in"}, ...],
     "outputs": [{"name": "y", "from": "I1.out"}]}

Parameter-valued fields are infix expression strings over the params.
Causality: every cycle must pass through an Integrator, UnitDelay,
TransportDelay or strictly proper transfer function; ``validate`` reports
any purely algebraic loop with its cycle path.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import SchemaError, ValidationError
from .ops import parse_fn
from .paramexpr import ParamExpr, parse_expr

SCHEMA_VERSION = 1


class PortRef(NamedTuple):
    block: str
    port: str

    def __str__(self) -> str:
        return f"{self.block}.{self.port}"


class Link(NamedTuple):
    src: PortRef
    dst: PortRef


class Output(NamedTuple):
    name: str
    src: PortRef


class _once:
    """An attribute computed on first read and kept in the instance's ``__dict__``; no lock."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.fn(obj))


@dataclass(frozen=True)
class Block:
    """One block.  Blocks are values: no caller edits ``fields`` or the
    port lists, so the port names and feedthrough are derived from the
    fields once, on first use.  A port of a block is looked up by a plain
    ``(block, port)`` tuple, equal in hash and value to its ``PortRef``."""

    id: str
    kind: str
    fields: dict

    def port_names(self) -> tuple[list[str], list[str]]:
        return self._ports

    @_once
    def _ports(self) -> tuple[list[str], list[str]]:
        return _KINDS[self.kind].ports(self.fields)

    @_once
    def feedthrough(self) -> bool:
        """Whether an input reaches an output with no state in between."""
        ft = _KINDS[self.kind].feedthrough
        return ft(self.fields) if callable(ft) else ft


@dataclass
class Diagram:
    """A block diagram.  Diagrams are values: no transform edits one in
    place, so the block and driver indexes built here stay valid, and a
    pass that reads only the diagram may keep its result in ``_memo``
    (the ``validate`` report, agdm's nonzero ports).  Where ids or input
    ports repeat (an invalid diagram), the first block or link wins.
    ``driver`` takes a plain ``(block, port)`` tuple, returns a ``PortRef``."""

    name: str
    params: dict[str, float]
    blocks: list[Block]
    links: list[Link]
    outputs: list[Output]
    annotations: dict = field(default_factory=dict)
    _by_id: dict[str, Block] = field(init=False, repr=False, compare=False)
    _drivers: dict[PortRef, PortRef] = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_id = {}
        for b in self.blocks:
            self._by_id.setdefault(b.id, b)
        self._drivers = {}
        for ln in self.links:
            self._drivers.setdefault(ln.dst, ln.src)

    def block(self, bid: str) -> Block:
        return self._by_id[bid]

    def block_ids(self) -> set[str]:
        """A fresh set of the block ids; callers may extend it."""
        return set(self._by_id)

    def driver(self, dst: tuple[str, str]) -> PortRef | None:
        return self._drivers.get(dst)


# ---------------------------------------------------------------------------
# per-kind schemas
# ---------------------------------------------------------------------------

def _expr(raw, path) -> ParamExpr:
    try:
        return parse_expr(raw)
    except SchemaError as exc:
        raise SchemaError(path, str(exc)) from exc


def _expr_list(raw, path) -> tuple[ParamExpr, ...]:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a non-empty list of expressions")
    return tuple(_expr(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _expr_matrix(raw, path) -> tuple[tuple[ParamExpr, ...], ...]:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a non-empty matrix")
    rows = []
    width = None
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]", "ragged matrix")
        rows.append(tuple(_expr(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(rows)


def _num(raw, path) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise SchemaError(path, f"expected a number, got {raw!r}")
    return float(raw)


def _int(raw, path, lo: int) -> int:
    """A JSON integer of at least ``lo``; a float, even 2.0, or a bool is not one."""
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < lo:
        raise SchemaError(path, f"expected an integer >= {lo}, got {raw!r}")
    return raw


def _ins(n: int) -> list[str]:
    return ["in"] if n == 1 else [f"in{i + 1}" for i in range(n)]


def _outs(n: int) -> list[str]:
    return ["out"] if n == 1 else [f"out{i + 1}" for i in range(n)]


class _Kind:
    """One row of the block registry."""

    def __init__(self, parse, ports, to_json, feedthrough=True):
        self.parse = parse
        self.ports = ports
        self.to_json = to_json
        # True/False, or a callable(fields) -> bool, or "matrix" handled by caller
        self.feedthrough = feedthrough


def _e2j(e: ParamExpr):
    if e.is_const():
        return e.value
    return e.to_str()


_KINDS: dict[str, _Kind] = {}


def _register(name, parse, ports, to_json, feedthrough=True):
    _KINDS[name] = _Kind(parse, ports, to_json, feedthrough)


_register(
    "Gain",
    lambda raw, p: {"gain": _expr(raw.get("gain", 1.0), f"{p}.gain")},
    lambda f: (_ins(1), _outs(1)),
    lambda f: {"gain": _e2j(f["gain"])},
)


def _parse_sum(raw, p):
    signs = raw.get("signs", "++")
    if not isinstance(signs, str) or not signs or set(signs) - {"+", "-"}:
        raise SchemaError(f"{p}.signs", "expected a string of + and -")
    return {"signs": signs}


_register(
    "Sum",
    _parse_sum,
    lambda f: (_ins(len(f["signs"])), _outs(1)),
    lambda f: {"signs": f["signs"]},
)

_register(
    "Product",
    lambda raw, p: {"n": _int(raw.get("n", 2), f"{p}.n", 1)},
    lambda f: (_ins(f["n"]), _outs(1)),
    lambda f: {"n": f["n"]},
)


def _parse_integrator(raw, p):
    sat = raw.get("saturation")
    if sat is not None:
        if not (isinstance(sat, list) and len(sat) == 2):
            raise SchemaError(f"{p}.saturation", "expected [lo, hi]")
        sat = (_num(sat[0], f"{p}.saturation[0]"), _num(sat[1], f"{p}.saturation[1]"))
        if not sat[0] < sat[1]:
            raise SchemaError(f"{p}.saturation", "need lo < hi")
    return {"initial": _expr(raw.get("initial", 0.0), f"{p}.initial"), "saturation": sat}


_register(
    "Integrator",
    _parse_integrator,
    lambda f: (_ins(1), _outs(1)),
    lambda f: {"initial": _e2j(f["initial"]),
               **({"saturation": list(f["saturation"])} if f["saturation"] else {})},
    feedthrough=False,
)


def _tf_degree(coeffs: tuple[ParamExpr, ...]) -> int:
    d = len(coeffs) - 1
    while d > 0 and coeffs[d].is_zero():
        d -= 1
    return d


def _parse_tf(raw, p, discrete):
    f = {"num": _expr_list(raw.get("num"), f"{p}.num"),
         "den": _expr_list(raw.get("den"), f"{p}.den")}
    if discrete:
        f["sample_time"] = _num(raw.get("sample_time"), f"{p}.sample_time")
    return f


def _tf_json(f):
    out = {"num": [_e2j(e) for e in f["num"]], "den": [_e2j(e) for e in f["den"]]}
    if "sample_time" in f:
        out["sample_time"] = f["sample_time"]
    return out


def _tf_feedthrough(f):
    return _tf_degree(f["num"]) == _tf_degree(f["den"])


_register("TransferFnS", lambda raw, p: _parse_tf(raw, p, False),
          lambda f: (_ins(1), _outs(1)), _tf_json, feedthrough=_tf_feedthrough)
_register("TransferFnZ", lambda raw, p: _parse_tf(raw, p, True),
          lambda f: (_ins(1), _outs(1)), _tf_json, feedthrough=_tf_feedthrough)


def _parse_ss(raw, p, discrete):
    f = {m: _expr_matrix(raw.get(m), f"{p}.{m}") for m in "ABCD"}
    n = len(f["A"])
    if any(len(r) != n for r in f["A"]):
        raise SchemaError(f"{p}.A", "A must be square")
    m_in = len(f["B"][0])
    p_out = len(f["C"])
    if len(f["B"]) != n:
        raise SchemaError(f"{p}.B", f"B must have {n} rows")
    if any(len(r) != n for r in f["C"]):
        raise SchemaError(f"{p}.C", f"C must have {n} columns")
    if len(f["D"]) != p_out or any(len(r) != m_in for r in f["D"]):
        raise SchemaError(f"{p}.D", f"D must be {p_out}x{m_in}")
    if discrete:
        f["sample_time"] = _num(raw.get("sample_time"), f"{p}.sample_time")
    return f


def _ss_json(f):
    out = {m: [[_e2j(e) for e in row] for row in f[m]] for m in "ABCD"}
    if "sample_time" in f:
        out["sample_time"] = f["sample_time"]
    return out


def _ss_ports(f):
    return (_ins(len(f["B"][0])), _outs(len(f["C"])))


def _ss_feedthrough(f):
    return any(not e.is_zero() for row in f["D"] for e in row)


_register("StateSpaceC", lambda raw, p: _parse_ss(raw, p, False),
          _ss_ports, _ss_json, feedthrough=_ss_feedthrough)
_register("StateSpaceD", lambda raw, p: _parse_ss(raw, p, True),
          _ss_ports, _ss_json, feedthrough=_ss_feedthrough)


def _parse_fn_block(raw, p):
    try:
        return {"fn": parse_fn(raw.get("fn", ""))}
    except ValueError as exc:
        raise SchemaError(f"{p}.fn", str(exc)) from exc


_register("Fn", _parse_fn_block, lambda f: (_ins(1), _outs(1)),
          lambda f: {"fn": str(f["fn"])})

_register(
    "Switch",
    lambda raw, p: {"threshold": _num(raw.get("threshold", 0.0), f"{p}.threshold")},
    lambda f: (["in1", "in2", "in3"], _outs(1)),
    lambda f: {"threshold": f["threshold"]},
)


def _parse_saturation(raw, p):
    lo = _num(raw.get("lo"), f"{p}.lo")
    hi = _num(raw.get("hi"), f"{p}.hi")
    if not lo < hi:
        raise SchemaError(f"{p}.lo", "need lo < hi")
    return {"lo": lo, "hi": hi}


_register("Saturation", _parse_saturation, lambda f: (_ins(1), _outs(1)),
          lambda f: {"lo": f["lo"], "hi": f["hi"]})

_register("SaturationDynamic", lambda raw, p: {},
          lambda f: (["up", "in", "lo"], _outs(1)), lambda f: {})


def _parse_lookup(raw, p):
    bp = raw.get("breakpoints")
    vals = raw.get("values")
    if not isinstance(bp, list) or len(bp) < 2:
        raise SchemaError(f"{p}.breakpoints", "need at least two breakpoints")
    if not isinstance(vals, list) or len(vals) != len(bp):
        raise SchemaError(f"{p}.values", "values must match breakpoints")
    return {"breakpoints": tuple(_num(v, f"{p}.breakpoints[{i}]") for i, v in enumerate(bp)),
            "values": tuple(_num(v, f"{p}.values[{i}]") for i, v in enumerate(vals)),
            "piecewise_constant": bool(raw.get("piecewise_constant", False))}


_register("LookupTable1D", _parse_lookup, lambda f: (_ins(1), _outs(1)),
          lambda f: {"breakpoints": list(f["breakpoints"]), "values": list(f["values"]),
                     **({"piecewise_constant": True} if f["piecewise_constant"] else {})})

_register("Constant",
          lambda raw, p: {"value": _expr(raw.get("value", 0.0), f"{p}.value")},
          lambda f: ([], _outs(1)), lambda f: {"value": _e2j(f["value"])})

_register("Step",
          lambda raw, p: {"time": _num(raw.get("time", 0.0), f"{p}.time"),
                          "level": _num(raw.get("level", 1.0), f"{p}.level")},
          lambda f: ([], _outs(1)),
          lambda f: {"time": f["time"], "level": f["level"]})

_register("TransportDelay",
          lambda raw, p: {"delay": _expr(raw.get("delay"), f"{p}.delay"),
                          "prehistory": _expr(raw.get("prehistory", 0.0), f"{p}.prehistory")},
          lambda f: (_ins(1), _outs(1)),
          lambda f: {"delay": _e2j(f["delay"]), "prehistory": _e2j(f["prehistory"])},
          feedthrough=False)

# Internal kind emitted when differentiating a TransportDelay with respect
# to its own delay: the derivative needs the delayed slope of the carried
# signal, which only the simulator's history machinery can provide.
_register("DelaySensitivity",
          lambda raw, p: {"delay": _expr(raw.get("delay"), f"{p}.delay"),
                          "ddelay": _expr(raw.get("ddelay"), f"{p}.ddelay"),
                          "prehistory": _expr(raw.get("prehistory", 0.0), f"{p}.prehistory"),
                          "dprehistory": _expr(raw.get("dprehistory", 0.0), f"{p}.dprehistory")},
          lambda f: (["in", "din"], _outs(1)),
          lambda f: {"delay": _e2j(f["delay"]), "ddelay": _e2j(f["ddelay"]),
                     "prehistory": _e2j(f["prehistory"]),
                     "dprehistory": _e2j(f["dprehistory"])},
          feedthrough=False)

_register("Mux", lambda raw, p: {"n": _int(raw.get("n", 2), f"{p}.n", 1)},
          lambda f: (_ins(f["n"]), _outs(1)), lambda f: {"n": f["n"]})
_register("Demux", lambda raw, p: {"n": _int(raw.get("n", 2), f"{p}.n", 1)},
          lambda f: (_ins(1), _outs(f["n"])), lambda f: {"n": f["n"]})

_register("UnitDelay",
          lambda raw, p: {"initial": _expr(raw.get("initial", 0.0), f"{p}.initial"),
                          "sample_time": _num(raw.get("sample_time"), f"{p}.sample_time")},
          lambda f: (_ins(1), _outs(1)),
          lambda f: {"initial": _e2j(f["initial"]), "sample_time": f["sample_time"]},
          feedthrough=False)

# Subsystem input markers (sources inside the child diagram).
_register("Inport", lambda raw, p: {"index": _int(raw.get("index", 0), f"{p}.index", 0)},
          lambda f: ([], _outs(1)), lambda f: {"index": f["index"]})


def _parse_subsystem(raw, p):
    child = raw.get("diagram")
    if isinstance(child, Diagram):      # built in code
        return {"diagram": child}
    if not isinstance(child, dict):
        raise SchemaError(f"{p}.diagram", "expected a nested diagram object")
    return {"diagram": _parse_dict(child, path=f"{p}.diagram")}


def _subsystem_ports(f):
    child: Diagram = f["diagram"]
    n_in = sum(1 for b in child.blocks if b.kind == "Inport")
    return (_ins(n_in), [o.name for o in child.outputs])


def _subsystem_feedthrough(f):
    """Whether an output of the child is reachable from an Inport through
    direct-feedthrough blocks."""
    child: Diagram = f["diagram"]
    succ = _feedthrough_succ(child)
    reach = {b.id for b in child.blocks if b.kind == "Inport"}
    work = list(reach)
    while work:
        for v in succ[work.pop()]:
            if v not in reach:
                reach.add(v)
                work.append(v)
    return any(o.src.block in reach for o in child.outputs)


_register("Subsystem", _parse_subsystem, _subsystem_ports,
          lambda f: {"diagram": to_dict(f["diagram"])},
          feedthrough=_subsystem_feedthrough)


def _feedthrough_succ(d: Diagram) -> dict[str, list[str]]:
    """Each block's successors along links into direct-feedthrough blocks,
    in link order."""
    succ: dict[str, list[str]] = {b.id: [] for b in d.blocks}
    for ln in d.links:
        if d.block(ln.dst.block).feedthrough:
            succ[ln.src.block].append(ln.dst.block)
    return succ


def make_block(bid: str, kind: str, path: str = "block", **raw) -> Block:
    """Programmatic block construction through the same field parser."""
    if kind not in _KINDS:
        raise SchemaError(f"{path}.kind", f"unknown block kind {kind!r}")
    return Block(bid, kind, _KINDS[kind].parse(raw, path))


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _parse_portref(raw, path, diagram_blocks) -> PortRef:
    if not isinstance(raw, str):
        raise SchemaError(path, "expected 'block.port'")
    bid, _, port = raw.partition(".")
    if bid not in diagram_blocks:
        raise SchemaError(path, f"unknown block {bid!r}")
    ins, outs = diagram_blocks[bid].port_names()
    if not port:
        port = outs[0] if outs else ""
    if port not in ins and port not in outs:
        raise SchemaError(path, f"block {bid!r} has no port {port!r}")
    return PortRef(bid, port)


def _list(doc: dict, key: str, path: str) -> list:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.{key}", "expected a list")
    return raw


def _parse_dict(doc: dict, path: str = "$") -> Diagram:
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema", f"expected schema {SCHEMA_VERSION}")
    params_raw = doc.get("params", {})
    if not isinstance(params_raw, dict):
        raise SchemaError(f"{path}.params", "expected an object")
    params = {str(k): _num(v, f"{path}.params.{k}") for k, v in params_raw.items()}

    blocks: list[Block] = []
    ids: set[str] = set()
    for i, braw in enumerate(_list(doc, "blocks", path)):
        bpath = f"{path}.blocks[{i}]"
        if not isinstance(braw, dict):
            raise SchemaError(bpath, "expected an object")
        bid = braw.get("id")
        kind = braw.get("kind")
        if not isinstance(bid, str) or not bid:
            raise SchemaError(f"{bpath}.id", "missing block id")
        if bid in ids:
            raise SchemaError(f"{bpath}.id", f"duplicate block id {bid!r}")
        ids.add(bid)
        if kind not in _KINDS:
            raise SchemaError(f"{bpath}.kind", f"unknown block kind {kind!r}")
        fields = {k: v for k, v in braw.items() if k not in ("id", "kind")}
        blocks.append(Block(bid, kind, _KINDS[kind].parse(fields, bpath)))

    bmap = {b.id: b for b in blocks}
    links = []
    for i, lraw in enumerate(_list(doc, "links", path)):
        lpath = f"{path}.links[{i}]"
        if not isinstance(lraw, dict):
            raise SchemaError(lpath, "expected an object")
        src = _parse_portref(lraw.get("from"), f"{lpath}.from", bmap)
        dst = _parse_portref(lraw.get("to"), f"{lpath}.to", bmap)
        links.append(Link(src, dst))

    outputs = []
    for i, oraw in enumerate(_list(doc, "outputs", path)):
        opath = f"{path}.outputs[{i}]"
        if not isinstance(oraw, dict):
            raise SchemaError(opath, "expected an object")
        name = oraw.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{opath}.name", "missing output name")
        outputs.append(Output(name, _parse_portref(oraw.get("from"), f"{opath}.from", bmap)))

    ann = doc.get("annotations", {})
    if not isinstance(ann, dict):
        raise SchemaError(f"{path}.annotations", "expected an object")
    return Diagram(str(doc.get("name", "")), params, blocks, links, outputs, dict(ann))


def load_diagram(document: str) -> Diagram:
    """Parse a schema-1 diagram document without validating it."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    return _parse_dict(doc)


def parse_diagram(document: str) -> Diagram:
    """Parse and validate a schema-1 diagram document."""
    d = load_diagram(document)
    report = validate(d)
    if not report.ok:
        raise ValidationError(report.violations)
    return d


def to_dict(d: Diagram) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "name": d.name,
        "params": dict(d.params),
        "blocks": [{"id": b.id, "kind": b.kind, **_KINDS[b.kind].to_json(b.fields)}
                   for b in d.blocks],
        "links": [{"from": str(ln.src), "to": str(ln.dst)} for ln in d.links],
        "outputs": [{"name": o.name, "from": str(o.src)} for o in d.outputs],
    }
    if d.annotations:
        out["annotations"] = d.annotations
    return out


def diagram_to_json(d: Diagram) -> str:
    """``json.dumps(to_dict(d), indent=1)``."""
    return _dumps(to_dict(d), "")


def _dumps(o, pad: str) -> str:
    """``json.dumps(o, indent=1)``, written at the indent ``pad``.  With an
    indent, ``json`` encodes in pure Python; here strings and finite floats
    go through the C encoder's leaf functions, and every other value
    (NaN, infinities, ints, bools, None, empty or unusual containers)
    through ``json`` itself."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is float and o - o == 0.0:         # finite
        return float.__repr__(o)
    sub = pad + " "
    if t is list and o:
        return f"[\n{sub}" + f",\n{sub}".join([_dumps(v, sub) for v in o]) + f"\n{pad}]"
    if t is dict and o:
        try:        # a key that is not a str (TypeError) is left to ``json``
            return f"{{\n{sub}" + f",\n{sub}".join([
                f"{encode_basestring_ascii(k)}: "
                f"{encode_basestring_ascii(v) if type(v) is str else _dumps(v, sub)}"
                for k, v in o.items()]) + f"\n{pad}}}"
        except TypeError:
            pass
    return json.dumps(o, indent=1).replace("\n", "\n" + pad)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def _find_cycle(d: Diagram) -> list[str] | None:
    """A cycle through direct-feedthrough blocks, if any (DFS, 3-color).
    The search keeps its own stack of successor iterators, so long chains
    cannot exhaust the interpreter's recursion limit."""
    succ = _feedthrough_succ(d)
    color: dict[str, int] = {}       # 1: on the path, 2: done
    for b in d.blocks:
        if b.id in color:
            continue
        color[b.id] = 1
        path, todo = [b.id], [iter(succ[b.id])]
        while todo:
            for v in todo[-1]:
                c = color.get(v, 0)
                if c == 1:
                    return path[path.index(v):] + [v]
                if c == 0:
                    color[v] = 1
                    path.append(v)
                    todo.append(iter(succ[v]))
                    break
            else:
                color[path.pop()] = 2
                todo.pop()
    return None


def validate(d: Diagram) -> Report:
    """Structural checks; returns a report instead of raising.  A
    diagram's report is computed once and kept with it."""
    if "report" not in d._memo:
        d._memo["report"] = _checks(d, True)
    return d._memo["report"]


def _checks(d: Diagram, top_level: bool) -> Report:
    v: list[Violation] = []
    if not d.outputs:
        v.append(Violation("no-outputs", "diagram declares no outputs"))

    for o in d.outputs:
        ins, outs = d.block(o.src.block).port_names()
        if o.src.port not in outs:
            v.append(Violation("bad-output", f"output {o.name!r} reads input port {o.src}"))

    # every input port has exactly one driver; links go output -> input
    drivers: dict[PortRef, int] = {}
    for ln in d.links:
        ins, outs = d.block(ln.src.block).port_names()
        if ln.src.port not in outs:
            v.append(Violation("bad-link", f"link source {ln.src} is not an output port"))
        ins, outs = d.block(ln.dst.block).port_names()
        if ln.dst.port not in ins:
            v.append(Violation("bad-link", f"link target {ln.dst} is not an input port"))
        drivers[ln.dst] = drivers.get(ln.dst, 0) + 1
    for b in d.blocks:
        ins, _ = b.port_names()
        for p in ins:
            n = drivers.get((b.id, p), 0)
            if n == 0:
                v.append(Violation("unlinked-input", f"input port {b.id}.{p} has no driver"))
            elif n > 1:
                v.append(Violation("multiple-drivers", f"input port {b.id}.{p} has {n} drivers"))

    for b in d.blocks:
        if b.kind in ("TransferFnS", "TransferFnZ"):
            num, den = b.fields["num"], b.fields["den"]
            if den[-1].is_zero():
                v.append(Violation("tf-leading-zero",
                                   f"{b.id}: denominator leading coefficient is zero"))
            if _tf_degree(num) > _tf_degree(den):
                v.append(Violation("improper-tf",
                                   f"{b.id}: numerator degree {_tf_degree(num)} exceeds "
                                   f"denominator degree {_tf_degree(den)}"))
        elif b.kind == "LookupTable1D":
            bp = b.fields["breakpoints"]
            if any(x >= y for x, y in zip(bp, bp[1:])):
                v.append(Violation("lookup-breakpoints",
                                   f"{b.id}: breakpoints must be strictly increasing"))
        elif b.kind == "Demux":
            drv = d.driver((b.id, "in"))
            src = None if drv is None else d.block(drv.block)
            if src is not None and src.kind != "Mux":
                v.append(Violation("demux-source", f"{b.id}: Demux must be fed by a Mux"))
            elif src is not None and src.fields["n"] != b.fields["n"]:
                v.append(Violation("mux-width",
                                   f"{b.id}: width {b.fields['n']} does not match Mux "
                                   f"{drv.block} width {src.fields['n']}"))
        elif b.kind == "Inport" and top_level:
            v.append(Violation("inport-toplevel", f"{b.id}: Inport outside a Subsystem"))
        elif b.kind == "Subsystem":
            child: Diagram = b.fields["diagram"]
            extra = child.params.keys() - d.params.keys()
            if extra:
                v.append(Violation("subsystem-params",
                                   f"{b.id}: child params {sorted(extra)} missing from parent"))
            idx = sorted(blk.fields["index"] for blk in child.blocks if blk.kind == "Inport")
            if idx != list(range(len(idx))):
                v.append(Violation("inport-indices",
                                   f"{b.id}: Inport indices must be 0..n-1, got {idx}"))
            sub = _checks(child, False)
            v.extend(Violation(s.code, f"{b.id}: {s.message}") for s in sub.violations)

    # Mux outputs may only feed Demux inputs (bundles are not simulated through
    # other blocks; route scalars around them instead)
    for ln in d.links:
        if d.block(ln.src.block).kind == "Mux" and d.block(ln.dst.block).kind != "Demux":
            v.append(Violation("mux-consumer",
                               f"Mux {ln.src.block} feeds non-Demux block {ln.dst.block}"))

    cyc = _find_cycle(d)
    if cyc:
        v.append(Violation("algebraic-loop", "algebraic loop: " + " -> ".join(cyc)))
    return Report(tuple(v))
