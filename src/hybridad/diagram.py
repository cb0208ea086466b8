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
import math
from functools import partial
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import SchemaError, ValidationError
from .ops import ElementaryFn, parse_fn
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
    (the ``validate`` report, the feedthrough order, agdm's nonzero
    ports).  Where ids or input ports repeat (an invalid diagram), the
    first block or link wins.
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


def _period(raw, path) -> float:
    """A sample time: a positive finite number."""
    t = _num(raw, path)
    if not 0.0 < t < math.inf:
        raise SchemaError(path, f"expected a positive finite sample time, got {raw!r}")
    return t


def _int(raw, path, lo: int = 1) -> int:
    """A JSON integer of at least ``lo``; a float, even 2.0, or a bool is not one."""
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < lo:
        raise SchemaError(path, f"expected an integer >= {lo}, got {raw!r}")
    return raw


def _signs(raw, path) -> str:
    if not isinstance(raw, str) or not raw or set(raw) - {"+", "-"}:
        raise SchemaError(path, "expected a string of + and -")
    return raw


def _bounds(raw, path) -> tuple[float, float] | None:
    """An optional ``[lo, hi]`` pair with lo < hi."""
    if raw is None:
        return None
    if not (isinstance(raw, list) and len(raw) == 2):
        raise SchemaError(path, "expected [lo, hi]")
    lo, hi = _num(raw[0], f"{path}[0]"), _num(raw[1], f"{path}[1]")
    if not lo < hi:
        raise SchemaError(path, "need lo < hi")
    return lo, hi


def _fn(raw, path) -> ElementaryFn:
    try:
        return parse_fn(str(raw))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _fields(**spec):
    """The parser of a kind whose fields are checked one by one: each
    ``name=(parse, default)`` gives ``fields[name] = parse(raw.get(name,
    default), f"{path}.{name}")``, in that order.  A field parser takes the
    JSON value, or from code a value already parsed, and raises a
    SchemaError at the field's path; a required field's default is None,
    which its parse rejects."""
    triples = tuple((name, parse, default) for name, (parse, default) in spec.items())

    def parse(raw, p):
        return {name: f(raw.get(name, default), f"{p}.{name}") for name, f, default in triples}
    return parse


def _ins(n: int) -> list[str]:
    return ["in"] if n == 1 else [f"in{i + 1}" for i in range(n)]


def _outs(n: int) -> list[str]:
    return ["out"] if n == 1 else [f"out{i + 1}" for i in range(n)]


def _siso(f):
    return ["in"], ["out"]


def _source(f):
    return [], ["out"]


class _Kind:
    """One row of the block-kind table: ``parse(raw, path) -> fields``,
    ``ports(fields) -> (inputs, outputs)``, and whether an input reaches
    an output with no state in between, a bool or a callable(fields)."""

    def __init__(self, parse, ports, feedthrough=True):
        self.parse = parse
        self.ports = ports
        self.feedthrough = feedthrough


def _tf_degree(coeffs: tuple[ParamExpr, ...]) -> int:
    d = len(coeffs) - 1
    while d > 0 and coeffs[d].is_zero():
        d -= 1
    return d


def _tf_feedthrough(f):
    return _tf_degree(f["num"]) == _tf_degree(f["den"])


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
        f["sample_time"] = _period(raw.get("sample_time"), f"{p}.sample_time")
    return f


def _ss_ports(f):
    return (_ins(len(f["B"][0])), _outs(len(f["C"])))


def _ss_feedthrough(f):
    return any(not e.is_zero() for row in f["D"] for e in row)


def _parse_saturation(raw, p):
    lo = _num(raw.get("lo"), f"{p}.lo")
    hi = _num(raw.get("hi"), f"{p}.hi")
    if not lo < hi:
        raise SchemaError(f"{p}.lo", "need lo < hi")
    return {"lo": lo, "hi": hi}


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
    direct-feedthrough blocks: a walk back along drivers from the outputs."""
    child: Diagram = f["diagram"]
    seen: set[str] = set()
    work = [o.src.block for o in child.outputs]
    while work:
        b = child.block(work.pop())
        if b.kind == "Inport":
            return True
        if b.feedthrough and b.id not in seen:
            seen.add(b.id)
            work += [drv.block for p in b.port_names()[0]
                     if (drv := child.driver((b.id, p))) is not None]
    return False


_TF = {"num": (_expr_list, None), "den": (_expr_list, None)}

# Every block kind, declared once: ``to_dict`` writes each block's fields
# back in the order its parser gives them (``_field_json``).
_KINDS: dict[str, _Kind] = {
    "Gain": _Kind(_fields(gain=(_expr, 1.0)), _siso),
    "Sum": _Kind(_fields(signs=(_signs, "++")), lambda f: (_ins(len(f["signs"])), ["out"])),
    "Product": _Kind(_fields(n=(_int, 2)), lambda f: (_ins(f["n"]), ["out"])),
    "Integrator": _Kind(_fields(initial=(_expr, 0.0), saturation=(_bounds, None)), _siso,
                        feedthrough=False),
    "TransferFnS": _Kind(_fields(**_TF), _siso, _tf_feedthrough),
    "TransferFnZ": _Kind(_fields(**_TF, sample_time=(_period, None)), _siso, _tf_feedthrough),
    "StateSpaceC": _Kind(lambda raw, p: _parse_ss(raw, p, False), _ss_ports, _ss_feedthrough),
    "StateSpaceD": _Kind(lambda raw, p: _parse_ss(raw, p, True), _ss_ports, _ss_feedthrough),
    "Fn": _Kind(_fields(fn=(_fn, "")), _siso),
    "Switch": _Kind(_fields(threshold=(_num, 0.0)), lambda f: (["in1", "in2", "in3"], ["out"])),
    "Saturation": _Kind(_parse_saturation, _siso),
    "SaturationDynamic": _Kind(_fields(), lambda f: (["up", "in", "lo"], ["out"])),
    "LookupTable1D": _Kind(_parse_lookup, _siso),
    "Constant": _Kind(_fields(value=(_expr, 0.0)), _source),
    "Step": _Kind(_fields(time=(_num, 0.0), level=(_num, 1.0)), _source),
    "TransportDelay": _Kind(_fields(delay=(_expr, None), prehistory=(_expr, 0.0)), _siso,
                            feedthrough=False),
    # Internal kind emitted when differentiating a TransportDelay with respect
    # to its own delay: the derivative needs the delayed slope of the carried
    # signal, which only the simulator's history machinery can provide.
    "DelaySensitivity": _Kind(_fields(delay=(_expr, None), ddelay=(_expr, None),
                                      prehistory=(_expr, 0.0), dprehistory=(_expr, 0.0)),
                              lambda f: (["in", "din"], ["out"]), feedthrough=False),
    "Mux": _Kind(_fields(n=(_int, 2)), lambda f: (_ins(f["n"]), ["out"])),
    "Demux": _Kind(_fields(n=(_int, 2)), lambda f: (["in"], _outs(f["n"]))),
    "UnitDelay": _Kind(_fields(initial=(_expr, 0.0), sample_time=(_period, None)), _siso,
                       feedthrough=False),
    # Subsystem input markers (sources inside the child diagram).
    "Inport": _Kind(_fields(index=(partial(_int, lo=0), 0)), _source),
    "Subsystem": _Kind(_parse_subsystem, _subsystem_ports, _subsystem_feedthrough),
}


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
        blocks.append(Block(bid, kind, _KINDS[kind].parse(braw, bpath)))

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
        "blocks": [{"id": b.id, "kind": b.kind,
                    **{k: _field_json(v) for k, v in b.fields.items()
                       if v is not None and v is not False}}
                   for b in d.blocks],
        "links": [{"from": str(ln.src), "to": str(ln.dst)} for ln in d.links],
        "outputs": [{"name": o.name, "from": str(o.src)} for o in d.outputs],
    }
    if d.annotations:
        out["annotations"] = d.annotations
    return out


def _field_json(v):
    """A block field's JSON value: a ParamExpr as its number or infix
    string, a tuple or list as a list, an elementary function by name and
    a child diagram as its document; ``to_dict`` leaves out a field that
    is None or False (no saturation, a lookup that interpolates)."""
    t = type(v)
    if t is ParamExpr:
        return v.value if v.op == "const" else v.to_str()
    if t is tuple or t is list:
        return [_field_json(x) for x in v]
    if t is ElementaryFn:
        return str(v)
    if t is Diagram:
        return to_dict(v)
    return v


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


def _feedthrough_order(d: Diagram) -> tuple[list[Block], list[str] | None]:
    """``d``'s blocks in declaration order, except that each
    direct-feedthrough block comes after the blocks driving it, and the
    first algebraic loop found, in signal order, or None.  A depth-first
    post-order along each feedthrough block's drivers, in link order; the
    search keeps its own stack of driver iterators, so long chains cannot
    exhaust the interpreter's recursion limit.  Kept with ``d``."""
    if "order" in d._memo:
        return d._memo["order"]
    by_id = d._by_id
    drivers: dict[str, list[str]] = {}
    for ln in d.links:
        if by_id[ln.dst.block].feedthrough:
            drivers.setdefault(ln.dst.block, []).append(ln.src.block)
    order: list[Block] = []
    loop = None
    color: dict[str, int] = {}       # 1: on the path, 2: placed
    for b in d.blocks:
        if b.id in color:
            continue
        if b.id not in drivers:      # nothing to place before it
            color[b.id] = 2
            order.append(b)
            continue
        color[b.id] = 1
        path, todo = [b.id], [iter(drivers[b.id])]
        while todo:
            for v in todo[-1]:
                c = color.get(v, 0)
                if c == 0:
                    color[v] = 1
                    path.append(v)
                    todo.append(iter(drivers.get(v, ())))
                    break
                if c == 1 and loop is None:
                    loop = [v, *reversed(path[path.index(v):])]
            else:
                bid = path.pop()
                color[bid] = 2
                order.append(by_id[bid])
                todo.pop()
    d._memo["order"] = order, loop
    return order, loop


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

    _, loop = _feedthrough_order(d)
    if loop:
        v.append(Violation("algebraic-loop", "algebraic loop: " + " -> ".join(loop)))
    return Report(tuple(v))
