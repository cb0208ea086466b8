"""Graphic differentiation of block diagrams.

``agdm_diff`` maps a diagram to a new diagram that contains the original
unchanged plus a derivative flow with respect to one named parameter.
The derivative flow propagates along the causality flow, block by block:
each original block adds derivative-flow blocks fed by signals, its
original input signals ``u`` and their derivatives ``du``
(``_emit_block``).  The rules, each marked at its branch there:

* copy -- Constant (value differentiated), Step (a zero constant),
  Inport (a derivative input after the diagram's own), Sum, Mux, Demux,
  UnitDelay and an unsaturated Integrator (initial value differentiated)
  are duplicated onto ``du``; Mux, Demux and subsystem port lists widen;
* copy plus source term -- Gain, TransferFnS and TransferFnZ: the copy
  plus dH/dtheta applied to ``u`` when the block's own coefficients
  depend on the parameter;
* chain rule -- Product and Fn become compositions built from inventory
  blocks acting on the original signals;
* conditional copy -- Switch, Saturation, SaturationDynamic and a
  saturated Integrator are duplicated with identical tests driven by the
  *original* signals; the thresholds are never differentiated;
* lookup slope -- LookupTable1D contributes the interpolation slope
  between bracketing breakpoints (a forward difference with increment
  equal to the breakpoint spacing), and the transformed diagram carries a
  ``lookup_fd_warning`` annotation listing those blocks;
* delay sensitivity -- a TransportDelay whose delay depends on the
  parameter becomes a ``DelaySensitivity`` block, which the simulator
  feeds with the delayed slope (``dde_sensitivity`` annotation); such a
  block cannot be differentiated again (:class:`DelayOrderExceeded`);
* stacked copy -- StateSpaceC/D with parameter-dependent matrices
  (:func:`ss_augment`) and Subsystem (its child differentiated) become one
  block acting on (``u``, ``du``).

Sources independent of the parameter give zero constants, pruned away
together with everything they alone feed (:func:`prune_zero`).

Derivative-flow blocks are named ``d(<id>)/d(<theta>)`` with ``[n]``
suffixes for auxiliaries, so transformed diagrams diff cleanly in golden
files; differentiating twice collapses ``d(d(x)/d(t))/d(t)`` into
``d2(x)/d(t)2``.
"""

from __future__ import annotations

import re

from .diagram import Block, Diagram, Link, Output, PortRef, _subsystem_ports, make_block
from .errors import DelayOrderExceeded, UnknownParameter
from .ops import Pow, fn_rule
from .paramexpr import ZERO


def tf_param_derivative(num, den, theta: str):
    """Quotient rule on transfer-function coefficient lists.

    Returns (num', den') with num' = dN*D - N*dD and den' = D^2, all as
    symbolic coefficient arithmetic (ascending powers).
    """
    num = tuple(num)
    den = tuple(den)
    dnum = tuple(e.diff(theta) for e in num)
    dden = tuple(e.diff(theta) for e in den)
    new_num = _poly_sub(_poly_mul(dnum, den), _poly_mul(num, dden))
    new_den = _poly_mul(den, den)
    return _poly_trim(new_num), _poly_trim(new_den)


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (ZERO,) * (n - len(a))
    b = tuple(b) + (ZERO,) * (n - len(b))
    return tuple(x - y for x, y in zip(a, b))


def _poly_trim(a):
    n = len(a)
    while n > 1 and a[n - 1].is_zero():
        n -= 1
    return tuple(a[:n])


def ss_augment(A, B, C, D, theta: str):
    """Stacked state-space matrices acting on (X, dX/dtheta).

    Every matrix M becomes [[M, 0], [dM/dtheta, M]]; the same structure
    serves the discrete case.
    """
    def stack(M):
        rows = len(M)
        cols = len(M[0])
        dM = [[M[i][j].diff(theta) for j in range(cols)] for i in range(rows)]
        top = [tuple(M[i]) + (ZERO,) * cols for i in range(rows)]
        bot = [tuple(dM[i]) + tuple(M[i]) for i in range(rows)]
        return tuple(top + bot)

    return stack(A), stack(B), stack(C), stack(D)


# ---------------------------------------------------------------------------
# naming
# ---------------------------------------------------------------------------

_D1_BLOCK = re.compile(r"d\((.+)\)/d\((\w+)\)")
_D1_OUT = re.compile(r"d(.+)/d(\w+)")


def d_block_name(bid: str, theta: str) -> str:
    m = _D1_BLOCK.fullmatch(bid)
    if m and m.group(2) == theta:
        return f"d2({m.group(1)})/d({theta})2"
    return f"d({bid})/d({theta})"


def d_output_name(name: str, theta: str) -> str:
    m = _D1_OUT.fullmatch(name)
    if m and m.group(2) == theta:
        return f"d2{m.group(1)}/d{theta}2"
    return f"d{name}/d{theta}"


class _Namer:
    def __init__(self, taken: set[str], base: str):
        self._taken = taken
        self._base = base
        self._n = 0

    def next(self) -> str:
        name = self._base if self._n == 0 else f"{self._base}[{self._n}]"
        self._n += 1
        while name in self._taken:
            name = f"{self._base}[{self._n}]"
            self._n += 1
        self._taken.add(name)
        return name


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

class _Builder:
    """Accumulates the derivative flow while leaving the original alone.

    The rules of one original block at a time (:meth:`begin`) add blocks
    with :meth:`new` and wire them with :meth:`feed`, which links each
    block's input ports in the registry's order; no rule names an input
    port of a block it adds.  ``const`` ... ``sign`` are ``fn_rule``'s
    operations, each a fed block returning its output.
    """

    def __init__(self, d: Diagram, theta: str):
        self.d = d
        self.theta = theta
        self.blocks: list[Block] = []
        self.links: list[Link] = []
        self.taken = d.block_ids()
        self.zero_port: PortRef | None = None
        self.lookup_fd: list[str] = []
        self.dde: list[str] = []
        self.flow: dict[str, str] = {}    # derivative block id -> original id
        self.dmap: dict[PortRef, PortRef] = {}    # original output -> its derivative
        for b in d.blocks:
            self.dmap.update(_dmap_entry(b, theta))

    def begin(self, b: Block) -> str:
        """Start the rules of the original block ``b``; returns the name of
        the block that carries the derivative of its (first) output."""
        self.of = b.id
        self.namer = _Namer(self.taken, d_block_name(b.id, self.theta))
        return self.namer.next()

    def new(self, kind: str, name: str | None = None, **fields) -> Block:
        """A derivative-flow block of the block in hand, named ``name`` or
        the next auxiliary name."""
        return self.put(make_block(name or self.namer.next(), kind, **fields))

    def put(self, blk: Block) -> Block:
        """Add ``blk`` to the derivative flow of the block in hand."""
        self.blocks.append(blk)
        self.flow[blk.id] = self.of
        return blk

    def feed(self, block: Block, *sources: PortRef) -> PortRef:
        """Link ``sources`` to the input ports of ``block`` in order and
        return its first output."""
        bid = block.id
        ins, outs = block.port_names()
        if len(sources) != len(ins):
            raise ValueError(f"block {bid} has {len(ins)} inputs, fed {len(sources)}")
        for src, p in zip(sources, ins):
            self.links.append(Link(src, PortRef(bid, p)))
        return PortRef(bid, outs[0])

    def const(self, v: float) -> PortRef:
        return self.feed(self.new("Constant", value=v))

    def add(self, a: PortRef, b: PortRef) -> PortRef:
        return self.feed(self.new("Sum", signs="++"), a, b)

    def mul(self, a: PortRef, b: PortRef) -> PortRef:
        return self.feed(self.new("Product", n=2), a, b)

    def scale(self, c: float, a: PortRef) -> PortRef:
        return self.feed(self.new("Gain", gain=c), a)

    def neg(self, a: PortRef) -> PortRef:
        return self.scale(-1.0, a)

    def apply(self, fn, a: PortRef) -> PortRef:
        return self.feed(self.new("Fn", fn=str(fn)), a)

    def sign(self, a: PortRef) -> PortRef:      # a conditional on the original signal
        one, mone = self.const(1.0), self.const(-1.0)
        return self.feed(self.new("Switch", threshold=0.0), one, a, mone)

    def zero(self) -> PortRef:
        """The shared zero constant, made on first use."""
        if self.zero_port is None:
            nm = _Namer(self.taken, f"d(#zero)/d({self.theta})").next()
            self.blocks.append(make_block(nm, "Constant", value=0.0))
            self.flow[nm] = "#zero"
            self.zero_port = PortRef(nm, "out")
        return self.zero_port

    def u(self, port: str) -> PortRef:
        """Original signal driving an input port of the block in hand."""
        drv = self.d.driver((self.of, port))
        if drv is None:
            raise ValueError(f"input port {self.of}.{port} has no driver")
        return drv

    def du(self, port: str) -> PortRef:
        """Derivative of the signal driving an input port of the block in hand."""
        return self.dmap[self.u(port)]


def _dmap_entry(b: Block, theta: str) -> dict[PortRef, PortRef]:
    """Derivative port for every output port of one block (pure naming)."""
    dname = d_block_name(b.id, theta)
    _, outs = b.port_names()
    if b.kind == "Subsystem":
        return {PortRef(b.id, o): PortRef(dname, d_output_name(o, theta)) for o in outs}
    return {PortRef(b.id, o): PortRef(dname, o) for o in outs}


def agdm_diff(d: Diagram, theta: str) -> Diagram:
    """Differentiate a diagram with respect to one named parameter.

    The result contains the original diagram unchanged plus the
    derivative flow; every declared output gains a companion named
    ``d<output>/d<theta>``.  Structurally zero derivative branches are
    pruned (:func:`prune_zero`).
    """
    if theta not in d.params:
        raise UnknownParameter(theta, d.params.keys())

    bld = _Builder(d, theta)
    # a block already differentiated in theta (order 2) needs no rule: its
    # derivative is that block, so all the rule would add is unreachable;
    # an Inport's rule runs, as a subsystem's child keeps its derivative Inports
    done = d.annotations.get("derivative_flow", {})
    for b in d.blocks:
        if b.kind == "Inport" or done.get(d_block_name(b.id, theta)) != {"of": b.id, "theta": theta}:
            _emit_block(bld, b)

    outputs = list(d.outputs)
    seen = {o.name for o in outputs}
    for o in d.outputs:
        name = d_output_name(o.name, theta)
        if name not in seen:    # mixed partials of one base output coincide
            outputs.append(Output(name, bld.dmap[o.src]))
            seen.add(name)

    ann = dict(d.annotations)
    flow = dict(ann.get("derivative_flow", {}))
    flow.update({bid: {"of": origin, "theta": theta} for bid, origin in bld.flow.items()})
    ann["derivative_flow"] = flow
    if bld.lookup_fd:
        ann["lookup_fd_warning"] = sorted(set(ann.get("lookup_fd_warning", [])) | set(bld.lookup_fd))
    if bld.dde:
        ann["dde_sensitivity"] = sorted(set(ann.get("dde_sensitivity", [])) | set(bld.dde))

    d2 = Diagram(d.name, dict(d.params), d.blocks + bld.blocks,
                 d.links + bld.links, outputs, ann)
    # d's blocks read only each other, so their nonzero ports and links
    # carry over, and only the added flow is walked; a subsystem's child
    # keeps its derivative Inports, read or not, as its ports count them
    head = len(d.blocks)
    protect = d.block_ids() | {b.id for b in bld.blocks if b.kind == "Inport"}
    return _pruned(d2, _nonzero_ports(d2, _nonzero(d), head), protect, head, _wiring(d))


def _emit_block(bld: _Builder, b: Block):
    """Add the derivative flow of one original block.  ``u(p)`` is the
    original signal at b's input port ``p`` and ``du(p)`` its derivative;
    the branches follow the rules of the module docstring."""
    theta, k, f = bld.theta, b.kind, b.fields
    new, feed, u, du, zero = bld.new, bld.feed, bld.u, bld.du, bld.zero
    main = bld.begin(b)
    ins = b.port_names()[0]

    def copy(fields, name=None):    # a block of b's kind, on fields as ``parse_diagram`` gives them
        return bld.put(Block(name or bld.namer.next(), k, fields))

    if k == "Constant":                             # copy
        new(k, main, value=f["value"].diff(theta))
    elif k == "Step":
        new("Constant", main, value=0.0)
    elif k == "Inport":     # derivative inputs follow the diagram's own inputs
        new(k, main, index=f["index"] + len(_subsystem_ports({"diagram": bld.d})[0]))
    elif k in ("Sum", "Mux", "Demux"):    # fields are values, shared with the copy
        feed(copy(f, main), *map(du, ins))
    elif k == "UnitDelay":
        feed(new(k, main, initial=f["initial"].diff(theta),
                 sample_time=f["sample_time"]), du("in"))

    elif k in ("Gain", "TransferFnS", "TransferFnZ"):   # copy plus source term
        if k == "Gain":
            dg = f["gain"].diff(theta)
            dH = None if dg.is_zero() else {"gain": dg}
        elif any(e.depends_on(theta) for e in f["num"] + f["den"]):
            nd, dd = tf_param_derivative(f["num"], f["den"], theta)
            dH = {**f, "num": nd, "den": dd}
        else:
            dH = None
        if dH is None:
            feed(copy(f, main), du("in"))
        else:
            feed(new("Sum", main, signs="++"), feed(copy(f), du("in")), feed(copy(dH), u("in")))

    elif k == "Product":                            # chain rule
        n = f["n"]
        feed(new("Sum", main, signs="+" * n),
             *[feed(new(k, n=n), *[du(q) if j == i else u(q) for j, q in enumerate(ins)])
               for i in range(n)])
    elif k == "Fn":
        m = new("Product", main, n=2)
        fp, over = fn_rule(f["fn"], u("in"), PortRef(b.id, "out"), bld)
        feed(m, bld.apply(Pow(-1), fp) if over else fp, du("in"))

    elif k == "Switch":                             # conditional copy
        feed(copy(f, main), du("in1"), u("in2"), du("in3"))
    elif k == "Saturation":     # du where lo < u < hi, else 0
        x = u("in")
        g_lo = new("Switch", main, threshold=-f["lo"])
        g_hi = new("Switch", threshold=f["hi"])
        neg = feed(new("Gain", gain=-1.0), x)
        feed(g_lo, zero(), neg, feed(g_hi, zero(), x, du("in")))
    elif k == "SaturationDynamic":  # d(up) where u >= up, d(lo) where u <= lo, else du
        x = u("in")
        m = new("Switch", main, threshold=0.0)
        above = feed(new("Sum", signs="+-"), x, u("up"))
        inner = new("Switch", threshold=0.0)
        feed(m, du("up"), above,
             feed(inner, du("lo"), feed(new("Sum", signs="+-"), u("lo"), x), du("in")))
    elif k == "Integrator":     # a saturated one holds its derivative at 0 while clamped
        m = new(k, main, initial=f["initial"].diff(theta))
        if f["saturation"] is None:
            feed(m, du("in"))
        else:
            lo, hi = f["saturation"]
            xo = PortRef(b.id, "out")
            g_hi = feed(new("Switch", threshold=hi), zero(), xo, du("in"))
            neg = feed(new("Gain", gain=-1.0), xo)
            feed(m, feed(new("Switch", threshold=-lo), zero(), neg, g_hi))

    elif k == "LookupTable1D":                      # lookup slope
        m = new("Product", main, n=2)
        if f["piecewise_constant"]:
            slope = zero()
        else:   # the segment slopes as a stair, zero outside the table
            bp, vals = f["breakpoints"], f["values"]
            x = u("in")
            stair = feed(new(k, breakpoints=list(bp[:-1]), piecewise_constant=True,
                             values=[(vals[i + 1] - vals[i]) / (bp[i + 1] - bp[i])
                                     for i in range(len(bp) - 1)]), x)
            inside = feed(new("Switch", threshold=bp[0]), stair, x, zero())
            slope = feed(new("Switch", threshold=bp[-1]), zero(), x, inside)
        feed(m, slope, du("in"))
        bld.lookup_fd.append(main)

    elif k == "TransportDelay":                     # copy, or delay sensitivity
        h, pre = f["delay"], f["prehistory"]
        dh = h.diff(theta)
        if dh.is_zero():
            feed(new(k, main, delay=h, prehistory=pre.diff(theta)), du("in"))
        else:
            feed(new("DelaySensitivity", main, delay=h, ddelay=dh,
                     prehistory=pre, dprehistory=pre.diff(theta)),
                 u("in"), du("in"))
            bld.dde.append(main)
    elif k == "DelaySensitivity":
        raise DelayOrderExceeded(b.id, theta)

    elif k in ("StateSpaceC", "StateSpaceD"):       # copy, or stacked copy
        A, B, C, D = f["A"], f["B"], f["C"], f["D"]
        if not any(e.depends_on(theta) for M in (A, B, C, D) for row in M for e in row):
            feed(copy(f, main), *map(du, ins))
        else:   # on (u, du), with the derivative rows as outputs
            A2, B2, C2, D2 = ss_augment(A, B, C, D, theta)
            p = len(C)
            feed(copy({**f, "A": A2, "B": B2, "C": C2[p:], "D": D2[p:]}, main),
                 *map(u, ins), *map(du, ins))
    elif k == "Subsystem":      # stacked copy: the child differentiated, on (u, du)
        child: Diagram = f["diagram"]
        params = dict(child.params)
        params.setdefault(theta, bld.d.params[theta])
        aug = agdm_diff(Diagram(child.name, params, child.blocks, child.links,
                                child.outputs, dict(child.annotations)), theta)
        feed(new(k, main, diagram=aug), *map(u, ins), *map(du, ins))
    else:
        raise NotImplementedError(f"no differentiation rule for block kind {k!r}")


# ---------------------------------------------------------------------------
# structural-zero pruning
# ---------------------------------------------------------------------------

_ZERO_PRESERVING_FNS = {"sin", "tan", "atan", "sqrt", "abs"}


def _zero_rule(b: Block) -> tuple[bool, bool, tuple[str, ...]]:
    """What one block kind knows about structural zeros, as
    ``(source, need_all, ports)``: the block's outputs are nonzero if
    ``source`` holds, or if any of the input ``ports`` is nonzero (all of
    them when ``need_all`` is set)."""
    k, f = b.kind, b.fields
    source, ports = False, tuple(b.port_names()[0])
    if k in ("Inport", "Subsystem"):
        source = True       # conservative: never claim a subsystem output is zero
    elif k == "Switch":     # in2 only steers the choice
        ports = ("in1", "in3")
    elif k == "DelaySensitivity":
        source = not f["dprehistory"].is_zero()
        ports = ("din",) if f["ddelay"].is_zero() else ("din", "in")
    elif k == "Gain" and f["gain"].is_zero() or \
            k in ("TransferFnS", "TransferFnZ") and all(e.is_zero() for e in f["num"]):
        ports = ()          # a zero gain or numerator passes no input on
    elif k == "Constant":
        source = not f["value"].is_zero()
    elif k == "Step":
        source = f["level"] != 0.0
    elif k == "Integrator":
        sat = f["saturation"]
        source = not f["initial"].is_zero() or (sat is not None and not sat[0] <= 0.0 <= sat[1])
    elif k == "Fn":
        fn = f["fn"]
        source = not (fn.kind in _ZERO_PRESERVING_FNS or (fn.kind == "pow" and fn.exponent > 0))
    elif k == "Saturation":
        source = not f["lo"] <= 0.0 <= f["hi"]
    elif k == "LookupTable1D":
        source = any(v != 0.0 for v in f["values"])
    elif k == "TransportDelay":
        source = not f["prehistory"].is_zero()
    elif k == "UnitDelay":
        source = not f["initial"].is_zero()
    elif k not in ("Gain", "TransferFnS", "TransferFnZ", "Sum", "Mux", "Demux", "Product",
                   "StateSpaceC", "StateSpaceD", "SaturationDynamic"):
        raise AssertionError(k)
    return source, k == "Product", ports      # a product is zero if one factor is


def _nonzero_ports(d: Diagram, known: set[PortRef] = frozenset(),
                   start: int = 0) -> set[PortRef]:
    """Output ports that are not structurally zero: the least fixpoint of
    the blocks' zero rules (:func:`_zero_rule`), reached by a worklist.
    Each block's outputs are marked once; marking a port counts down the
    inputs each of its consumers still waits for.  The blocks before
    ``start`` read only each other and have the nonzero ports ``known``;
    only the blocks from ``start`` on are walked."""
    nz = set(known)
    blocks = d.blocks[start:]
    waiting: list[int] = []                   # per walked block
    consumers: dict[PortRef, list[int]] = {}
    work: list[int] = []
    for i, b in enumerate(blocks):
        source, need_all, ports = _zero_rule(b)
        waiting.append(len(ports) if need_all else 1)
        for p in ports:
            drv = d.driver((b.id, p))
            if drv in nz:
                waiting[i] -= 1
            elif drv is not None:
                consumers.setdefault(drv, []).append(i)
        if source or waiting[i] <= 0:
            work.append(i)
    while work:
        b = blocks[work.pop()]
        for o in b.port_names()[1]:
            p = PortRef(b.id, o)
            if p in nz:
                continue
            nz.add(p)
            for j in consumers.get(p, ()):
                waiting[j] -= 1
                if waiting[j] == 0:
                    work.append(j)
    return nz


def _nonzero(d: Diagram) -> set[PortRef]:
    if "nonzero" not in d._memo:
        d._memo["nonzero"] = _nonzero_ports(d)
    return d._memo["nonzero"]


def _wiring(d: Diagram) -> list[Link]:
    """The links of ``d`` in block and input-port order, one per driven port."""
    if "wiring" not in d._memo:
        dsts = [PortRef(b.id, p) for b in d.blocks for p in b.port_names()[0]]
        d._memo["wiring"] = [Link(d.driver(p), p) for p in dsts if d.driver(p) is not None]
    return d._memo["wiring"]


def prune_zero(d: Diagram, protect: set[str] | frozenset[str] = frozenset()) -> Diagram:
    """Remove blocks whose outputs are structurally zero and reroute.

    Sum inputs fed by zeros are dropped (arity reduction); other
    consumers of a removed signal are rewired to a shared zero constant.
    Diagram outputs fed by pruned signals keep their names, repointed to
    the zero constant.  Blocks in ``protect`` are never removed and keep
    their ports.  Simulation semantics are unchanged.
    """
    return _pruned(d, _nonzero(d), protect)


def cone(d: Diagram, output: str) -> Diagram:
    """The part of ``d`` that its output ``output`` reads: that output
    alone, and the blocks it reads directly or through other blocks, in
    ``d``'s order.  No block is pruned as zero, so each kept block
    computes what it computes in ``d``."""
    keep = [o for o in d.outputs if o.name == output]
    return _pruned(Diagram(d.name, d.params, d.blocks, d.links, keep, d.annotations), None,
                   frozenset())


def _pruned(d: Diagram, nz: set[PortRef] | None, protect: set[str] | frozenset[str],
            head: int = 0, wiring: list[Link] | tuple = ()) -> Diagram:
    """:func:`prune_zero` with the nonzero ports ``nz`` of ``d`` (None: no
    port is zero, so only the blocks no output reads go).  The first
    ``head`` blocks are protected, read only each other, and are linked
    by ``wiring``."""
    def port_zero(p: tuple[str, str]) -> bool:
        return nz is not None and p not in nz

    doomed = {b.id for b in d.blocks
              if b.id not in protect
              and b.port_names()[1]
              and all(port_zero((b.id, o)) for o in b.port_names()[1])}

    # keep: protected, live (non-doomed) blocks that remain reachable from
    # outputs/protected blocks once doomed blocks are gone
    needed: set[str] = set(protect)
    frontier = [o.src.block for o in d.outputs if o.src.block not in doomed]
    needed |= set(frontier)
    while frontier:
        bid = frontier.pop()
        for p in d.block(bid).port_names()[0]:
            drv = d.driver((bid, p))
            if drv is not None and drv.block not in doomed and drv.block not in needed:
                needed.add(drv.block)
                frontier.append(drv.block)

    zero_id = None

    def zero_block_id() -> str:
        nonlocal zero_id
        if zero_id is None:
            zero_id = "#zero"
            taken = d.block_ids()
            n = 0
            while zero_id in taken:
                n += 1
                zero_id = f"#zero[{n}]"
        return zero_id

    new_blocks: list[Block] = d.blocks[:head]
    new_links: list[Link] = list(wiring)
    for b in d.blocks[head:]:
        if b.id in doomed or b.id not in needed:
            continue
        if b.kind == "Sum" and b.id not in protect:
            ins, _ = b.port_names()
            kept = []
            for i, p in enumerate(ins):
                drv = d.driver((b.id, p))
                if drv is not None and (drv.block in doomed or port_zero(drv)):
                    continue
                kept.append((b.fields["signs"][i], drv))
            # kept is not empty: a Sum whose inputs are all zero is zero, so doomed
            nb = make_block(b.id, "Sum", signs="".join(sg for sg, _ in kept))
            new_blocks.append(nb)
            nins, _ = nb.port_names()
            for (sg, drv), np_ in zip(kept, nins):
                new_links.append(Link(drv, PortRef(b.id, np_)))
            continue
        # other blocks keep their ports; a removed driver becomes the zero
        new_blocks.append(b)
        ins, _ = b.port_names()
        for p in ins:
            drv = d.driver((b.id, p))
            if drv is None:
                continue
            if drv.block in doomed:
                new_links.append(Link(PortRef(zero_block_id(), "out"), PortRef(b.id, p)))
            else:
                new_links.append(Link(drv, PortRef(b.id, p)))

    new_outputs = []
    for o in d.outputs:
        if o.src.block in doomed or o.src.block not in needed:
            new_outputs.append(Output(o.name, PortRef(zero_block_id(), "out")))
        else:
            new_outputs.append(o)

    if zero_id is not None:
        new_blocks.append(make_block(zero_id, "Constant", value=0.0))

    ann = dict(d.annotations)
    kept_ids = {b.id for b in new_blocks}
    if "derivative_flow" in ann:
        ann["derivative_flow"] = {k: v for k, v in ann["derivative_flow"].items()
                                  if k in kept_ids}
    for key in ("lookup_fd_warning", "dde_sensitivity"):
        if key in ann:
            kept = [x for x in ann[key] if x in kept_ids]
            if kept:
                ann[key] = kept
            else:
                del ann[key]
    out = Diagram(d.name, dict(d.params), new_blocks, new_links, new_outputs, ann)
    if nz is not None:
        out._memo["nonzero"] = {p for p in nz if p.block in kept_ids}
    out._memo["wiring"] = new_links      # written in block and input-port order
    return out
