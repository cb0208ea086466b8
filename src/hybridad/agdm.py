"""Graphic differentiation of block diagrams.

``agdm_diff`` maps a diagram to a new diagram that contains the original
unchanged plus a derivative flow with respect to one named parameter.
The derivative flow propagates along the causality flow, block by block:

* sources independent of the parameter become zero constants and are
  pruned away together with everything they alone feed (link rule:
  unaffected blocks drop out of the derivative model);
* every block traversed by the derivative flow contributes derivative
  companions on all its outputs (link rule: widening, applied to Mux,
  Demux and subsystem port lists);
* linear blocks are duplicated onto the derivative signals, plus a
  source term (dH/dtheta applied to the original input) when the block's
  own coefficients depend on the parameter;
* nonlinear blocks become chain-rule compositions built from inventory
  blocks acting on the original signals;
* conditional blocks (Switch, saturations, saturated integrators) are
  duplicated with identical tests driven by the *original* signals; the
  thresholds are never differentiated;
* lookup tables contribute the interpolation slope between bracketing
  breakpoints -- a forward difference with increment equal to the
  breakpoint spacing -- and the transformed diagram carries an
  ``lookup_fd_warning`` warning annotation listing those blocks.

Derivative-flow blocks are named ``d(<id>)/d(<theta>)`` with ``[n]``
suffixes for auxiliaries, so transformed diagrams diff cleanly in golden
files; differentiating twice collapses ``d(d(x)/d(t))/d(t)`` into
``d2(x)/d(t)2``.
"""

from __future__ import annotations

import re

from .diagram import (Block, Diagram, Link, Output, PortRef, _e2j, _ss_json,
                      _subsystem_ports, _tf_json, make_block)
from .errors import UnknownParameter
from .ops import Pow
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
    """Accumulates the derivative flow while leaving the original alone."""

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

    def zero(self) -> PortRef:
        if self.zero_port is None:
            nm = _Namer(self.taken, f"d(#zero)/d({self.theta})").next()
            self.add(make_block(nm, "Constant", value=0.0), origin="#zero")
            self.zero_port = PortRef(nm, "out")
        return self.zero_port

    def add(self, b: Block, origin: str) -> Block:
        self.blocks.append(b)
        self.flow[b.id] = origin
        return b

    def link(self, src: PortRef, dst: PortRef):
        self.links.append(Link(src, dst))

    def u(self, bid: str, port: str) -> PortRef:
        """Original signal driving an input port of an original block."""
        drv = self.d.driver(PortRef(bid, port))
        if drv is None:
            raise ValueError(f"input port {bid}.{port} has no driver")
        return drv

    def du(self, dmap, bid: str, port: str) -> PortRef:
        return dmap[self.u(bid, port)]


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
    dmap: dict[PortRef, PortRef] = {}
    for b in d.blocks:
        dmap.update(_dmap_entry(b, theta))

    for b in d.blocks:
        _emit_block(bld, b, dmap)

    outputs = list(d.outputs)
    seen = {o.name for o in outputs}
    for o in d.outputs:
        name = d_output_name(o.name, theta)
        if name not in seen:    # mixed partials of one base output coincide
            outputs.append(Output(name, dmap[o.src]))
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
    # carry over, and only the added flow is walked
    head = len(d.blocks)
    return _pruned(d2, _nonzero_ports(d2, _nonzero(d), head), d.block_ids(), head, _wiring(d))


def _emit_block(bld: _Builder, b: Block, dmap):
    theta = bld.theta
    namer = _Namer(bld.taken, d_block_name(b.id, theta))
    main = namer.next()   # carries the derivative of b's (first) output
    k = b.kind
    f = b.fields

    def origin_add(block: Block) -> Block:
        return bld.add(block, origin=b.id)

    if k in ("Constant", "Step", "Inport"):
        if k == "Constant":
            dv = f["value"].diff(theta)
            origin_add(make_block(main, "Constant", value=_e2j(dv)))
        elif k == "Step":
            origin_add(make_block(main, "Constant", value=0.0))
        else:   # derivative inputs follow the diagram's own inputs
            n_in = len(_subsystem_ports({"diagram": bld.d})[0])
            origin_add(make_block(main, "Inport", index=f["index"] + n_in))
        return

    if k == "Gain":
        g = f["gain"]
        dg = g.diff(theta)
        if dg.is_zero():
            origin_add(make_block(main, "Gain", gain=_e2j(g)))
            bld.link(bld.du(dmap, b.id, "in"), PortRef(main, "in"))
        else:
            origin_add(make_block(main, "Sum", signs="++"))
            copy = namer.next()
            origin_add(make_block(copy, "Gain", gain=_e2j(g)))
            src = namer.next()
            origin_add(make_block(src, "Gain", gain=_e2j(dg)))
            bld.link(bld.du(dmap, b.id, "in"), PortRef(copy, "in"))
            bld.link(bld.u(b.id, "in"), PortRef(src, "in"))
            bld.link(PortRef(copy, "out"), PortRef(main, "in1"))
            bld.link(PortRef(src, "out"), PortRef(main, "in2"))
        return

    if k in ("Sum", "Mux", "Demux"):
        origin_add(Block(main, k, dict(f)))
        ins, _ = b.port_names()
        for p in ins:
            bld.link(bld.du(dmap, b.id, p), PortRef(main, p))
        return

    if k == "Product":
        n = f["n"]
        ins, _ = b.port_names()
        origin_add(make_block(main, "Sum", signs="+" * n))
        for i, p in enumerate(ins):
            term = namer.next()
            tb = origin_add(make_block(term, "Product", n=n))
            tins, _ = tb.port_names()
            for j, q in enumerate(ins):
                src = bld.du(dmap, b.id, q) if j == i else bld.u(b.id, q)
                bld.link(src, PortRef(term, tins[j]))
            bld.link(PortRef(term, "out"), PortRef(main, ins[i]))
        return

    if k == "Integrator":
        dinit = f["initial"].diff(theta)
        origin_add(make_block(main, "Integrator", initial=_e2j(dinit)))
        du = bld.du(dmap, b.id, "in")
        if f["saturation"] is None:
            bld.link(du, PortRef(main, "in"))
        else:
            lo, hi = f["saturation"]
            x = PortRef(b.id, "out")
            g_hi = namer.next()
            origin_add(make_block(g_hi, "Switch", threshold=hi))
            bld.link(bld.zero(), PortRef(g_hi, "in1"))
            bld.link(x, PortRef(g_hi, "in2"))
            bld.link(du, PortRef(g_hi, "in3"))
            neg = namer.next()
            origin_add(make_block(neg, "Gain", gain=-1.0))
            bld.link(x, PortRef(neg, "in"))
            g_lo = namer.next()
            origin_add(make_block(g_lo, "Switch", threshold=-lo))
            bld.link(bld.zero(), PortRef(g_lo, "in1"))
            bld.link(PortRef(neg, "out"), PortRef(g_lo, "in2"))
            bld.link(PortRef(g_hi, "out"), PortRef(g_lo, "in3"))
            bld.link(PortRef(g_lo, "out"), PortRef(main, "in"))
        return

    if k in ("TransferFnS", "TransferFnZ"):
        num, den = f["num"], f["den"]
        dep = any(e.depends_on(theta) for e in num + den)
        if not dep:
            origin_add(make_block(main, k, **_tf_json(f)))
            bld.link(bld.du(dmap, b.id, "in"), PortRef(main, "in"))
        else:
            origin_add(make_block(main, "Sum", signs="++"))
            copy = namer.next()
            origin_add(make_block(copy, k, **_tf_json(f)))
            nd, dd = tf_param_derivative(num, den, theta)
            src = namer.next()
            origin_add(make_block(src, k, **_tf_json({**f, "num": nd, "den": dd})))
            bld.link(bld.du(dmap, b.id, "in"), PortRef(copy, "in"))
            bld.link(bld.u(b.id, "in"), PortRef(src, "in"))
            bld.link(PortRef(copy, "out"), PortRef(main, "in1"))
            bld.link(PortRef(src, "out"), PortRef(main, "in2"))
        return

    if k in ("StateSpaceC", "StateSpaceD"):
        A, B, C, D = f["A"], f["B"], f["C"], f["D"]
        dep = any(e.depends_on(theta) for M in (A, B, C, D) for row in M for e in row)
        ins, outs = b.port_names()
        if not dep:
            origin_add(make_block(main, k, **_ss_json(f)))
            for p in ins:
                bld.link(bld.du(dmap, b.id, p), PortRef(main, p))
            return
        A2, B2, C2, D2 = ss_augment(A, B, C, D, theta)
        n = len(A)
        p_out = len(C)
        # private stacked copy: inputs (u, du), outputs the derivative rows
        Cd = tuple(C2[p_out + i] for i in range(p_out))
        Dd = tuple(D2[p_out + i] for i in range(p_out))
        mb = origin_add(make_block(main, k, **_ss_json({**f, "A": A2, "B": B2,
                                                        "C": Cd, "D": Dd})))
        dins, _ = mb.port_names()
        m_in = len(ins)
        for j, p in enumerate(ins):
            bld.link(bld.u(b.id, p), PortRef(main, dins[j]))
            bld.link(bld.du(dmap, b.id, p), PortRef(main, dins[m_in + j]))
        return

    if k == "Fn":
        fn = f["fn"]
        u = bld.u(b.id, "in")
        du = bld.du(dmap, b.id, "in")
        y = PortRef(b.id, "out")
        origin_add(make_block(main, "Product", n=2))

        def aux(kind, **kw) -> PortRef:
            nm = namer.next()
            origin_add(make_block(nm, kind, **kw))
            return PortRef(nm, "out")

        kind = fn.kind
        if kind == "exp":
            fp = y
        elif kind == "log":
            fp = aux("Fn", fn="pow[-1]")
            bld.link(u, PortRef(fp.block, "in"))
        elif kind == "sin":
            fp = aux("Fn", fn="cos")
            bld.link(u, PortRef(fp.block, "in"))
        elif kind == "cos":
            s = aux("Fn", fn="sin")
            bld.link(u, PortRef(s.block, "in"))
            fp = aux("Gain", gain=-1.0)
            bld.link(s, PortRef(fp.block, "in"))
        elif kind == "tan":
            sq = aux("Product", n=2)
            bld.link(y, PortRef(sq.block, "in1"))
            bld.link(y, PortRef(sq.block, "in2"))
            one = aux("Constant", value=1.0)
            fp = aux("Sum", signs="++")
            bld.link(one, PortRef(fp.block, "in1"))
            bld.link(sq, PortRef(fp.block, "in2"))
        elif kind == "atan":
            sq = aux("Product", n=2)
            bld.link(u, PortRef(sq.block, "in1"))
            bld.link(u, PortRef(sq.block, "in2"))
            one = aux("Constant", value=1.0)
            den = aux("Sum", signs="++")
            bld.link(one, PortRef(den.block, "in1"))
            bld.link(sq, PortRef(den.block, "in2"))
            fp = aux("Fn", fn="pow[-1]")
            bld.link(den, PortRef(fp.block, "in"))
        elif kind == "sqrt":
            dbl = aux("Gain", gain=2.0)
            bld.link(y, PortRef(dbl.block, "in"))
            fp = aux("Fn", fn="pow[-1]")
            bld.link(dbl, PortRef(fp.block, "in"))
        elif kind == "pow":
            p = fn.exponent
            pw = aux("Fn", fn=str(Pow(p - 1)))
            bld.link(u, PortRef(pw.block, "in"))
            fp = aux("Gain", gain=p)
            bld.link(pw, PortRef(fp.block, "in"))
        elif kind == "abs":
            # sign(u) via a conditional on the original signal
            one = aux("Constant", value=1.0)
            mone = aux("Constant", value=-1.0)
            fp = aux("Switch", threshold=0.0)
            bld.link(one, PortRef(fp.block, "in1"))
            bld.link(u, PortRef(fp.block, "in2"))
            bld.link(mone, PortRef(fp.block, "in3"))
        else:
            raise AssertionError(kind)
        bld.link(fp, PortRef(main, "in1"))
        bld.link(du, PortRef(main, "in2"))
        return

    if k == "Switch":
        origin_add(make_block(main, "Switch", threshold=f["threshold"]))
        bld.link(bld.du(dmap, b.id, "in1"), PortRef(main, "in1"))
        bld.link(bld.u(b.id, "in2"), PortRef(main, "in2"))
        bld.link(bld.du(dmap, b.id, "in3"), PortRef(main, "in3"))
        return

    if k == "Saturation":
        lo, hi = f["lo"], f["hi"]
        u = bld.u(b.id, "in")
        du = bld.du(dmap, b.id, "in")
        g_lo = main
        origin_add(make_block(g_lo, "Switch", threshold=-lo))
        g_hi = namer.next()
        origin_add(make_block(g_hi, "Switch", threshold=hi))
        neg = namer.next()
        origin_add(make_block(neg, "Gain", gain=-1.0))
        bld.link(bld.zero(), PortRef(g_hi, "in1"))
        bld.link(u, PortRef(g_hi, "in2"))
        bld.link(du, PortRef(g_hi, "in3"))
        bld.link(u, PortRef(neg, "in"))
        bld.link(bld.zero(), PortRef(g_lo, "in1"))
        bld.link(PortRef(neg, "out"), PortRef(g_lo, "in2"))
        bld.link(PortRef(g_hi, "out"), PortRef(g_lo, "in3"))
        return

    if k == "SaturationDynamic":
        up = bld.u(b.id, "up")
        u = bld.u(b.id, "in")
        lo = bld.u(b.id, "lo")
        origin_add(make_block(main, "Switch", threshold=0.0))
        d_hi = namer.next()
        origin_add(make_block(d_hi, "Sum", signs="+-"))   # u - up
        bld.link(u, PortRef(d_hi, "in1"))
        bld.link(up, PortRef(d_hi, "in2"))
        inner = namer.next()
        origin_add(make_block(inner, "Switch", threshold=0.0))
        d_lo = namer.next()
        origin_add(make_block(d_lo, "Sum", signs="+-"))   # lo - u
        bld.link(lo, PortRef(d_lo, "in1"))
        bld.link(u, PortRef(d_lo, "in2"))
        bld.link(bld.du(dmap, b.id, "up"), PortRef(main, "in1"))
        bld.link(PortRef(d_hi, "out"), PortRef(main, "in2"))
        bld.link(PortRef(inner, "out"), PortRef(main, "in3"))
        bld.link(bld.du(dmap, b.id, "lo"), PortRef(inner, "in1"))
        bld.link(PortRef(d_lo, "out"), PortRef(inner, "in2"))
        bld.link(bld.du(dmap, b.id, "in"), PortRef(inner, "in3"))
        return

    if k == "LookupTable1D":
        bp = f["breakpoints"]
        vals = f["values"]
        u = bld.u(b.id, "in")
        du = bld.du(dmap, b.id, "in")
        origin_add(make_block(main, "Product", n=2))
        if f["piecewise_constant"]:
            slope_port = bld.zero()
        else:
            slopes = [(vals[i + 1] - vals[i]) / (bp[i + 1] - bp[i])
                      for i in range(len(bp) - 1)]
            stair = namer.next()
            origin_add(make_block(stair, "LookupTable1D", breakpoints=list(bp[:-1]),
                                  values=slopes, piecewise_constant=True))
            bld.link(u, PortRef(stair, "in"))
            g_in = namer.next()
            origin_add(make_block(g_in, "Switch", threshold=bp[0]))
            bld.link(PortRef(stair, "out"), PortRef(g_in, "in1"))
            bld.link(u, PortRef(g_in, "in2"))
            bld.link(bld.zero(), PortRef(g_in, "in3"))
            g_out = namer.next()
            origin_add(make_block(g_out, "Switch", threshold=bp[-1]))
            bld.link(bld.zero(), PortRef(g_out, "in1"))
            bld.link(u, PortRef(g_out, "in2"))
            bld.link(PortRef(g_in, "out"), PortRef(g_out, "in3"))
            slope_port = PortRef(g_out, "out")
        bld.link(slope_port, PortRef(main, "in1"))
        bld.link(du, PortRef(main, "in2"))
        bld.lookup_fd.append(main)
        return

    if k == "TransportDelay":
        h = f["delay"]
        dh = h.diff(theta)
        pre = f["prehistory"]
        if dh.is_zero():
            origin_add(make_block(main, "TransportDelay", delay=_e2j(h),
                                  prehistory=_e2j(pre.diff(theta))))
            bld.link(bld.du(dmap, b.id, "in"), PortRef(main, "in"))
        else:
            origin_add(make_block(main, "DelaySensitivity", delay=_e2j(h), ddelay=_e2j(dh),
                                  prehistory=_e2j(pre), dprehistory=_e2j(pre.diff(theta))))
            bld.link(bld.u(b.id, "in"), PortRef(main, "in"))
            bld.link(bld.du(dmap, b.id, "in"), PortRef(main, "din"))
            bld.dde.append(main)
        return

    if k == "UnitDelay":
        origin_add(make_block(main, "UnitDelay", initial=_e2j(f["initial"].diff(theta)),
                              sample_time=f["sample_time"]))
        bld.link(bld.du(dmap, b.id, "in"), PortRef(main, "in"))
        return

    if k == "DelaySensitivity":
        raise NotImplementedError(
            "second derivative through a parameter-dependent delay needs "
            "second-order delayed slopes; not supported")

    if k == "Subsystem":
        child: Diagram = f["diagram"]
        child_params = dict(child.params)
        child_params.setdefault(theta, bld.d.params[theta])
        child2 = Diagram(child.name, child_params, child.blocks, child.links,
                         child.outputs, dict(child.annotations))
        aug = agdm_diff(child2, theta)
        mb = origin_add(Block(main, "Subsystem", {"diagram": aug}))
        ins, _ = b.port_names()
        n_in = len(ins)
        dins, _ = mb.port_names()
        for j, p in enumerate(ins):
            bld.link(bld.u(b.id, p), PortRef(main, dins[j]))
            bld.link(bld.du(dmap, b.id, p), PortRef(main, dins[n_in + j]))
        return

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
            drv = d.driver(PortRef(b.id, p))
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


def _pruned(d: Diagram, nz: set[PortRef], protect: set[str] | frozenset[str],
            head: int = 0, wiring: list[Link] | tuple = ()) -> Diagram:
    """:func:`prune_zero` with the nonzero ports ``nz`` of ``d``.  The
    first ``head`` blocks are protected, read only each other, and are
    linked by ``wiring``."""
    def port_zero(p: PortRef) -> bool:
        return p not in nz

    doomed = {b.id for b in d.blocks
              if b.id not in protect
              and b.port_names()[1]
              and all(port_zero(PortRef(b.id, o)) for o in b.port_names()[1])}

    # keep: protected, live (non-doomed) blocks that remain reachable from
    # outputs/protected blocks once doomed blocks are gone
    needed: set[str] = set(protect)
    frontier = [o.src.block for o in d.outputs if o.src.block not in doomed]
    needed |= set(frontier)
    while frontier:
        bid = frontier.pop()
        for p in d.block(bid).port_names()[0]:
            drv = d.driver(PortRef(bid, p))
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
                drv = d.driver(PortRef(b.id, p))
                if drv is not None and (drv.block in doomed or port_zero(drv)):
                    continue
                kept.append((b.fields["signs"][i], drv))
            if kept:
                signs = "".join(sg for sg, _ in kept)
                nb = make_block(b.id, "Sum", signs=signs)
                new_blocks.append(nb)
                nins, _ = nb.port_names()
                for (sg, drv), np_ in zip(kept, nins):
                    new_links.append(Link(drv, PortRef(b.id, np_)))
                continue
            # all inputs pruned but the block itself survives: feed zero
            nb = make_block(b.id, "Sum", signs=b.fields["signs"][0])
            new_blocks.append(nb)
            new_links.append(Link(PortRef(zero_block_id(), "out"), PortRef(b.id, "in")))
            continue
        # other blocks keep their ports; a removed driver becomes the zero
        new_blocks.append(b)
        ins, _ = b.port_names()
        for p in ins:
            drv = d.driver(PortRef(b.id, p))
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
    out._memo["nonzero"] = {p for p in nz if p.block in kept_ids}
    out._memo["wiring"] = new_links      # written in block and input-port order
    return out
