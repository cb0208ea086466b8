"""Lowering of block diagrams to flattened state-space models.

Integrators, transfer functions and state-space blocks become states
(transfer functions in controllable canonical form); every algebraic
path becomes tape expressions; Switch/Saturation/Step/lookup blocks
become branch nodes; transport delays register history slots.  Blocks
are processed in declaration order, so adding derivative-flow blocks
after the originals leaves the original sub-tape bit-identical.

A diagram must be all-continuous or all-discrete (one shared sample
time); mixing the two is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Block, Diagram, Link, Output, PortRef, _tf_degree, validate
from .errors import FlattenError, ValidationError
from .paramexpr import ParamExpr
from .sim import DelaySlot, OdeModel
from .tape import TapeBuilder

_CONTINUOUS = {"Integrator", "TransferFnS", "StateSpaceC", "TransportDelay",
               "DelaySensitivity"}
_DISCRETE = {"TransferFnZ", "StateSpaceD", "UnitDelay"}


def inline_subsystems(d: Diagram) -> Diagram:
    """Splice child diagrams into the parent namespace (ids prefixed)."""
    if not any(b.kind == "Subsystem" for b in d.blocks):
        return d
    blocks: list[Block] = []
    links: list[Link] = list(d.links)
    remap: dict[PortRef, PortRef] = {}

    for b in d.blocks:
        if b.kind != "Subsystem":
            blocks.append(b)
            continue
        child: Diagram = inline_subsystems(b.fields["diagram"])
        prefix = f"{b.id}/"
        ins, _ = b.port_names()
        inport_src = {j: d.driver((b.id, p)) for j, p in enumerate(ins)}
        for cb in child.blocks:
            if cb.kind == "Inport":
                continue
            blocks.append(Block(prefix + cb.id, cb.kind, cb.fields))
        inport_of = {cb.id: cb.fields["index"] for cb in child.blocks
                     if cb.kind == "Inport"}
        for ln in child.links:
            if ln.src.block in inport_of:
                src = inport_src[inport_of[ln.src.block]]
            else:
                src = PortRef(prefix + ln.src.block, ln.src.port)
            links.append(Link(src, PortRef(prefix + ln.dst.block, ln.dst.port)))
        for o in child.outputs:
            remap[PortRef(b.id, o.name)] = PortRef(prefix + o.src.block, o.src.port)

    sub_ids = {b.id for b in d.blocks if b.kind == "Subsystem"}
    return _rewired(d, blocks, links, remap, sub_ids)


def resolve_mux(d: Diagram) -> Diagram:
    """Route Demux outputs straight to the matching Mux input sources."""
    if not any(b.kind in ("Mux", "Demux") for b in d.blocks):
        return d
    remap: dict[PortRef, PortRef] = {}
    for b in d.blocks:
        if b.kind != "Demux":
            continue
        mux_out = d.driver((b.id, "in"))
        mux = d.block(mux_out.block)
        _, outs = b.port_names()
        mins, _ = mux.port_names()
        for k, o in enumerate(outs):
            remap[PortRef(b.id, o)] = d.driver((mux.id, mins[k]))

    dead = {b.id for b in d.blocks if b.kind in ("Mux", "Demux")}
    return _rewired(d, [b for b in d.blocks if b.id not in dead], d.links, remap, dead)


def _rewired(d: Diagram, blocks: list[Block], links: list[Link],
             remap: dict[PortRef, PortRef], dead: set[str]) -> Diagram:
    """``d`` with ``blocks`` and ``links``, less the links touching a
    ``dead`` block, and each link source and output read through
    ``remap`` to the end of its chain."""
    def fix(p: PortRef) -> PortRef:
        while p in remap:
            p = remap[p]
        return p

    links = [Link(fix(ln.src), ln.dst) for ln in links if ln.dst.block not in dead]
    links = [ln for ln in links if ln.src.block not in dead]
    outputs = [Output(o.name, fix(o.src)) for o in d.outputs]
    return Diagram(d.name, dict(d.params), blocks, links, outputs, dict(d.annotations))


@dataclass
class _StateInfo:
    block: Block
    index: int        # first state slot
    count: int


def flatten(d: Diagram) -> OdeModel:
    """Lower a diagram to an OdeModel (continuous or discrete)."""
    report = validate(d)
    if not report.ok:
        raise ValidationError(report.violations)
    if "t" in d.params:
        raise FlattenError("parameter name 't' is reserved for time")
    d = resolve_mux(inline_subsystems(d))

    kinds = {b.kind for b in d.blocks}
    has_c = kinds & _CONTINUOUS
    has_d = kinds & _DISCRETE
    if has_c and has_d:
        raise FlattenError(f"mixed continuous {sorted(has_c)} and discrete "
                           f"{sorted(has_d)} dynamics are not supported")
    discrete = bool(has_d)
    sample_time = None
    if discrete:
        times = {b.fields["sample_time"] for b in d.blocks if b.kind in _DISCRETE}
        if len(times) != 1:
            raise FlattenError(f"discrete blocks disagree on sample time: {sorted(times)}")
        sample_time = times.pop()

    # pass 1: states and delay slots, in declaration order
    states: dict[str, _StateInfo] = {}
    state_names: list[str] = []
    init_exprs: list[ParamExpr] = []
    n = 0
    delay_slot_of: dict[tuple[str, str], int] = {}   # (block, role) -> slot index
    slot_specs: list[tuple[tuple[str, str], ParamExpr, ParamExpr | None]] = []

    for b in d.blocks:
        k = b.kind
        if k in ("Integrator", "UnitDelay"):
            states[b.id] = _StateInfo(b, n, 1)
            state_names.append(b.id)
            init_exprs.append(b.fields["initial"])
            n += 1
        elif k in ("TransferFnS", "TransferFnZ"):
            deg = _tf_degree(b.fields["den"])
            if deg == 0:
                raise FlattenError(f"{b.id}: zero-order transfer function; use a Gain")
            states[b.id] = _StateInfo(b, n, deg)
            state_names.extend(f"{b.id}.x{i + 1}" for i in range(deg))
            init_exprs.extend([ParamExpr.const(0.0)] * deg)
            n += deg
        elif k in ("StateSpaceC", "StateSpaceD"):
            nn = len(b.fields["A"])
            states[b.id] = _StateInfo(b, n, nn)
            state_names.extend(f"{b.id}.x{i + 1}" for i in range(nn))
            init_exprs.extend([ParamExpr.const(0.0)] * nn)
            n += nn
        elif k == "TransportDelay":
            delay_slot_of[(b.id, "in")] = len(slot_specs)
            slot_specs.append(((b.id, "in"), b.fields["delay"],
                               b.fields["prehistory"]))
        elif k == "DelaySensitivity":
            delay_slot_of[(b.id, "din")] = len(slot_specs)
            slot_specs.append(((b.id, "din"), b.fields["delay"],
                               b.fields["dprehistory"]))
            delay_slot_of[(b.id, "in")] = len(slot_specs)
            slot_specs.append(((b.id, "in"), b.fields["delay"],
                               b.fields["prehistory"]))

    J = len(slot_specs)
    s = len(d.params)
    param_names = tuple(sorted(d.params))
    bld = TapeBuilder(n + 1 + s + 2 * J)
    x_nodes = [bld.input(i) for i in range(n)]
    t_node = bld.input(n)
    env = {p: bld.input(n + 1 + k) for k, p in enumerate(param_names)}
    env["t"] = t_node
    dval_nodes = [bld.input(n + 1 + s + j) for j in range(J)]
    dslope_nodes = [bld.input(n + 1 + s + J + j) for j in range(J)]

    memo: dict[PortRef, int] = {}

    def lower(gen, port=None) -> int:
        """Runs ``gen``, a generator that yields the output ports it reads
        and returns a node (the node of ``port``, when given).  A port not
        yet lowered is lowered first, by its own ``_emit_output``; pending
        generators form an explicit stack, so chains of any length lower
        without recursion, and each block emits its nodes in the same order
        as a recursive descent would."""
        stack, value = [(gen, port)], None
        while True:
            g, port = stack[-1]
            try:
                ref = g.send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
                if port is not None:
                    memo[port] = value
                if not stack:
                    return value
                continue
            if ref in memo:
                value = memo[ref]
            else:
                stack.append((_emit_output(d.block(ref.block), ref.port), ref))
                value = None

    def port_node(p: PortRef) -> int:
        return memo[p] if p in memo else lower(_emit_output(d.block(p.block), p.port), p)

    def ask(bid: str, port: str) -> PortRef:
        return d.driver((bid, port))

    def in_node(bid: str, port: str) -> int:
        return port_node(ask(bid, port))

    def state_terms(info: _StateInfo, row):
        return [(c, x_nodes[info.index + jx]) for jx, c in enumerate(row)]

    def ss_terms(b: Block, x_row, u_row):
        """Terms of x_row . x + u_row . u for a state-space block."""
        ins, _ = b.port_names()
        return state_terms(states[b.id], x_row) + [(c, ask(b.id, p)) for c, p in zip(u_row, ins)]

    def _emit_output(b: Block, port: str):
        """Generator of the node of ``b``'s output ``port``; it yields each
        input's driving port and is sent back that port's node."""
        k = b.kind
        f = b.fields
        if k == "Constant":
            return f["value"].to_tape(bld, env)
        if k == "Step":
            return bld.branch(t_node, f["time"], bld.const(f["level"]), bld.const(0.0))
        if k == "Gain":
            return bld.mul(f["gain"].to_tape(bld, env), (yield ask(b.id, "in")))
        if k == "Sum":
            signs = f["signs"]
            ins, _ = b.port_names()
            acc = bld.const(0.0)
            for sg, p in zip(signs, ins):
                nd = yield ask(b.id, p)
                acc = bld.add(acc, nd) if sg == "+" else bld.sub(acc, nd)
            return acc
        if k == "Product":
            ins, _ = b.port_names()
            acc = bld.const(1.0)
            for p in ins:
                acc = bld.mul(acc, (yield ask(b.id, p)))
            return acc
        if k == "Fn":
            return bld.apply(f["fn"], (yield ask(b.id, "in")))
        if k == "Switch":
            return bld.branch((yield ask(b.id, "in2")), f["threshold"],
                              (yield ask(b.id, "in1")), (yield ask(b.id, "in3")))
        if k == "Saturation":
            u = yield ask(b.id, "in")
            lo_arm = bld.branch(bld.neg(u), -f["lo"], bld.const(f["lo"]), u)
            return bld.branch(u, f["hi"], bld.const(f["hi"]), lo_arm)
        if k == "SaturationDynamic":
            u = yield ask(b.id, "in")
            up = yield ask(b.id, "up")
            lo = yield ask(b.id, "lo")
            inner = bld.branch(bld.sub(lo, u), 0.0, lo, u)
            return bld.branch(bld.sub(u, up), 0.0, up, inner)
        if k == "LookupTable1D":
            return _emit_lookup(bld, f, (yield ask(b.id, "in")))
        if k == "Integrator":
            x = x_nodes[states[b.id].index]
            return x
        if k == "UnitDelay":
            return x_nodes[states[b.id].index]
        if k in ("TransferFnS", "TransferFnZ"):
            num, den = f["num"], f["den"]
            deg = states[b.id].count
            zero = ParamExpr.const(0.0)
            bn = num[deg] if len(num) > deg else zero
            an = den[deg]
            coeffs = [(num[i] if i < len(num) else zero) - bn * den[i] / an
                      for i in range(deg)]
            return (yield from _lincomb(bld, env, state_terms(states[b.id], coeffs)
                                        + [(bn / an, ask(b.id, "in"))]))
        if k in ("StateSpaceC", "StateSpaceD"):
            i = int(port[3:]) - 1 if port != "out" else 0
            return (yield from _lincomb(bld, env, ss_terms(b, f["C"][i], f["D"][i])))
        if k == "TransportDelay":
            return dval_nodes[delay_slot_of[(b.id, "in")]]
        if k == "DelaySensitivity":
            dd = f["ddelay"].to_tape(bld, env)
            sd = dval_nodes[delay_slot_of[(b.id, "din")]]
            uslope = dslope_nodes[delay_slot_of[(b.id, "in")]]
            return bld.sub(sd, bld.mul(uslope, dd))
        raise FlattenError(f"cannot lower block kind {k!r}")

    # outputs of every block, declaration order (fixes node numbering)
    for b in d.blocks:
        _, outs = b.port_names()
        for o in outs:
            port_node(PortRef(b.id, o))

    # state derivative / update expressions
    rhs_nodes: list[int] = [0] * n
    for b in d.blocks:
        if b.id not in states:
            continue
        info = states[b.id]
        k = b.kind
        if k == "Integrator":
            u = in_node(b.id, "in")
            sat = b.fields["saturation"]
            if sat is None:
                rhs_nodes[info.index] = u
            else:
                lo, hi = sat
                x = x_nodes[info.index]
                at_hi = bld.branch(u, 0.0, bld.const(0.0), u)   # only inward flow
                at_lo = bld.branch(u, 0.0, u, bld.const(0.0))
                inner = bld.branch(bld.neg(x), -lo, at_lo, u)
                rhs_nodes[info.index] = bld.branch(x, hi, at_hi, inner)
        elif k == "UnitDelay":
            rhs_nodes[info.index] = in_node(b.id, "in")
        elif k in ("TransferFnS", "TransferFnZ"):
            den = b.fields["den"]
            deg = info.count
            u = in_node(b.id, "in")
            an = den[deg].to_tape(bld, env)
            acc = u
            for i in range(deg):
                acc = bld.sub(acc, bld.mul(den[i].to_tape(bld, env),
                                           x_nodes[info.index + i]))
            top = bld.div(acc, an)
            for i in range(deg - 1):
                rhs_nodes[info.index + i] = x_nodes[info.index + i + 1]
            rhs_nodes[info.index + deg - 1] = top
        elif k in ("StateSpaceC", "StateSpaceD"):
            A, B = b.fields["A"], b.fields["B"]
            for i in range(info.count):
                rhs_nodes[info.index + i] = lower(_lincomb(bld, env, ss_terms(b, A[i], B[i])))

    out_nodes = [port_node(o.src) for o in d.outputs]
    slot_nodes = [port_node(d.driver(spec[0])) for spec in slot_specs]
    tape = bld.build(rhs_nodes + out_nodes + slot_nodes)

    delays = tuple(DelaySlot(delay=h, prehistory=pre) for (_, h, pre) in slot_specs)
    clamps = tuple((states[b.id].index, b.fields["saturation"][0],
                    b.fields["saturation"][1])
                   for b in d.blocks
                   if b.kind == "Integrator" and b.fields["saturation"] is not None)
    return OdeModel(
        n, tape, param_names, dict(d.params), tuple(state_names),
        tuple(o.name for o in d.outputs),
        init_exprs=tuple(init_exprs), delays=delays,
        discrete=discrete, sample_time=sample_time,
        has_sensitivity=bool(d.annotations.get("derivative_flow")),
        state_clamps=clamps)


def _lincomb(bld, env, terms):
    """Generator of the sum of coeff * node over ``terms``, pairs of a
    ParamExpr and a node id or the output port to ask for.  The sum starts
    from the constant 0, which the builder's rule folds into the first
    term; a zero coefficient skips its term, so its port is never asked
    for.  Each term emits its coefficient, then its node, then the
    product, in list order."""
    acc = bld.const(0.0)
    for coeff, node in terms:
        if not coeff.is_zero():
            acc = bld.add(acc, bld.mul(coeff.to_tape(bld, env),
                                       node if isinstance(node, int) else (yield node)))
    return acc


def _emit_lookup(bld, f, u: int) -> int:
    bp = f["breakpoints"]
    vals = f["values"]
    if f["piecewise_constant"]:
        node = bld.const(vals[-1])
        for i in range(len(bp) - 2, -1, -1):
            node = bld.branch(u, bp[i + 1], node, bld.const(vals[i]))
        return node
    # clamped piecewise-linear, right-to-left fold of the branch chain
    node = bld.const(vals[-1])
    for i in range(len(bp) - 2, -1, -1):
        slope = (vals[i + 1] - vals[i]) / (bp[i + 1] - bp[i])
        seg = bld.add(bld.const(vals[i]),
                      bld.mul(bld.const(slope), bld.sub(u, bld.const(bp[i]))))
        node = bld.branch(u, bp[i + 1], node, seg)
    lo_clamp = bld.branch(u, bp[0], node, bld.const(vals[0]))
    return lo_clamp
