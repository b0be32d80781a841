package ccompile

import (
	"math"
	"strings"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
)

// Loop kernels: the steady state of the three innermost loop shapes of
// the driver corpus compiles to one kernel each, a plain Go loop over
// closure-free operands instead of the superblock's segment and closure
// hops.
//
//   - Transfer: `for (…; i OP B; i++/i--)` whose body is one or two of
//     `kbuf_write{8,16}(OFF, in{b,w,l}(P))`, `v = in*(P)`,
//     `kbuf_write*(OFF, v)`, `v = kbuf_read*(OFF)`, `out*(v, P)` and
//     `out*(kbuf_read*(OFF), P)`.
//   - Bounded poll: `for (…; i OP B; i++/i--) { if (C) S }` whose test
//     the kernel can forward (below): no else, a condition that spans,
//     and C either `in*(P) OP M` with constant P and M a constant or a
//     local other than the post local, which reads the bus directly, or
//     a Devil stub condition (stubTest: `get_X()`, `dil_eq(get_X(), K)`
//     or `get_X() OP M`, each also under one `!`), which runs through
//     the closure the if segment already compiled. S runs through its
//     compiled closure.
//   - Busy-wait: `while (in*(P) OP M) {}`.
//
// The builtins must resolve as builtins (no driver function shadows
// them) with their exact arity. P and M are literals or literal macros
// (fuseOperand's constant case), v is a local, and OFF is affine over
// locals (+, -, *lit, <<lit), held as an affine form.
//
// A kernel takes over once one iteration of the superblock has
// completed every segment, and makes exactly the kernel, clock and bus
// calls the superblock's iterations make, in the same order, with the
// charges nothing observable separates batched: StepN(head), the
// statements, the post, StepN(2), the condition. Sub-expression
// coverage adds are dropped: every line they add is fixed at compile
// time and was covered by the completed iteration. A transfer or poll
// kernel forms only where the loop bound B hoists to kernel entry: a
// constant, or affine (optionally ÷ a positive literal) over locals
// that neither a transfer statement nor the post writes; a poll's
// branch may write any local, so a poll hoists constants only.
//
// Two entry checks send the rest of a loop execution back to the
// superblock's iterations: a macro operand whose guard would take the
// late path, and a Devil value in a local a kernel statement stores to
// (the assignment would store it untruncated). Neither can change within
// one loop execution: declsReady moves only between global initialisers,
// every call and macro expansion restores depth, and a kernel stores
// only integers.
//
// Fast-forward: when the bus can predict the loop's port reads (see
// hw.SteadyReader and hw.BurstReader) a kernel applies many iterations
// in one step, with the same results and far fewer device calls. The
// iterations it applies are those of a poll whose test reads steady
// ports and fails, of a busy-wait whose test reads a steady port and
// holds, and of a transfer whose first statement reads the port into
// the buffer. Their number n is the smallest of the condition's span
// (iterations after which a hoisted `i OP B` still holds), the steady
// horizon (reads that land before the value can change) and the
// watchdog's room, so the one batched charge never trips the watchdog;
// a transfer also stops before its first wild buffer offset. The post
// local moves by n steps, the bus counts n reads (n per fragment of a
// stub test's variable), a transfer stores the n values, and everything
// else runs the per-iteration code. A stub test predicts through
// codegen.Accessor.Steady, which refuses a register with pre-actions
// and, in debug mode, a value that fails the read assertion; dil_eq's
// type mismatch refuses too, so the closures raise either at its step.
// The block stubs' get_block_ reads burst the same way (burstBlock in
// expr.go). The bus predicts nothing while tracing is on, which the
// kernel checks once per run. Under a fault injector it predicts, and
// a window also stops before the first read that rolls a fault, with
// each read landing the injector's latency later (window; Bus.Burst
// bounds a transfer's burst itself). Accessor.Steady refuses there, so
// a stub test reads every iteration.
//
// The kernels keep their own per-iteration code (portTest.eval,
// xferOp.exec, bufRead/bufWrite, the poll's port branch and spinKernel)
// because every simpler form measured was slower on some workload, at
// 0.21–0.89 of the boots/s: no kernels, kernels that hand each
// iteration back to the superblock or iterate through its closures, no
// busy-wait kernel, and tests run through the if or loop-condition
// closure (ARCHITECTURE.md, "Loop kernels", has the ratios).

// loopKernel runs every remaining iteration of one loop execution.
// ran is false when an entry check failed and nothing ran; otherwise
// fl and err are the loop statement's own result.
type loopKernel interface {
	run(st *state, fr []Value, head int64) (fl flow, ran bool, err error)
}

// lateOrd reports whether a macro operand's guard takes the late path;
// ord is -1 for a literal.
func lateOrd(ord int32, st *state) bool {
	return ord >= 0 && (int(ord) >= st.declsReady || st.depth >= maxCallDepth)
}

// kport is a constant port operand.
type kport struct {
	port hw.Port
	ord  int32 // the macro's declaration order, -1 for a literal
}

// kportOf classifies a port operand exactly as the closures' fuseOperand
// does, accepting only its constant case. Kernels make no coverage
// adds, so the operand's line (resolved against 0) goes unused, here and
// in maskOpOf and forTail.
func (c *compiler) kportOf(x cast.Expr) (kport, bool) {
	o, ok := c.fuseOperand(x, 0)
	if !ok || o.slot >= 0 {
		return kport{}, false
	}
	return kport{port: hw.Port(o.v), ord: o.ord}, true
}

// affine is c + Σ coef[k]·fr[slot[k]].I over at most two locals. Its
// int64 arithmetic wraps exactly like the closures it replaces: +, -,
// multiplication and left shift by a literal are all ring operations
// modulo 2^64.
type affine struct {
	c    int64
	coef [2]int32
	slot [2]int16
	n    uint8
}

func (a *affine) eval(fr []Value) int64 {
	v := a.c
	for k := uint8(0); k < a.n; k++ {
		v += int64(a.coef[k]) * fr[a.slot[k]].I
	}
	return v
}

// coefOf is the form's coefficient of a local slot.
func (a *affine) coefOf(slot int) int64 {
	var c int64
	for k := uint8(0); k < a.n; k++ {
		if int(a.slot[k]) == slot {
			c += int64(a.coef[k])
		}
	}
	return c
}

// reads reports whether the form reads a local slot.
func (a *affine) reads(slot int) bool {
	for k := uint8(0); k < a.n; k++ {
		if int(a.slot[k]) == slot {
			return true
		}
	}
	return false
}

// affineAcc accumulates an affine form with full-width coefficients.
type affineAcc struct {
	c    int64
	coef [2]int64
	slot [2]int
	n    int
}

// affineOf builds the affine form of an expression over locals and
// literals, or reports false.
func (c *compiler) affineOf(x cast.Expr) (affine, bool) {
	var acc affineAcc
	if !c.accAffine(x, 1, &acc) {
		return affine{}, false
	}
	a := affine{c: acc.c, n: uint8(acc.n)}
	for k := 0; k < acc.n; k++ {
		if acc.coef[k] != int64(int32(acc.coef[k])) || acc.slot[k] != int(int16(acc.slot[k])) {
			return affine{}, false
		}
		a.coef[k], a.slot[k] = int32(acc.coef[k]), int16(acc.slot[k])
	}
	return a, true
}

// accAffine adds scale·x to acc.
func (c *compiler) accAffine(x cast.Expr, scale int64, acc *affineAcc) bool {
	switch x := x.(type) {
	case *cast.IntLit:
		acc.c += scale * x.Value
		return true
	case *cast.Ident:
		ls, ok := c.lookupLocal(x.Name)
		if !ok {
			return false
		}
		for k := 0; k < acc.n; k++ {
			if acc.slot[k] == ls.idx {
				acc.coef[k] += scale
				return true
			}
		}
		if acc.n == len(acc.slot) {
			return false
		}
		acc.slot[acc.n], acc.coef[acc.n] = ls.idx, scale
		acc.n++
		return true
	case *cast.BinaryExpr:
		switch x.Op {
		case ctoken.Add:
			return c.accAffine(x.X, scale, acc) && c.accAffine(x.Y, scale, acc)
		case ctoken.Sub:
			return c.accAffine(x.X, scale, acc) && c.accAffine(x.Y, -scale, acc)
		case ctoken.Mul:
			if k, ok := x.Y.(*cast.IntLit); ok {
				return c.accAffine(x.X, scale*k.Value, acc)
			}
			if k, ok := x.X.(*cast.IntLit); ok {
				return c.accAffine(x.Y, scale*k.Value, acc)
			}
		case ctoken.Shl:
			if k, ok := x.Y.(*cast.IntLit); ok {
				return c.accAffine(x.X, scale<<uint(k.Value&63), acc)
			}
		}
	}
	return false
}

// builtinCall matches a call that resolves to a kernel builtin with the
// given arity: no driver function of that name shadows it.
func (c *compiler) builtinCall(x cast.Expr, arity int) (*cast.CallExpr, bool) {
	call, ok := x.(*cast.CallExpr)
	if !ok || len(call.Args) != arity {
		return nil, false
	}
	if _, shadowed := c.funcIdx[call.Name]; shadowed {
		return nil, false
	}
	return call, true
}

// ioWidth is the access width of a port builtin, 0 for other names.
func ioWidth(name string) hw.AccessWidth {
	switch name {
	case "inb", "outb":
		return hw.Width8
	case "inw", "outw":
		return hw.Width16
	case "inl", "outl":
		return hw.Width32
	}
	return 0
}

// maskOp is a poll test's `OP M`: a pure integer operator and M, a
// constant or a local (fuseOperand's cases).
type maskOp struct {
	f     func(a, b int64) int64
	m     int64
	mord  int32
	mslot int32 // M's local slot, -1 for a constant
}

// maskOpOf classifies `OP M`.
func (c *compiler) maskOpOf(op ctoken.Kind, y cast.Expr) (maskOp, bool) {
	f := intBinOp(op)
	m, ok := c.fuseOperand(y, 0)
	if f == nil || !ok {
		return maskOp{}, false
	}
	return maskOp{f: f, m: m.v, mord: m.ord, mslot: m.slot}, true
}

// apply is `v OP M` with M's current value.
func (o *maskOp) apply(v int64, fr []Value) bool {
	m := o.m
	if o.mslot >= 0 {
		m = fr[o.mslot].I
	}
	return o.f(v, m) != 0
}

// portTest is the condition `in*(P) OP M` with constant P, the
// constant-port case of maskedRead.
type portTest struct {
	port  kport
	width hw.AccessWidth
	maskOp
}

// portTestOf recognises the condition shape binary() compiles through
// maskedRead with a constant port and a constant or local mask.
func (c *compiler) portTestOf(x cast.Expr) (portTest, bool) {
	b, ok := x.(*cast.BinaryExpr)
	if !ok {
		return portTest{}, false
	}
	in, ok := c.builtinCall(b.X, 1)
	if !ok || in.Name[0] != 'i' {
		return portTest{}, false
	}
	width := ioWidth(in.Name)
	p, pok := c.kportOf(in.Args[0])
	m, mok := c.maskOpOf(b.Op, b.Y)
	if width == 0 || !pok || !mok {
		return portTest{}, false
	}
	return portTest{port: p, width: width, maskOp: m}, true
}

func (t *portTest) late(st *state) bool {
	return lateOrd(t.port.ord, st) || lateOrd(t.mord, st)
}

func (t *portTest) eval(st *state, fr []Value) (bool, error) {
	v, err := st.bus.Read(t.port.port, t.width)
	if err != nil {
		return false, err
	}
	return t.apply(int64(v), fr), nil
}

// steady predicts the test's outcome, the value it reads, and until
// when both hold.
func (t *portTest) steady(st *state, fr []Value) (holds bool, v uint32, until uint64, ok bool) {
	v, until, ok = st.bus.Steady(t.port.port, t.width)
	return ok && t.apply(int64(v), fr), v, until, ok
}

// stubTest is a poll condition over one Devil stub read, portTest's
// twin for the Devil drivers: `get_X()`, `dil_eq(get_X(), K)` with K a
// Devil enum constant, or `get_X() OP M`, each also under one `!`. The
// poll evaluates it through its compiled closures; stubTest only
// predicts it, converting the predicted value as the get_X() closure
// does.
type stubTest struct {
	acc  *codegen.Accessor
	conv stubConv
	not  bool
	eq   bool
	k    codegen.Value // dil_eq's K
	// maskOp is the `OP M` shape's; f is nil for the others.
	maskOp
}

// stubTestOf recognises a stubTest condition, or returns nil.
func (c *compiler) stubTestOf(x cast.Expr) *stubTest {
	if c.stubs == nil {
		return nil
	}
	var not, eq bool
	var k codegen.Value
	m := maskOp{mord: -1, mslot: -1}
	if u, ok := x.(*cast.UnaryExpr); ok && u.Op == ctoken.Not {
		not, x = true, u.X
	}
	get := x
	if call, ok := c.builtinCall(x, 2); ok && call.Name == "dil_eq" {
		if k, ok = c.enumConst(call.Args[1]); !ok {
			return nil
		}
		eq, get = true, call.Args[0]
	} else if b, ok := x.(*cast.BinaryExpr); ok {
		if m, ok = c.maskOpOf(b.Op, b.Y); !ok {
			return nil
		}
		get = b.X
	}
	call, ok := c.builtinCall(get, 0)
	if !ok || !strings.HasPrefix(call.Name, "get_") || strings.HasPrefix(call.Name, "get_block_") {
		return nil
	}
	sig, acc, ok := c.stubVar(call.Name[len("get_"):])
	if !ok || !acc.Readable() {
		return nil
	}
	return &stubTest{acc: acc, conv: stubConvOf(sig), not: not, eq: eq, k: k, maskOp: m}
}

// enumConst is the Devil enum constant an identifier compiles to (see
// ident): one no local, global or macro of that name shadows.
func (c *compiler) enumConst(x cast.Expr) (codegen.Value, bool) {
	id, ok := x.(*cast.Ident)
	if !ok {
		return codegen.Value{}, false
	}
	_, local := c.lookupLocal(id.Name)
	_, global := c.globalIdx[id.Name]
	_, macro := c.macros[id.Name]
	if local || global || macro {
		return codegen.Value{}, false
	}
	return c.stubs.Const(id.Name)
}

// late reports whether M is a macro whose guard takes the late path.
func (t *stubTest) late(st *state) bool {
	return lateOrd(t.mord, st)
}

// steady predicts the test's outcome, and until when it holds. ok is
// false where the read would raise an assertion or dil_eq a type
// mismatch: the closures then raise it.
func (t *stubTest) steady(st *state, fr []Value) (holds bool, until uint64, ok bool) {
	dv, until, ok := t.acc.Steady()
	if !ok {
		return false, 0, false
	}
	v := t.conv.value(dv)
	switch {
	case t.eq:
		eq, err := st.stubs.Eq(toDevil(v), t.k)
		if err != nil {
			return false, 0, false
		}
		holds = eq
	case t.f != nil:
		holds = t.apply(v.I, fr)
	default:
		holds = v.Truthy()
	}
	return holds != t.not, until, true
}

// horizon is how many reads, the first at time first and then one every
// per ticks, land before until.
func horizon(first, until uint64, per int64) int64 {
	if until <= first {
		return 0
	}
	return int64(min((until-1-first)/uint64(per), math.MaxInt64-1)) + 1
}

// window bounds a forward of at most n iterations that each charge per
// steps and read port once, head steps after the iteration starts, by
// the steady horizon until. On a bus with a fault injector it also
// stops before the first read that rolls a fault, and each read lands
// the injector's latency later and adds it to the iteration's ticks
// (the injector ticks the clock the kernel reads).
func window(st *state, port hw.Port, n, head, per int64, until uint64) int64 {
	if n <= 0 {
		return 0
	}
	first := st.kern.Now() + uint64(head)
	if st.bus.Injector() != nil {
		clean, lat := st.bus.CleanReads(port, uint64(n))
		n, first, per = int64(clean), first+lat, per+int64(lat)
	}
	return min(n, horizon(first, until, per))
}

// loopTail is a kernel for loop's iteration tail: the pure i++/i-- post
// with its batched post and end charges, then the condition.
type loopTail struct {
	post   int32
	delta  int8
	ptrunc uint8 // the post local's cast.TypeKind
	// f is the condition operator, op its token; x is the condition's
	// left local.
	f     func(a, b int64) int64
	op    ctoken.Kind
	x     int32
	bord  int32 // the bound macro's declaration order, -1 for none
	div   int64 // bound divisor, 0 for none
	bound affine
}

// forTail compiles the tail of a for loop with a pure post. invariant
// reports whether an affine bound's locals stay unchanged through the
// body. ok is false when the bound does not hoist.
func (c *compiler) forTail(s *cast.ForStmt, invariant func(a *affine) bool) (t loopTail, ok bool) {
	id := s.Post.(*cast.IncDecStmt)
	ls, _ := c.lookupLocal(id.X.Name)
	t = loopTail{post: int32(ls.idx), delta: 1, ptrunc: uint8(ls.typ.Kind), bord: -1}
	if id.Op == ctoken.MinusMinus {
		t.delta = -1
	}
	cond, ok := s.Cond.(*cast.BinaryExpr)
	if !ok {
		return t, false
	}
	f := intBinOp(cond.Op)
	xo, xok := c.fuseOperand(cond.X, 0)
	if f == nil || !xok || xo.slot < 0 {
		return t, false
	}
	if yo, ok := c.fuseOperand(cond.Y, 0); ok && yo.slot < 0 {
		t.bound.c, t.bord = yo.v, yo.ord
	} else {
		bx, div := cond.Y, int64(0)
		if d, ok := bx.(*cast.BinaryExpr); ok && d.Op == ctoken.Div {
			if lit, ok := d.Y.(*cast.IntLit); ok && lit.Value > 0 {
				bx, div = d.X, lit.Value
			}
		}
		a, ok := c.affineOf(bx)
		if !ok || a.reads(int(t.post)) || !invariant(&a) {
			return t, false
		}
		t.bound, t.div = a, div
	}
	t.f, t.op, t.x = f, cond.Op, xo.slot
	return t, true
}

// spans reports whether span can be non-zero: the hoisted condition
// orders the post local itself against the bound.
func (t *loopTail) spans() bool {
	_, _, ok := kindRange(cast.TypeKind(t.ptrunc))
	switch t.op {
	case ctoken.Lt, ctoken.Le, ctoken.Gt, ctoken.Ge, ctoken.Ne:
		return ok && t.x == t.post
	}
	return false
}

// kindRange is the value range of an integer local's type.
func kindRange(k cast.TypeKind) (lo, hi int64, ok bool) {
	switch k {
	case cast.TypeU8:
		return 0, math.MaxUint8, true
	case cast.TypeU16:
		return 0, math.MaxUint16, true
	case cast.TypeU32:
		return 0, math.MaxUint32, true
	case cast.TypeS8:
		return math.MinInt8, math.MaxInt8, true
	case cast.TypeS16:
		return math.MinInt16, math.MaxInt16, true
	case cast.TypeInt, cast.TypeS32:
		return math.MinInt32, math.MaxInt32, true
	}
	return 0, 0, false
}

// span is how many iterations from here keep the loop going: the number
// of posts after each of which `i OP b` still holds, stopping before the
// post local's type wraps. The caller has checked spans, and calls it
// only while the condition holds.
func (t *loopTail) span(fr []Value, b int64) int64 {
	lo, hi, _ := kindRange(cast.TypeKind(t.ptrunc))
	p := fr[t.post].I
	if p < lo || p > hi {
		return 0
	}
	// A bound outside the type's range orders against every value of
	// the local as the nearest out-of-range value does.
	b = max(lo-1, min(b, hi+1))
	room, op := hi-p, t.op
	if t.delta < 0 {
		// Count down as -i counting up: i OP b is -i OP' -b.
		room, p, b = p-lo, -p, -b
		switch op {
		case ctoken.Lt:
			op = ctoken.Gt
		case ctoken.Le:
			op = ctoken.Ge
		case ctoken.Gt:
			op = ctoken.Lt
		case ctoken.Ge:
			op = ctoken.Le
		}
	}
	// After j posts the local is p+j. The condition holds now, so > and
	// >= keep holding until the wrap.
	n := room
	switch op {
	case ctoken.Lt:
		n = b - p - 1
	case ctoken.Le:
		n = b - p
	case ctoken.Ne:
		if b > p {
			n = b - p - 1
		}
	}
	return max(0, min(n, room))
}

// advance applies n posts that span allowed.
func (t *loopTail) advance(fr []Value, n int64) {
	fr[t.post] = intValue(fr[t.post].I + n*int64(t.delta))
}

// entry evaluates the hoisted bound at kernel entry; ok is false when a
// macro bound's guard would take the late path.
func (t *loopTail) entry(st *state, fr []Value) (b int64, ok bool) {
	if lateOrd(t.bord, st) {
		return 0, false
	}
	b = t.bound.eval(fr)
	if t.div != 0 {
		b /= t.div
	}
	return b, true
}

// next runs the post, its two charges and the condition.
func (t *loopTail) next(st *state, fr []Value, b int64) (bool, error) {
	fr[t.post] = intValue(truncTo(cast.TypeKind(t.ptrunc), fr[t.post].I+int64(t.delta)))
	if err := st.kern.StepN(2); err != nil {
		return false, err
	}
	return t.f(fr[t.x].I, b) != 0, nil
}

// xferKind is a transfer statement's source and sink.
type xferKind uint8

const (
	xferInToBuf   xferKind = iota // kbuf_write*(OFF, in*(P))
	xferInToSlot                  // v = in*(P)
	xferSlotToBuf                 // kbuf_write*(OFF, v)
	xferBufToSlot                 // v = kbuf_read*(OFF)
	xferSlotToOut                 // out*(v, P)
	xferBufToOut                  // out*(kbuf_read*(OFF), P)
)

// xferOp is one transfer statement.
type xferOp struct {
	kind  xferKind
	wide  bool  // 16-bit transfer-buffer access
	width uint8 // port access width in bits
	trunc uint8 // v's cast.TypeKind
	slot  int32 // v
	port  kport
	off   affine
}

// xferOpOf recognises one transfer statement.
func (c *compiler) xferOpOf(s cast.Stmt) (xferOp, bool) {
	op := xferOp{port: kport{ord: -1}}
	switch s := s.(type) {
	case *cast.ExprStmt:
		call, ok := c.builtinCall(s.X, 2)
		if !ok {
			return op, false
		}
		switch call.Name {
		case "kbuf_write8", "kbuf_write16":
			op.wide = call.Name == "kbuf_write16"
			if op.off, ok = c.affineOf(call.Args[0]); !ok {
				return op, false
			}
			if in, ok := c.builtinCall(call.Args[1], 1); ok && in.Name[0] == 'i' && ioWidth(in.Name) != 0 {
				op.kind, op.width = xferInToBuf, uint8(ioWidth(in.Name))
				op.port, ok = c.kportOf(in.Args[0])
				return op, ok
			}
			op.kind = xferSlotToBuf
			return op, c.localOperand(call.Args[1], &op)
		case "outb", "outw", "outl":
			op.width = uint8(ioWidth(call.Name))
			if op.port, ok = c.kportOf(call.Args[1]); !ok {
				return op, false
			}
			if rd, ok := c.builtinCall(call.Args[0], 1); ok && (rd.Name == "kbuf_read8" || rd.Name == "kbuf_read16") {
				op.kind, op.wide = xferBufToOut, rd.Name == "kbuf_read16"
				op.off, ok = c.affineOf(rd.Args[0])
				return op, ok
			}
			op.kind = xferSlotToOut
			return op, c.localOperand(call.Args[0], &op)
		}
	case *cast.AssignStmt:
		ls, ok := c.lookupLocal(s.LHS.Name)
		call, cok := c.builtinCall(s.RHS, 1)
		if s.Op != ctoken.Assign || !ok || !cok {
			return op, false
		}
		op.slot, op.trunc = int32(ls.idx), uint8(ls.typ.Kind)
		switch call.Name {
		case "inb", "inw", "inl":
			op.kind, op.width = xferInToSlot, uint8(ioWidth(call.Name))
			op.port, ok = c.kportOf(call.Args[0])
			return op, ok
		case "kbuf_read8", "kbuf_read16":
			op.kind, op.wide = xferBufToSlot, call.Name == "kbuf_read16"
			op.off, ok = c.affineOf(call.Args[0])
			return op, ok
		}
	}
	return op, false
}

// localOperand sets op's slot when x is a local.
func (c *compiler) localOperand(x cast.Expr, op *xferOp) bool {
	id, ok := x.(*cast.Ident)
	if !ok {
		return false
	}
	ls, ok := c.lookupLocal(id.Name)
	op.slot = int32(ls.idx)
	return ok
}

// stores reports whether the op stores to a local slot.
func (op *xferOp) stores() bool { return op.kind == xferInToSlot || op.kind == xferBufToSlot }

// late is the op's entry check: a late port macro, or a Devil value in
// the local it stores to.
func (op *xferOp) late(st *state, fr []Value) bool {
	return lateOrd(op.port.ord, st) || op.stores() && fr[op.slot].Kind == cinterp.ValDevil
}

func (op *xferOp) bufRead(st *state, off int64) (int64, error) {
	if op.wide {
		v, err := st.kern.BufRead16(off)
		return int64(v), err
	}
	v, err := st.kern.BufRead8(off)
	return int64(v), err
}

func (op *xferOp) bufWrite(st *state, off, v int64) error {
	if op.wide {
		return st.kern.BufWrite16(off, uint16(v))
	}
	return st.kern.BufWrite8(off, uint8(v))
}

// exec runs the statement with its closure form's calls and faults.
func (op *xferOp) exec(st *state, fr []Value) error {
	width := hw.AccessWidth(op.width)
	switch op.kind {
	case xferInToBuf:
		off := op.off.eval(fr)
		v, err := st.bus.Read(op.port.port, width)
		if err != nil {
			return err
		}
		return op.bufWrite(st, off, int64(v))
	case xferInToSlot:
		v, err := st.bus.Read(op.port.port, width)
		if err != nil {
			return err
		}
		fr[op.slot] = intValue(truncTo(cast.TypeKind(op.trunc), int64(v)))
		return nil
	case xferSlotToBuf:
		return op.bufWrite(st, op.off.eval(fr), fr[op.slot].I)
	case xferBufToSlot:
		v, err := op.bufRead(st, op.off.eval(fr))
		if err != nil {
			return err
		}
		fr[op.slot] = intValue(truncTo(cast.TypeKind(op.trunc), v))
		return nil
	case xferSlotToOut:
		return st.bus.Write(op.port.port, width, uint32(fr[op.slot].I))
	default: // xferBufToOut
		v, err := op.bufRead(st, op.off.eval(fr))
		if err != nil {
			return err
		}
		return st.bus.Write(op.port.port, width, uint32(v))
	}
}

// tame is how many of the offsets off, off+step, off+2·step, … lie in
// [0, hi], up to the first that does not.
func tame(off, step, hi int64) int64 {
	switch {
	case off < 0 || off > hi:
		return 0
	case step > 0:
		return (hi-off)/step + 1
	case step < 0:
		return off/-step + 1
	}
	return math.MaxInt64
}

// burstChunk is the most port reads a transfer kernel bursts at once.
const burstChunk = 256

// xferKernel runs a transfer loop. burst marks a loop whose iterations
// read the port into the transfer buffer, `kbuf_write*(OFF, in*(P))` or
// `v = in*(P); kbuf_write*(OFF, v)`, with a condition that spans.
type xferKernel struct {
	ops   [2]xferOp
	n     uint8
	burst bool
	tail  loopTail
}

// bursts reports whether the loop's iterations can burst.
func (k *xferKernel) bursts() bool {
	in, sink := &k.ops[0], &k.ops[k.n-1]
	switch {
	case k.n == 1:
		if in.kind != xferInToBuf {
			return false
		}
	case in.kind != xferInToSlot || sink.kind != xferSlotToBuf || sink.slot != in.slot ||
		in.slot == k.tail.post || sink.off.reads(int(in.slot)):
		return false
	}
	return k.tail.spans()
}

func (k *xferKernel) run(st *state, fr []Value, head int64) (flow, bool, error) {
	ops := k.ops[:k.n]
	for i := range ops {
		if ops[i].late(st, fr) {
			return flowNormal, false, nil
		}
	}
	b, ok := k.tail.entry(st, fr)
	if !ok {
		return flowNormal, false, nil
	}
	burst := k.burst && st.bus.Predictable()
	for {
		if burst {
			if err := k.forward(st, fr, head, b); err != nil {
				return flowNormal, true, err
			}
		}
		if err := st.kern.StepN(head); err != nil {
			return flowNormal, true, err
		}
		for i := range ops {
			if err := ops[i].exec(st, fr); err != nil {
				return flowNormal, true, err
			}
		}
		if more, err := k.tail.next(st, fr, b); err != nil || !more {
			return flowNormal, true, err
		}
	}
}

// forward bursts the port reads of the coming iterations, in chunks,
// and applies those iterations.
func (k *xferKernel) forward(st *state, fr []Value, head, b int64) error {
	in, sink := &k.ops[0], &k.ops[k.n-1]
	per := head + 2
	w := int64(1)
	if sink.wide {
		w = 2
	}
	buf := st.kern.Buf()
	for {
		off := sink.off.eval(fr)
		step := int64(k.tail.delta) * sink.off.coefOf(int(k.tail.post))
		// A burst cannot be undone: stop before the first wild offset.
		n := min(k.tail.span(fr, b), st.kern.Room()/per, burstChunk, tame(off, step, int64(len(buf))-w))
		if n == 0 {
			return nil
		}
		dst := st.burst[:n]
		if n = int64(st.bus.Burst(in.port.port, hw.AccessWidth(in.width), dst)); n == 0 {
			return nil
		}
		var v int64
		for i, x := range dst[:n] {
			v = int64(x)
			if in.kind == xferInToSlot {
				v = truncTo(cast.TypeKind(in.trunc), v)
			}
			o := off + int64(i)*step
			buf[o] = byte(v)
			if sink.wide {
				buf[o+1] = byte(v >> 8)
			}
		}
		if in.kind == xferInToSlot {
			fr[in.slot] = intValue(v)
		}
		k.tail.advance(fr, n)
		if err := st.kern.Forward(n * per); err != nil || n < burstChunk {
			return err
		}
	}
}

// pollKernel runs a bounded poll whose test it can forward. cond and
// then are the if segment's compiled closures. stub, when non-nil,
// predicts a Devil stub condition, which runs through cond; otherwise
// test reads the condition's port.
type pollKernel struct {
	test portTest
	stub *stubTest
	cond exprFn
	then stmtFn
	tail loopTail
}

// steady predicts the forwarded test: its outcome, until when it holds,
// and, for a port test, the value it reads.
func (k *pollKernel) steady(st *state, fr []Value) (holds bool, v uint32, until uint64, ok bool) {
	if k.stub == nil {
		return k.test.steady(st, fr)
	}
	holds, until, ok = k.stub.steady(st, fr)
	return holds, 0, until, ok
}

// skip accounts n skipped evaluations of the test that read v.
func (k *pollKernel) skip(st *state, v uint32, n int64) {
	if k.stub == nil {
		st.bus.SkipReads(k.test.port.port, v, uint64(n))
	} else {
		k.stub.acc.Skip(uint64(n))
	}
}

func (k *pollKernel) run(st *state, fr []Value, head int64) (flow, bool, error) {
	if k.stub == nil && k.test.late(st) {
		return flowNormal, false, nil
	}
	b, ok := k.tail.entry(st, fr)
	if !ok {
		return flowNormal, false, nil
	}
	forward := st.bus.Predictable() && (k.stub == nil || !k.stub.late(st))
	per := head + 2
	for {
		if forward {
			// Skip the iterations whose test reads steady ports and
			// fails: each only charges, reads and counts. A stub test
			// predicts only on a bus without an injector, where window
			// needs no port.
			if holds, v, until, ok := k.steady(st, fr); ok && !holds {
				n := window(st, k.test.port.port, min(k.tail.span(fr, b), st.kern.Room()/per), head, per, until)
				if n > 0 {
					k.tail.advance(fr, n)
					k.skip(st, v, n)
					if err := st.kern.Forward(n * per); err != nil {
						return flowNormal, true, err
					}
				}
			}
		}
		if err := st.kern.StepN(head); err != nil {
			return flowNormal, true, err
		}
		var taken bool
		if k.stub == nil {
			var err error
			if taken, err = k.test.eval(st, fr); err != nil {
				return flowNormal, true, err
			}
		} else {
			cv, err := k.cond(st, fr)
			if err != nil {
				return flowNormal, true, err
			}
			taken = cv.Truthy()
		}
		if taken {
			fl, err := k.then(st, fr)
			if err != nil {
				return flowNormal, true, err
			}
			switch fl {
			case flowBreak:
				return flowNormal, true, nil
			case flowReturn:
				return flowReturn, true, nil
			}
		}
		if more, err := k.tail.next(st, fr, b); err != nil || !more {
			return flowNormal, true, err
		}
	}
}

// spinKernel runs a busy-wait.
type spinKernel struct {
	test portTest
}

func (k *spinKernel) run(st *state, fr []Value, head int64) (flow, bool, error) {
	if k.test.late(st) {
		return flowNormal, false, nil
	}
	forward := st.bus.Predictable()
	for {
		if forward {
			// Skip the iterations whose test reads a steady port and
			// holds.
			if holds, v, until, _ := k.test.steady(st, fr); holds {
				n := window(st, k.test.port.port, st.kern.Room()/head, head, head, until)
				if n > 0 {
					st.bus.SkipReads(k.test.port.port, v, uint64(n))
					if err := st.kern.Forward(n * head); err != nil {
						return flowNormal, true, err
					}
				}
			}
		}
		if err := st.kern.StepN(head); err != nil {
			return flowNormal, true, err
		}
		if ok, err := k.test.eval(st, fr); err != nil || !ok {
			return flowNormal, true, err
		}
	}
}

// The kernel block types keep a kernel in the superblock's own
// allocation.
type (
	xferBlock struct {
		superBlock
		k xferKernel
	}
	pollBlock struct {
		superBlock
		k pollKernel
	}
	spinBlock struct {
		superBlock
		k spinKernel
	}
)

// forBlock allocates a compiled for loop's superblock, with a transfer,
// poll or busy-wait kernel when the loop has one of those shapes.
// lone is the body's if segment when the body is exactly one if
// statement.
func (c *compiler) forBlock(s *cast.ForStmt, body superBlock, lone ctlForms) *superBlock {
	if s.Cond == nil {
		return newSuperBlock(body)
	}
	if s.Post == nil {
		// `while (in*(P) OP M) {}`
		if b, ok := s.Body.(*cast.Block); ok && len(b.Stmts) == 0 {
			if test, ok := c.portTestOf(s.Cond); ok && test.mslot < 0 {
				b := &spinBlock{superBlock: body, k: spinKernel{test: test}}
				b.kern = &b.k
				c.stats.LoopKernels++
				return &b.superBlock
			}
		}
		return newSuperBlock(body)
	}
	// A transfer or poll kernel batches the charges around its post, so
	// the post must be i++/i-- on a local, which touches no device or
	// kernel state.
	id, ok := s.Post.(*cast.IncDecStmt)
	if !ok {
		return newSuperBlock(body)
	}
	if _, ok := c.lookupLocal(id.X.Name); !ok {
		return newSuperBlock(body)
	}
	stmts := []cast.Stmt{s.Body}
	if b, ok := s.Body.(*cast.Block); ok {
		stmts = b.Stmts
	}
	if len(stmts) <= 2 {
		var k xferKernel
		for _, x := range stmts {
			op, ok := c.xferOpOf(x)
			if !ok {
				k.n = 0
				break
			}
			k.ops[k.n] = op
			k.n++
		}
		if k.n > 0 {
			k.tail, ok = c.forTail(s, func(a *affine) bool {
				for _, op := range k.ops[:k.n] {
					if op.stores() && a.reads(int(op.slot)) {
						return false
					}
				}
				return true
			})
			if !ok {
				return newSuperBlock(body)
			}
			k.burst = k.bursts()
			b := &xferBlock{superBlock: body, k: k}
			b.kern = &b.k
			c.stats.LoopKernels++
			return &b.superBlock
		}
	}
	if lone.cond == nil || stmts[0].(*cast.IfStmt).Else != nil {
		return newSuperBlock(body)
	}
	k := pollKernel{cond: lone.cond, then: lone.then}
	cond := stmts[0].(*cast.IfStmt).Cond
	var fast bool
	k.test, fast = c.portTestOf(cond)
	mslot := k.test.mslot
	if !fast {
		if k.stub = c.stubTestOf(cond); k.stub == nil {
			return newSuperBlock(body)
		}
		mslot = k.stub.mslot
	}
	// The branch may store to any local, so a poll hoists only a bound
	// that reads none. Skipping an iteration needs a test that fails on
	// every skipped read, a condition that spans and a mask the post
	// leaves alone.
	k.tail, ok = c.forTail(s, func(a *affine) bool { return a.n == 0 })
	if !ok || !k.tail.spans() || mslot == k.tail.post {
		return newSuperBlock(body)
	}
	b := &pollBlock{superBlock: body, k: k}
	b.kern = &b.k
	c.stats.LoopKernels++
	return &b.superBlock
}

func newSuperBlock(body superBlock) *superBlock {
	sb := new(superBlock)
	*sb = body
	return sb
}
