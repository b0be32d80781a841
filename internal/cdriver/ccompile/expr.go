package ccompile

import (
	"fmt"
	"strings"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// expr compiles one expression into a closure with the interpreter's
// evalIn semantics: the expression's line is covered first, then the
// node-specific evaluation runs. The line resolves through covLine, so
// an expression on its statement's line adds line 0, which the covered
// set ignores.
func (c *compiler) expr(x cast.Expr) exprFn {
	line := c.covLine(c.line(x.Pos()), c.domLine)
	switch x := x.(type) {
	case *cast.IntLit:
		v := intValue(x.Value)
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			return v, nil
		}

	case *cast.StringLit:
		v := Value{Kind: cinterp.ValString, S: x.Value}
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			return v, nil
		}

	case *cast.Ident:
		return c.ident(x, line)

	case *cast.CallExpr:
		return c.call(x, line)

	case *cast.UnaryExpr:
		xf := c.expr(x.X)
		switch x.Op {
		case ctoken.Not:
			return func(st *state, fr []Value) (Value, error) {
				st.cov.Add(line)
				v, err := xf(st, fr)
				if err != nil {
					return voidValue, err
				}
				if v.Truthy() {
					return intValue(0), nil
				}
				return intValue(1), nil
			}
		case ctoken.BitNot:
			return func(st *state, fr []Value) (Value, error) {
				st.cov.Add(line)
				v, err := xf(st, fr)
				if err != nil {
					return voidValue, err
				}
				return intValue(^v.I), nil
			}
		case ctoken.Sub:
			return func(st *state, fr []Value) (Value, error) {
				st.cov.Add(line)
				v, err := xf(st, fr)
				if err != nil {
					return voidValue, err
				}
				return intValue(-v.I), nil
			}
		}
		badOp := x.Op
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			if _, err := xf(st, fr); err != nil {
				return voidValue, err
			}
			return voidValue, &kernel.CrashError{Cause: fmt.Errorf("bad unary operator %s", badOp)}
		}

	case *cast.BinaryExpr:
		return c.binary(x, line)

	case *cast.CondExpr:
		condFn := c.expr(x.Cond)
		thenFn := c.expr(x.Then)
		elseFn := c.expr(x.Else)
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			cond, err := condFn(st, fr)
			if err != nil {
				return voidValue, err
			}
			if cond.Truthy() {
				return thenFn(st, fr)
			}
			return elseFn(st, fr)
		}

	case *cast.CastExpr:
		xf := c.expr(x.X)
		to := x.To
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			v, err := xf(st, fr)
			if err != nil {
				return voidValue, err
			}
			return cinterp.Truncate(to, v), nil
		}
	}

	// Unknown expression kinds crash exactly like the interpreter.
	pos := x.Pos()
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		return voidValue, &kernel.CrashError{Cause: fmt.Errorf("unknown expression at %s", pos)}
	}
}

// ident compiles an identifier use, resolving it at compile time through
// the interpreter's evalIdent chain: locals, globals, macros (inlined at
// the use site, depth-guarded), Devil enum constants, then an undefined
// fault. Globals and macros carry the declsReady guard so that during
// global initialisation the not-yet-declared tail of the file is
// invisible, falling through to the later links of the chain exactly as
// the interpreter's incrementally filled maps do.
func (c *compiler) ident(id *cast.Ident, line int) exprFn {
	name := id.Name
	if ls, ok := c.lookupLocal(name); ok {
		slot := ls.idx
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			return fr[slot], nil
		}
	}

	// The links of the chain that follow a global or macro whose
	// declaration has not run yet (only reachable mid-initialisation).
	lateFallback := func(st *state) (Value, error) {
		if st.stubs != nil {
			if cv, ok := st.stubs.Const(name); ok {
				return Value{Kind: cinterp.ValDevil, Devil: cv}, nil
			}
		}
		return voidValue, undefIdentErr(name)
	}

	if g, ok := c.globalIdx[name]; ok {
		slot, ord := g.slot, g.ord
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			if ord >= st.declsReady {
				return lateFallback(st)
			}
			return st.globals[slot], nil
		}
	}

	if m, ok := c.macros[name]; ok {
		if c.onMacro != nil {
			c.onMacro(name)
		}
		// Constant macros — the `#define NAME <literal>` idiom that is
		// every macro in the driver corpus — collapse to one closure: the
		// guards and both coverage points of the generic expansion, no
		// nested closure call, no depth bookkeeping (a literal body
		// cannot recurse, so increment-then-decrement is unobservable;
		// the depth *check*, reachable at full recursion depth, stays).
		if lit, isLit := m.decl.Body.(*cast.IntLit); isLit {
			v := intValue(lit.Value)
			bodyLine := c.line(lit.Pos())
			ord := m.ord
			return func(st *state, fr []Value) (Value, error) {
				st.cov.Add(line)
				if ord >= st.declsReady {
					return lateFallback(st)
				}
				if st.depth >= maxCallDepth {
					return voidValue, &kernel.CrashError{
						Cause: fmt.Errorf("macro expansion too deep at %q", name),
					}
				}
				st.cov.Add(bodyLine)
				return v, nil
			}
		}
		// The body closure is reached through a cell. A use inside its
		// own expansion (a cycle) shares the cell of the expansion being
		// compiled, whose closure is the same one a fresh compile would
		// produce, and recurses at run time until the depth guard fires.
		body, cyclic := c.expanding[name]
		if !cyclic {
			body = new(exprFn)
			c.expanding[name] = body
			*body = c.expr(m.decl.Body)
			delete(c.expanding, name)
		}
		ord := m.ord
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			if ord >= st.declsReady {
				return lateFallback(st)
			}
			if st.depth >= maxCallDepth {
				return voidValue, &kernel.CrashError{
					Cause: fmt.Errorf("macro expansion too deep at %q", name),
				}
			}
			st.depth++
			v, err := (*body)(st, fr)
			st.depth--
			return v, err
		}
	}

	if c.stubs != nil {
		if cv, ok := c.stubs.Const(name); ok {
			v := Value{Kind: cinterp.ValDevil, Devil: cv}
			return func(st *state, fr []Value) (Value, error) {
				st.cov.Add(line)
				return v, nil
			}
		}
	}

	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		return voidValue, undefIdentErr(name)
	}
}

func undefIdentErr(name string) error {
	return &kernel.CrashError{Cause: fmt.Errorf("use of undefined identifier %q", name)}
}

// operand is a fused operand: a local frame slot, an integer literal or
// a literal macro, which its operator's closure evaluates inline instead
// of through a closure call of its own. line is the operand's coverage
// add, resolved by covLine; a macro also keeps its declaration order,
// for the declsReady and depth guards, and its body's line.
type operand struct {
	v    int64
	slot int32 // local frame slot, -1 for a constant
	line int32
	ord  int32 // the macro's declaration order, -1 for a literal or a local
	body int32 // the macro body's line
}

// fuseOperand classifies an expression as a fused operand whose
// coverage add follows opLine's. Macro operands record the dependency
// exactly like a compiled expansion would, so incremental patching
// still recompiles this unit when the macro body mutates.
func (c *compiler) fuseOperand(x cast.Expr, opLine int) (operand, bool) {
	o := operand{slot: -1, ord: -1}
	switch x := x.(type) {
	case *cast.IntLit:
		o.v, o.line = x.Value, int32(c.covLine(c.line(x.LitPos), opLine))
		return o, true
	case *cast.Ident:
		o.line = int32(c.covLine(c.line(x.NamePos), opLine))
		if ls, ok := c.lookupLocal(x.Name); ok {
			o.slot = int32(ls.idx)
			return o, true
		}
		if _, isGlobal := c.globalIdx[x.Name]; isGlobal {
			return o, false
		}
		if m, ok := c.macros[x.Name]; ok {
			lit, isLit := m.decl.Body.(*cast.IntLit)
			if !isLit {
				return o, false
			}
			if c.onMacro != nil {
				c.onMacro(x.Name)
			}
			o.v, o.ord, o.body = lit.Value, int32(m.ord), int32(c.line(lit.Pos()))
			return o, true
		}
	}
	return o, false
}

// eval evaluates an operand with the coverage adds, guards and faults
// of the closure ident would compile for it.
func (o operand) eval(st *state, fr []Value) (int64, error) {
	st.cov.Add(int(o.line))
	if o.slot >= 0 {
		return fr[o.slot].I, nil
	}
	if o.ord >= 0 {
		if int(o.ord) >= st.declsReady || st.depth >= maxCallDepth {
			return st.macroLate(int(o.ord))
		}
		st.cov.Add(int(o.body))
	}
	return o.v, nil
}

// macroLate is a macro operand whose guard fails. Before its
// declaration has run (only during global initialisation) it takes
// ident's later links: a Devil enum constant, whose Value's .I an
// operator reads as 0, then the undefined fault. Past the depth bound
// it crashes as an expansion would.
func (st *state) macroLate(ord int) (int64, error) {
	name := st.decls[ord].(*cast.MacroDecl).Name
	if ord < st.declsReady {
		return 0, &kernel.CrashError{Cause: fmt.Errorf("macro expansion too deep at %q", name)}
	}
	if st.stubs != nil {
		if _, ok := st.stubs.Const(name); ok {
			return 0, nil
		}
	}
	return 0, undefIdentErr(name)
}

// covLine resolves a coverage add at compile time: 0 when the add is
// redundant, because the enclosing operator's line or the dominating
// statement's line is covered first and the covered-line set is
// idempotent; the line itself otherwise. ccov.Set.Add ignores line 0.
func (c *compiler) covLine(useLine, opLine int) int {
	if useLine == opLine || useLine == c.domLine {
		return 0
	}
	return useLine
}

// intBinOp resolves a binary operator to its pure integer
// implementation at compile time — the applyBin jump table without the
// per-execution switch. Returns nil for the operators that need an
// error path (div/mod) or short-circuit evaluation.
func intBinOp(op ctoken.Kind) func(a, b int64) int64 {
	switch op {
	case ctoken.Or:
		return func(a, b int64) int64 { return a | b }
	case ctoken.Xor:
		return func(a, b int64) int64 { return a ^ b }
	case ctoken.And:
		return func(a, b int64) int64 { return a & b }
	case ctoken.Shl:
		return func(a, b int64) int64 { return a << uint(b&63) }
	case ctoken.Shr:
		return func(a, b int64) int64 { return a >> uint(b&63) }
	case ctoken.Add:
		return func(a, b int64) int64 { return a + b }
	case ctoken.Sub:
		return func(a, b int64) int64 { return a - b }
	case ctoken.Mul:
		return func(a, b int64) int64 { return a * b }
	case ctoken.Eq:
		return func(a, b int64) int64 { return b2i(a == b) }
	case ctoken.Ne:
		return func(a, b int64) int64 { return b2i(a != b) }
	case ctoken.Lt:
		return func(a, b int64) int64 { return b2i(a < b) }
	case ctoken.Gt:
		return func(a, b int64) int64 { return b2i(a > b) }
	case ctoken.Le:
		return func(a, b int64) int64 { return b2i(a <= b) }
	case ctoken.Ge:
		return func(a, b int64) int64 { return b2i(a >= b) }
	}
	return nil
}

func b2i(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

// fusedBinary emits the closure of a binary whose operator has a pure
// integer implementation and whose operands both fused.
//
// fusedBinary and the other small closure constructors (halfFused,
// fusedRead, fusedWrite, stubGetSite) are go:noinline. Where the
// compiler inlines a constructor, it compiles the copy of the closure
// without inlining the closure's own calls (ccov.Set.Add, intValue):
// a loop of fused binaries then ran about 1.4 times slower.
//
//go:noinline
func fusedBinary(f func(a, b int64) int64, line int, xo, yo operand) exprFn {
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		a, err := xo.eval(st, fr)
		if err != nil {
			return voidValue, err
		}
		b, err := yo.eval(st, fr)
		if err != nil {
			return voidValue, err
		}
		return intValue(f(a, b)), nil
	}
}

// halfFused emits the closure of a binary with a pure integer operator,
// one compiled operand ef and one fused operand o: the `inb(port) &
// MASK` shape of every status poll. fusedLeft says which side fused, so
// evaluation and coverage keep their order: a left fused operand adds
// its line before the compiled side runs, a right one only after the
// compiled side succeeded.
//
//go:noinline
func halfFused(f func(a, b int64) int64, line int, ef exprFn, o operand, fusedLeft bool) exprFn {
	if fusedLeft {
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			a, err := o.eval(st, fr)
			if err != nil {
				return voidValue, err
			}
			r, err := ef(st, fr)
			if err != nil {
				return voidValue, err
			}
			return intValue(f(a, r.I)), nil
		}
	}
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		l, err := ef(st, fr)
		if err != nil {
			return voidValue, err
		}
		b, err := o.eval(st, fr)
		if err != nil {
			return voidValue, err
		}
		return intValue(f(l.I, b)), nil
	}
}

// binary compiles a binary operation. Under a pure integer operator,
// operands that are local slots, literals or literal macros fuse into
// the operator's own closure — the `status & MASK` shape of every
// polling loop then costs one closure call instead of three. Division,
// modulo and the short-circuit operators take the generic closures.
func (c *compiler) binary(x *cast.BinaryExpr, line int) exprFn {
	op := x.Op
	opPos := x.OpPos
	if f := intBinOp(op); f != nil {
		xo, xok := c.fuseOperand(x.X, line)
		yo, yok := c.fuseOperand(x.Y, line)
		switch {
		case xok && yok:
			return fusedBinary(f, line, xo, yo)
		case yok:
			if cx, isCall := x.X.(*cast.CallExpr); isCall {
				if fn := c.maskedRead(f, line, cx, yo); fn != nil {
					return fn
				}
			}
			return halfFused(f, line, c.expr(x.X), yo, false)
		case xok:
			return halfFused(f, line, c.expr(x.Y), xo, true)
		}
	}

	lf := c.expr(x.X)
	// Short-circuit operators first.
	if op == ctoken.LAnd || op == ctoken.LOr {
		rf := c.expr(x.Y)
		and := op == ctoken.LAnd
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			l, err := lf(st, fr)
			if err != nil {
				return voidValue, err
			}
			if and && !l.Truthy() {
				return intValue(0), nil
			}
			if !and && l.Truthy() {
				return intValue(1), nil
			}
			r, err := rf(st, fr)
			if err != nil {
				return voidValue, err
			}
			if r.Truthy() {
				return intValue(1), nil
			}
			return intValue(0), nil
		}
	}
	rf := c.expr(x.Y)
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		l, err := lf(st, fr)
		if err != nil {
			return voidValue, err
		}
		r, err := rf(st, fr)
		if err != nil {
			return voidValue, err
		}
		return applyBin(op, opPos, l.I, r.I)
	}
}

// applyBin is the shared operator jump table of every binary closure.
func applyBin(op ctoken.Kind, opPos ctoken.Pos, a, b int64) (Value, error) {
	switch op {
	case ctoken.Or:
		return intValue(a | b), nil
	case ctoken.Xor:
		return intValue(a ^ b), nil
	case ctoken.And:
		return intValue(a & b), nil
	case ctoken.Shl:
		return intValue(a << uint(b&63)), nil
	case ctoken.Shr:
		return intValue(a >> uint(b&63)), nil
	case ctoken.Add:
		return intValue(a + b), nil
	case ctoken.Sub:
		return intValue(a - b), nil
	case ctoken.Mul:
		return intValue(a * b), nil
	case ctoken.Div, ctoken.Mod:
		if b == 0 {
			return voidValue, &kernel.CrashError{
				Cause: fmt.Errorf("division by zero at %s", opPos),
			}
		}
		if op == ctoken.Mod {
			return intValue(a % b), nil
		}
		return intValue(a / b), nil
	case ctoken.Eq:
		return boolValue(a == b), nil
	case ctoken.Ne:
		return boolValue(a != b), nil
	case ctoken.Lt:
		return boolValue(a < b), nil
	case ctoken.Gt:
		return boolValue(a > b), nil
	case ctoken.Le:
		return boolValue(a <= b), nil
	case ctoken.Ge:
		return boolValue(a >= b), nil
	}
	return voidValue, &kernel.CrashError{Cause: fmt.Errorf("bad binary operator %s", op)}
}

// boolValue is C truth as a runtime value.
func boolValue(ok bool) Value {
	if ok {
		return intValue(1)
	}
	return intValue(0)
}

// callImpl consumes evaluated arguments — the compiled analogue of the
// interpreter's builtin/callFunc dispatch.
type callImpl func(st *state, args []Value) (Value, error)

// call compiles a call expression: arguments evaluate in order into a
// pooled buffer, then the pre-resolved implementation runs. Port I/O
// with a fusable port operand and the get_X/set_X Devil stubs compile
// to direct closures with no argument buffer at all.
func (c *compiler) call(x *cast.CallExpr, line int) exprFn {
	argFns := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		argFns[i] = c.expr(a)
	}
	var impl callImpl
	// Driver-defined functions take priority over builtins of the same
	// name, as in the interpreter.
	if idx, ok := c.funcIdx[x.Name]; ok {
		f := c.funcs[idx]
		impl = func(st *state, args []Value) (Value, error) {
			return st.callFunc(f, args)
		}
	} else {
		if direct := c.fusedIO(x, argFns, line); direct != nil {
			return direct
		}
		if direct := c.directStub(x, argFns, line); direct != nil {
			return direct
		}
		impl = c.builtin(x)
	}
	n := len(argFns)
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		args := st.grabArgs(n)
		for i, af := range argFns {
			v, err := af(st, fr)
			if err != nil {
				st.releaseArgs(args)
				return voidValue, err
			}
			args[i] = v
		}
		v, err := impl(st, args)
		st.releaseArgs(args)
		return v, err
	}
}

// argI mirrors the interpreter's lenient argument accessor.
func argI(args []Value, i int) int64 {
	if i < len(args) {
		return args[i].I
	}
	return 0
}

// fusedIO compiles a port-I/O call of the right arity whose port operand
// fuses (a literal, a literal macro or a local) to one closure that
// calls the bus with the operand inlined: no pooled argument buffer, no
// callImpl indirection, no operand closure call. Returns nil for every
// other call, which takes the generic path.
func (c *compiler) fusedIO(x *cast.CallExpr, argFns []exprFn, line int) exprFn {
	width := ioWidth(x.Name)
	switch {
	case width == 0:
	case x.Name[0] == 'i' && len(argFns) == 1:
		if o, ok := c.fuseOperand(x.Args[0], line); ok {
			c.stats.FusedIO++
			return fusedRead(o, line, width)
		}
	case x.Name[0] == 'o' && len(argFns) == 2:
		if o, ok := c.fuseOperand(x.Args[1], line); ok {
			c.stats.FusedIO++
			return fusedWrite(argFns[0], o, line, width)
		}
	}
	return nil
}

// fusedRead emits the port-input closure for a fused port operand: no
// argument closure call.
//
//go:noinline
func fusedRead(o operand, line int, width hw.AccessWidth) exprFn {
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		p, err := o.eval(st, fr)
		if err != nil {
			return voidValue, err
		}
		v, err := st.bus.Read(hw.Port(p), width)
		return intValue(int64(v)), err
	}
}

// maskedRead fuses the full poll-loop condition shape
// `in*(port) OP mask` — a read builtin with a fusable port operand,
// combined with a fused mask through a pure integer operator — into
// one closure: no call-closure hop, no boxed intermediate value. The
// compile-time resolution rules of call() apply unchanged (driver
// functions shadow builtins, only exact-arity reads qualify), and the
// coverage/guard order matches the split closures it replaces exactly:
// binary line, call line, port operand, port read, mask operand.
// Returns nil whenever any piece falls outside the shape.
func (c *compiler) maskedRead(f func(a, b int64) int64, line int, call *cast.CallExpr, mask operand) exprFn {
	if _, isFunc := c.funcIdx[call.Name]; isFunc {
		return nil
	}
	width := ioWidth(call.Name)
	if width == 0 || call.Name[0] != 'i' || len(call.Args) != 1 {
		return nil
	}
	callLine := c.line(call.Pos())
	port, ok := c.fuseOperand(call.Args[0], callLine)
	if !ok {
		return nil
	}
	c.stats.FusedIO++
	cl := c.covLine(callLine, line)
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		st.cov.Add(cl)
		p, err := port.eval(st, fr)
		if err != nil {
			return voidValue, err
		}
		v, err := st.bus.Read(hw.Port(p), width)
		if err != nil {
			return voidValue, err
		}
		m, err := mask.eval(st, fr)
		if err != nil {
			return voidValue, err
		}
		return intValue(f(int64(v), m)), nil
	}
}

// fusedWrite is fusedRead's output twin: the value still evaluates
// through its compiled closure (it is rarely a constant), the fused
// port operand is inlined.
//
//go:noinline
func fusedWrite(vf exprFn, o operand, line int, width hw.AccessWidth) exprFn {
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		v, err := vf(st, fr)
		if err != nil {
			return voidValue, err
		}
		p, err := o.eval(st, fr)
		if err != nil {
			return voidValue, err
		}
		return voidValue, st.bus.Write(hw.Port(p), width, uint32(v.I))
	}
}

// builtin resolves a non-driver call at compile time: kernel builtins,
// the Devil stub surface, or the undefined-function fault.
func (c *compiler) builtin(x *cast.CallExpr) callImpl {
	if width := ioWidth(x.Name); width != 0 {
		// A port-I/O call whose port operand does not fuse (or of the
		// wrong arity, a mutant artefact the checker rejects): count
		// the site so the generic share is observable.
		c.stats.GenericIO++
		if x.Name[0] == 'i' {
			return func(st *state, args []Value) (Value, error) {
				v, err := st.bus.Read(hw.Port(argI(args, 0)), width)
				return intValue(int64(v)), err
			}
		}
		return func(st *state, args []Value) (Value, error) {
			return voidValue, st.bus.Write(hw.Port(argI(args, 1)), width, uint32(argI(args, 0)))
		}
	}
	switch x.Name {
	case "panic":
		namePos := x.NamePos
		return func(st *state, args []Value) (Value, error) {
			msg := "panic"
			if len(args) > 0 && args[0].Kind == cinterp.ValString {
				msg = args[0].S
			}
			return voidValue, st.kern.Panic(fmt.Sprintf("%s (at %s)", msg, namePos))
		}
	case "printk":
		return func(st *state, args []Value) (Value, error) {
			st.kern.Printk(cinterp.FormatPrintk(args))
			return voidValue, nil
		}
	case "udelay":
		return func(st *state, args []Value) (Value, error) {
			return voidValue, st.kern.Delay(argI(args, 0))
		}
	case "kbuf_read8":
		return func(st *state, args []Value) (Value, error) {
			v, err := st.kern.BufRead8(argI(args, 0))
			return intValue(int64(v)), err
		}
	case "kbuf_write8":
		return func(st *state, args []Value) (Value, error) {
			return voidValue, st.kern.BufWrite8(argI(args, 0), uint8(argI(args, 1)))
		}
	case "kbuf_read16":
		return func(st *state, args []Value) (Value, error) {
			v, err := st.kern.BufRead16(argI(args, 0))
			return intValue(int64(v)), err
		}
	case "kbuf_write16":
		return func(st *state, args []Value) (Value, error) {
			return voidValue, st.kern.BufWrite16(argI(args, 0), uint16(argI(args, 1)))
		}
	case "dil_eq":
		return func(st *state, args []Value) (Value, error) {
			if st.stubs == nil || len(args) != 2 {
				return voidValue, &kernel.CrashError{Cause: fmt.Errorf("dil_eq without stubs")}
			}
			eq, err := st.stubs.Eq(toDevil(args[0]), toDevil(args[1]))
			if err != nil {
				return voidValue, err
			}
			if eq {
				return intValue(1), nil
			}
			return intValue(0), nil
		}
	}
	if c.stubs != nil {
		if impl := c.stubCall(x); impl != nil {
			return impl
		}
	}
	return c.undefinedCall(x)
}

func toDevil(v Value) codegen.Value {
	if v.Kind == cinterp.ValDevil {
		return v.Devil
	}
	return codegen.UntypedInt(v.I)
}

func (c *compiler) undefinedCall(x *cast.CallExpr) callImpl {
	name, pos := x.Name, x.NamePos
	return func(st *state, args []Value) (Value, error) {
		return voidValue, &kernel.CrashError{
			Cause: fmt.Errorf("call to undefined function %q at %s", name, pos),
		}
	}
}

// stubCall resolves the stub calls directStub leaves to the generic path:
// get_block_X/set_block_X, and get_X/set_X on a variable whose access mode
// forbids the call. Returns nil when the name does not resolve to a stub
// (the undefined-function fault applies).
func (c *compiler) stubCall(x *cast.CallExpr) callImpl {
	name := x.Name
	switch {
	case strings.HasPrefix(name, "get_block_"), strings.HasPrefix(name, "set_block_"):
		reading := strings.HasPrefix(name, "get_block_")
		varName := strings.TrimPrefix(strings.TrimPrefix(name, "get_block_"), "set_block_")
		sig, acc, ok := c.stubVar(varName)
		if !ok || !sig.Block {
			return nil
		}
		return c.blockCall(name, varName, reading, sig, acc)

	case strings.HasPrefix(name, "get_"), strings.HasPrefix(name, "set_"):
		varName := name[len("get_"):]
		if _, acc, ok := c.stubVar(varName); ok {
			return modeFaultImpl(varName, acc)
		}
	}
	return nil
}

// stubVar resolves the variable a stub call names to its published
// signature and its access-plan handle; ok is false for unknown and
// private variables.
func (c *compiler) stubVar(varName string) (codegen.VarSig, *codegen.Accessor, bool) {
	sig, ok := c.varSigs[varName]
	if !ok {
		return sig, nil, false
	}
	acc, ok := c.stubs.Accessor(varName)
	return sig, acc, ok
}

// stubConv converts the Devil value a get_X() call reads to the value
// the call yields: enum values stay typed, signed fields are
// sign-extended, other integers widen.
type stubConv struct {
	enum  bool
	shift uint
}

func stubConvOf(sig codegen.VarSig) stubConv {
	switch {
	case sig.Kind == codegen.KindEnum:
		return stubConv{enum: true}
	case sig.Kind == codegen.KindSignedInt && sig.Width > 0 && sig.Width < 64:
		return stubConv{shift: uint(64 - sig.Width)}
	}
	return stubConv{}
}

func (cv stubConv) value(dv codegen.Value) Value {
	if cv.enum {
		return Value{Kind: cinterp.ValDevil, Devil: dv}
	}
	return intValue(int64(dv.Val) << cv.shift >> cv.shift)
}

// stubGetSite compiles a get_X() call site over the variable's access
// plan.
//
//go:noinline
func stubGetSite(acc *codegen.Accessor, sig codegen.VarSig, line int) exprFn {
	conv := stubConvOf(sig)
	return func(st *state, fr []Value) (Value, error) {
		st.cov.Add(line)
		dv, err := acc.Get()
		if err != nil {
			return voidValue, err
		}
		return conv.value(dv), nil
	}
}

// directStub compiles the Devil stub call sites get_X and set_X on a
// public variable whose access mode allows the call to direct closures over
// the variable's access plan, skipping the pooled argument buffer and the
// callImpl indirection of the generic path. Arguments evaluate in order,
// stopping at the first error; a get ignores their values, and a set of
// any arity other than one stores the zero value. Unknown variables, mode
// faults and the block stubs return nil and take the generic path.
func (c *compiler) directStub(x *cast.CallExpr, argFns []exprFn, line int) exprFn {
	name := x.Name
	if c.stubs == nil ||
		strings.HasPrefix(name, "get_block_") || strings.HasPrefix(name, "set_block_") {
		return nil
	}
	switch {
	case strings.HasPrefix(name, "get_"):
		sig, acc, ok := c.stubVar(name[len("get_"):])
		if !ok || !acc.Readable() {
			return nil
		}
		get := stubGetSite(acc, sig, line)
		if len(argFns) == 0 {
			return get
		}
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			for _, af := range argFns {
				if _, err := af(st, fr); err != nil {
					return voidValue, err
				}
			}
			return get(st, fr)
		}
	case strings.HasPrefix(name, "set_"):
		_, acc, ok := c.stubVar(name[len("set_"):])
		if !ok || !acc.Writable() {
			return nil
		}
		one := len(argFns) == 1
		return func(st *state, fr []Value) (Value, error) {
			st.cov.Add(line)
			var dv codegen.Value
			for _, af := range argFns {
				a, err := af(st, fr)
				if err != nil {
					return voidValue, err
				}
				if one {
					dv = toDevil(a)
				}
			}
			return voidValue, acc.Set(dv)
		}
	}
	return nil
}

// modeFaultImpl reproduces the Get/Set access-mode fault of a stub whose
// direction the call does not have ("device variable X is write-only").
func modeFaultImpl(varName string, acc *codegen.Accessor) callImpl {
	mode := acc.ModeString()
	return func(st *state, args []Value) (Value, error) {
		return voidValue, fmt.Errorf("device variable %s is %s", varName, mode)
	}
}

// blockCall compiles the FIFO block-transfer stubs with the exact
// element loop of the interpreter: one watchdog step per element, the
// same buffer access pattern, the same fault order. A get_block_ read
// bursts what it can (see burstBlock) before each element it makes.
func (c *compiler) blockCall(name, varName string, reading bool,
	sig codegen.VarSig, acc *codegen.Accessor) callImpl {
	elem := int64(sig.Width / 8)
	canRead, canWrite := acc.Readable(), acc.Writable()
	canBurst := reading && canRead
	mode := acc.ModeString()
	return func(st *state, args []Value) (Value, error) {
		if len(args) != 2 {
			return voidValue, &kernel.CrashError{
				Cause: fmt.Errorf("%s: wrong argument count", name),
			}
		}
		off, count := args[0].I, args[1].I
		for k := int64(0); k < count; k++ {
			if canBurst {
				n, err := burstBlock(st, acc, off+k*elem, count-k, elem)
				if k += n; err != nil || k == count {
					return voidValue, err
				}
			}
			if err := st.kern.Step(); err != nil {
				return voidValue, err
			}
			byteOff := off + k*elem
			if reading {
				if !canRead {
					return voidValue, fmt.Errorf("device variable %s is %s", varName, mode)
				}
				dv, err := acc.Get()
				if err != nil {
					return voidValue, err
				}
				var werr error
				if elem == 2 {
					werr = st.kern.BufWrite16(byteOff, uint16(dv.Val))
				} else {
					if werr = st.kern.BufWrite16(byteOff, uint16(dv.Val)); werr == nil {
						werr = st.kern.BufWrite16(byteOff+2, uint16(dv.Val>>16))
					}
				}
				if werr != nil {
					return voidValue, werr
				}
				continue
			}
			var val uint32
			if elem == 2 {
				w, err := st.kern.BufRead16(byteOff)
				if err != nil {
					return voidValue, err
				}
				val = uint32(w)
			} else {
				lo, err := st.kern.BufRead16(byteOff)
				if err != nil {
					return voidValue, err
				}
				hi, err := st.kern.BufRead16(byteOff + 2)
				if err != nil {
					return voidValue, err
				}
				val = uint32(lo) | uint32(hi)<<16
			}
			if !canWrite {
				return voidValue, fmt.Errorf("device variable %s is %s", varName, mode)
			}
			if err := acc.Set(codegen.UntypedInt(int64(val))); err != nil {
				return voidValue, err
			}
		}
		return voidValue, nil
	}
}

// burstBlock applies the next elements of a get_block_ read, the first
// at byte offset off, whose Gets burst (see codegen.Accessor.Burst): in
// chunks of at most burstChunk, each within the watchdog's room, so the
// one charge per chunk never trips it. A burst cannot be undone, so a
// chunk stops before the first element that would land off the transfer
// buffer, which the element loop then faults on. It returns how many
// elements it applied.
func burstBlock(st *state, acc *codegen.Accessor, off, count, elem int64) (int64, error) {
	buf := st.kern.Buf()
	var k int64
	for {
		o := off + k*elem
		if o < 0 {
			return k, nil
		}
		n := min(count-k, st.kern.Room(), burstChunk, (int64(len(buf))-o)/elem)
		if n <= 0 {
			return k, nil
		}
		dst := st.burst[:n]
		if n = int64(acc.Burst(dst)); n == 0 {
			return k, nil
		}
		for _, v := range dst[:n] {
			buf[o], buf[o+1] = byte(v), byte(v>>8)
			if elem == 4 {
				buf[o+2], buf[o+3] = byte(v>>16), byte(v>>24)
			}
			o += elem
		}
		k += n
		if err := st.kern.Forward(n); err != nil || n < burstChunk {
			return k, err
		}
	}
}
