// Package cinterp executes hwC driver code against the simulated machine:
// the hw.Bus for port I/O, the kernel for panics, delays, the transfer
// buffer and the watchdog, and (for CDevil drivers) the generated Devil
// stubs.
//
// Execution is the second half of the paper's per-mutant experiment: a
// mutant that survives compilation is "booted", and the way the run
// terminates — Devil assertion, bus fault, watchdog expiry, panic, or
// clean completion — determines its Table 3/4 row.
//
// The interpreter also records statement-level line coverage, which the
// experiment harness uses to recognise dead-code mutants (a mutation on a
// line the boot never executes cannot be blamed on the driver).
package cinterp

import (
	"fmt"
	"iter"
	"strings"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ccov"
	"repro/internal/cdriver/ctoken"
	"repro/internal/cdriver/ctypes"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// ValueKind discriminates runtime values.
type ValueKind int

// Runtime value kinds.
const (
	ValInt ValueKind = iota + 1
	ValDevil
	ValString
	ValVoid
)

// Value is one hwC runtime value.
type Value struct {
	Kind  ValueKind
	I     int64
	Devil codegen.Value
	S     string
}

// IntValue builds an integer value.
func IntValue(x int64) Value { return Value{Kind: ValInt, I: x} }

// VoidValue is the result of void calls.
var VoidValue = Value{Kind: ValVoid}

// Truthy reports C truth.
func (v Value) Truthy() bool { return v.Kind == ValInt && v.I != 0 }

// slot is one storage cell: its current value and its declared type, which
// governs C truncation semantics on every store.
type slot struct {
	val Value
	typ cast.CType
}

// Interp executes one parsed driver program.
type Interp struct {
	prog    *cast.Program
	env     *ctypes.Env
	kern    *kernel.Kernel
	bus     *hw.Bus
	stubs   *codegen.Stubs
	globals map[string]*slot
	macros  map[string]cast.Expr
	varSigs map[string]codegen.VarSig
	// coverage records executed source lines.
	coverage *ccov.Set
	depth    int
}

// maxCallDepth bounds recursion (a mutated recursive call crashes like a
// blown kernel stack would).
const maxCallDepth = 64

// New prepares an interpreter. stubs may be nil for plain C drivers.
// Global initialisers run immediately, in declaration order.
func New(prog *cast.Program, env *ctypes.Env, kern *kernel.Kernel, bus *hw.Bus,
	stubs *codegen.Stubs) (*Interp, error) {
	in := &Interp{
		prog:     prog,
		env:      env,
		kern:     kern,
		bus:      bus,
		stubs:    stubs,
		globals:  make(map[string]*slot),
		macros:   make(map[string]cast.Expr),
		varSigs:  make(map[string]codegen.VarSig),
		coverage: &ccov.Set{},
	}
	if stubs != nil {
		for _, sig := range stubs.Interface().Vars {
			in.varSigs[sig.Name] = sig
		}
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *cast.MacroDecl:
			in.macros[d.Name] = d.Body
		case *cast.VarDecl:
			v := IntValue(0)
			if d.Type.Kind == cast.TypeDevilStruct {
				v = Value{Kind: ValDevil}
			}
			if d.Init != nil {
				iv, err := in.evalIn(nil, d.Init)
				if err != nil {
					return nil, err
				}
				v = truncate(d.Type, iv)
			}
			in.globals[d.Name] = &slot{val: v, typ: d.Type}
		}
	}
	return in, nil
}

// Coverage returns the executed-line set.
func (in *Interp) Coverage() *ccov.Set { return in.coverage }

// CoveredLines iterates the executed lines in ascending order without
// copying the coverage structure.
func (in *Interp) CoveredLines() iter.Seq[int] { return in.coverage.Lines() }

// Covered reports whether a line was executed.
func (in *Interp) Covered(line int) bool { return in.coverage.Covered(line) }

// frame is one call activation.
type frame struct {
	scopes []map[string]*slot
}

func (f *frame) push() { f.scopes = append(f.scopes, make(map[string]*slot)) }
func (f *frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) declare(name string, typ cast.CType, v Value) {
	f.scopes[len(f.scopes)-1][name] = &slot{val: v, typ: typ}
}

func (f *frame) lookup(name string) (*slot, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if s, ok := f.scopes[i][name]; ok {
			return s, true
		}
	}
	return nil, false
}

// flow is the control-flow signal of statement execution.
type flow int

const (
	flowNormal flow = iota
	flowBreak
	flowContinue
	flowReturn
)

// Call invokes a driver function by name.
func (in *Interp) Call(name string, args ...Value) (Value, error) {
	f := in.prog.Func(name)
	if f == nil {
		return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("call to undefined function %q", name)}
	}
	return in.callFunc(f, args)
}

func (in *Interp) callFunc(f *cast.FuncDecl, args []Value) (Value, error) {
	if in.depth >= maxCallDepth {
		return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("call stack overflow in %q", f.Name)}
	}
	in.depth++
	defer func() { in.depth-- }()
	if len(args) != len(f.Params) {
		return VoidValue, &kernel.CrashError{
			Cause: fmt.Errorf("call of %q with %d args, want %d", f.Name, len(args), len(f.Params)),
		}
	}
	fr := &frame{}
	fr.push()
	for i, p := range f.Params {
		fr.declare(p.Name, p.Type, truncate(p.Type, args[i]))
	}
	fl, ret, err := in.execBlock(fr, f.Body)
	if err != nil {
		return VoidValue, err
	}
	if fl == flowReturn {
		return truncate(f.Result, ret), nil
	}
	return VoidValue, nil
}

func (in *Interp) cover(pos ctoken.Pos) {
	in.coverage.Add(pos.Line)
}

// SimpleStmt reports whether s is a straight-line statement for
// basic-block fusion: in a statement list, a maximal run of consecutive
// simple statements charges ONE watchdog step at run entry instead of
// one per statement. The predicate is the single definition of the
// fusion rule — the block backend (ccompile) segments its basic
// blocks with this exact function, so both backends charge identically
// by construction. Control-flow statements (blocks, conditionals,
// loops, switches — and unknown kinds) are not simple: they charge
// their own step, and statements in statement position (a loop body, an
// if branch, a for init/post) always charge individually.
func SimpleStmt(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.DeclStmt, *cast.ExprStmt, *cast.AssignStmt, *cast.IncDecStmt,
		*cast.BreakStmt, *cast.ContinueStmt, *cast.ReturnStmt:
		return true
	}
	return false
}

func (in *Interp) execBlock(fr *frame, b *cast.Block) (flow, Value, error) {
	fr.push()
	defer fr.pop()
	return in.execSeq(fr, b.Stmts)
}

// execSeq executes a statement list with basic-block step accounting:
// one watchdog charge at the head of every maximal run of simple
// statements (see SimpleStmt), one per control-flow statement. When the
// charge at a run's head fails, none of the run's statements execute or
// cover — the block backends reproduce exactly this.
func (in *Interp) execSeq(fr *frame, stmts []cast.Stmt) (flow, Value, error) {
	prevSimple := false
	for _, s := range stmts {
		simple := SimpleStmt(s)
		if !simple || !prevSimple {
			if err := in.kern.Step(); err != nil {
				return flowNormal, VoidValue, err
			}
		}
		prevSimple = simple
		fl, v, err := in.stmtBody(fr, s)
		if err != nil || fl != flowNormal {
			return fl, v, err
		}
	}
	return flowNormal, VoidValue, nil
}

// execStmt runs one statement in statement position (a loop body, an if
// branch, a for init/post): its own watchdog charge, then the body.
func (in *Interp) execStmt(fr *frame, s cast.Stmt) (flow, Value, error) {
	if err := in.kern.Step(); err != nil {
		return flowNormal, VoidValue, err
	}
	return in.stmtBody(fr, s)
}

// stmtBody covers the statement's line and executes it, without the
// watchdog charge (the caller decides run-head vs per-statement
// charging).
func (in *Interp) stmtBody(fr *frame, s cast.Stmt) (flow, Value, error) {
	in.cover(s.Pos())
	switch s := s.(type) {
	case *cast.Block:
		return in.execBlock(fr, s)
	case *cast.DeclStmt:
		d := s.Decl
		v := IntValue(0)
		if d.Type.Kind == cast.TypeDevilStruct {
			v = Value{Kind: ValDevil}
		}
		if d.Init != nil {
			iv, err := in.evalIn(fr, d.Init)
			if err != nil {
				return flowNormal, VoidValue, err
			}
			v = truncate(d.Type, iv)
		}
		fr.declare(d.Name, d.Type, v)
	case *cast.ExprStmt:
		if _, err := in.evalIn(fr, s.X); err != nil {
			return flowNormal, VoidValue, err
		}
	case *cast.AssignStmt:
		if err := in.execAssign(fr, s); err != nil {
			return flowNormal, VoidValue, err
		}
	case *cast.IncDecStmt:
		cell, err := in.loadSlot(fr, s.X)
		if err != nil {
			return flowNormal, VoidValue, err
		}
		delta := int64(1)
		if s.Op == ctoken.MinusMinus {
			delta = -1
		}
		cell.val = truncate(cell.typ, IntValue(cell.val.I+delta))
	case *cast.IfStmt:
		cond, err := in.evalIn(fr, s.Cond)
		if err != nil {
			return flowNormal, VoidValue, err
		}
		if cond.Truthy() {
			return in.execStmt(fr, s.Then)
		}
		if s.Else != nil {
			return in.execStmt(fr, s.Else)
		}
	case *cast.WhileStmt:
		for {
			cond, err := in.evalIn(fr, s.Cond)
			if err != nil {
				return flowNormal, VoidValue, err
			}
			if !cond.Truthy() {
				break
			}
			fl, v, err := in.execStmt(fr, s.Body)
			if err != nil {
				return flowNormal, VoidValue, err
			}
			if fl == flowBreak {
				break
			}
			if fl == flowReturn {
				return fl, v, nil
			}
			if err := in.kern.Step(); err != nil {
				return flowNormal, VoidValue, err
			}
		}
	case *cast.DoWhileStmt:
		for {
			fl, v, err := in.execStmt(fr, s.Body)
			if err != nil {
				return flowNormal, VoidValue, err
			}
			if fl == flowBreak {
				break
			}
			if fl == flowReturn {
				return fl, v, nil
			}
			cond, err := in.evalIn(fr, s.Cond)
			if err != nil {
				return flowNormal, VoidValue, err
			}
			if !cond.Truthy() {
				break
			}
			if err := in.kern.Step(); err != nil {
				return flowNormal, VoidValue, err
			}
		}
	case *cast.ForStmt:
		fr.push()
		defer fr.pop()
		if s.Init != nil {
			if fl, v, err := in.execStmt(fr, s.Init); err != nil || fl != flowNormal {
				return fl, v, err
			}
		}
		for {
			if s.Cond != nil {
				cond, err := in.evalIn(fr, s.Cond)
				if err != nil {
					return flowNormal, VoidValue, err
				}
				if !cond.Truthy() {
					break
				}
			}
			fl, v, err := in.execStmt(fr, s.Body)
			if err != nil {
				return flowNormal, VoidValue, err
			}
			if fl == flowBreak {
				break
			}
			if fl == flowReturn {
				return fl, v, nil
			}
			if s.Post != nil {
				if fl, v, err := in.execStmt(fr, s.Post); err != nil || fl == flowReturn {
					return fl, v, err
				}
			}
			if err := in.kern.Step(); err != nil {
				return flowNormal, VoidValue, err
			}
		}
	case *cast.SwitchStmt:
		return in.execSwitch(fr, s)
	case *cast.BreakStmt:
		return flowBreak, VoidValue, nil
	case *cast.ContinueStmt:
		return flowContinue, VoidValue, nil
	case *cast.ReturnStmt:
		if s.X == nil {
			return flowReturn, VoidValue, nil
		}
		v, err := in.evalIn(fr, s.X)
		if err != nil {
			return flowNormal, VoidValue, err
		}
		return flowReturn, v, nil
	}
	return flowNormal, VoidValue, nil
}

func (in *Interp) execSwitch(fr *frame, s *cast.SwitchStmt) (flow, Value, error) {
	tag, err := in.evalIn(fr, s.Tag)
	if err != nil {
		return flowNormal, VoidValue, err
	}
	var chosen *cast.CaseClause
	var deflt *cast.CaseClause
	for _, cl := range s.Clauses {
		if cl.Values == nil {
			deflt = cl
			continue
		}
		for _, vx := range cl.Values {
			v, err := in.evalIn(fr, vx)
			if err != nil {
				return flowNormal, VoidValue, err
			}
			if v.I == tag.I {
				chosen = cl
				break
			}
		}
		if chosen != nil {
			break
		}
	}
	if chosen == nil {
		chosen = deflt
	}
	if chosen == nil {
		return flowNormal, VoidValue, nil
	}
	in.cover(chosen.CasePos)
	fr.push()
	defer fr.pop()
	prevSimple := false
	for _, st := range chosen.Stmts {
		simple := SimpleStmt(st)
		if !simple || !prevSimple {
			if err := in.kern.Step(); err != nil {
				return flowNormal, VoidValue, err
			}
		}
		prevSimple = simple
		fl, v, err := in.stmtBody(fr, st)
		if err != nil {
			return flowNormal, VoidValue, err
		}
		switch fl {
		case flowBreak:
			return flowNormal, VoidValue, nil
		case flowReturn, flowContinue:
			return fl, v, nil
		}
	}
	return flowNormal, VoidValue, nil
}

// loadSlot resolves a variable's storage cell.
func (in *Interp) loadSlot(fr *frame, id *cast.Ident) (*slot, error) {
	if fr != nil {
		if s, ok := fr.lookup(id.Name); ok {
			return s, nil
		}
	}
	if s, ok := in.globals[id.Name]; ok {
		return s, nil
	}
	return nil, &kernel.CrashError{
		Cause: fmt.Errorf("read of undefined variable %q", id.Name),
	}
}

func (in *Interp) execAssign(fr *frame, s *cast.AssignStmt) error {
	rhs, err := in.evalIn(fr, s.RHS)
	if err != nil {
		return err
	}
	cell, err := in.loadSlot(fr, s.LHS)
	if err != nil {
		return err
	}
	if s.Op == ctoken.Assign {
		// Direct assignment: Devil values flow through unchanged.
		if cell.val.Kind == ValDevil || rhs.Kind == ValDevil {
			cell.val = rhs
			return nil
		}
		cell.val = truncate(cell.typ, IntValue(rhs.I))
		return nil
	}
	cur := cell.val
	var res int64
	switch s.Op {
	case ctoken.OrAssign:
		res = cur.I | rhs.I
	case ctoken.AndAssign:
		res = cur.I & rhs.I
	case ctoken.XorAssign:
		res = cur.I ^ rhs.I
	case ctoken.ShlAssign:
		res = cur.I << uint(rhs.I&63)
	case ctoken.ShrAssign:
		res = cur.I >> uint(rhs.I&63)
	case ctoken.AddAssign:
		res = cur.I + rhs.I
	case ctoken.SubAssign:
		res = cur.I - rhs.I
	default:
		return &kernel.CrashError{Cause: fmt.Errorf("bad assignment operator %s", s.Op)}
	}
	cell.val = truncate(cell.typ, IntValue(res))
	return nil
}

// Truncate applies C storage semantics for the declared type. It is
// exported so the block backend shares the exact store semantics.
func Truncate(t cast.CType, v Value) Value { return truncate(t, v) }

// truncate applies C storage semantics for the declared type.
func truncate(t cast.CType, v Value) Value {
	if v.Kind != ValInt {
		return v
	}
	x := v.I
	switch t.Kind {
	case cast.TypeU8:
		x = int64(uint8(x))
	case cast.TypeU16:
		x = int64(uint16(x))
	case cast.TypeU32:
		x = int64(uint32(x))
	case cast.TypeS8:
		x = int64(int8(x))
	case cast.TypeS16:
		x = int64(int16(x))
	case cast.TypeInt, cast.TypeS32:
		x = int64(int32(x))
	}
	return IntValue(x)
}

func (in *Interp) evalIn(fr *frame, x cast.Expr) (Value, error) {
	in.cover(x.Pos())
	switch x := x.(type) {
	case *cast.IntLit:
		return IntValue(x.Value), nil
	case *cast.StringLit:
		return Value{Kind: ValString, S: x.Value}, nil
	case *cast.Ident:
		return in.evalIdent(fr, x)
	case *cast.CallExpr:
		return in.evalCall(fr, x)
	case *cast.UnaryExpr:
		v, err := in.evalIn(fr, x.X)
		if err != nil {
			return VoidValue, err
		}
		switch x.Op {
		case ctoken.Not:
			if v.Truthy() {
				return IntValue(0), nil
			}
			return IntValue(1), nil
		case ctoken.BitNot:
			return IntValue(^v.I), nil
		case ctoken.Sub:
			return IntValue(-v.I), nil
		}
		return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("bad unary operator %s", x.Op)}
	case *cast.BinaryExpr:
		return in.evalBinary(fr, x)
	case *cast.CondExpr:
		cond, err := in.evalIn(fr, x.Cond)
		if err != nil {
			return VoidValue, err
		}
		if cond.Truthy() {
			return in.evalIn(fr, x.Then)
		}
		return in.evalIn(fr, x.Else)
	case *cast.CastExpr:
		v, err := in.evalIn(fr, x.X)
		if err != nil {
			return VoidValue, err
		}
		return truncate(x.To, v), nil
	}
	return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("unknown expression at %s", x.Pos())}
}

// evalIdent resolves an identifier: local, global, macro (lazily
// evaluated), or Devil enum constant.
func (in *Interp) evalIdent(fr *frame, id *cast.Ident) (Value, error) {
	if fr != nil {
		if s, ok := fr.lookup(id.Name); ok {
			return s.val, nil
		}
	}
	if s, ok := in.globals[id.Name]; ok {
		return s.val, nil
	}
	if body, ok := in.macros[id.Name]; ok {
		if in.depth >= maxCallDepth {
			return VoidValue, &kernel.CrashError{
				Cause: fmt.Errorf("macro expansion too deep at %q", id.Name),
			}
		}
		in.depth++
		v, err := in.evalIn(fr, body)
		in.depth--
		return v, err
	}
	if in.stubs != nil {
		if cv, ok := in.stubs.Const(id.Name); ok {
			return Value{Kind: ValDevil, Devil: cv}, nil
		}
	}
	return VoidValue, &kernel.CrashError{
		Cause: fmt.Errorf("use of undefined identifier %q", id.Name),
	}
}

func (in *Interp) evalBinary(fr *frame, x *cast.BinaryExpr) (Value, error) {
	// Short-circuit operators first.
	if x.Op == ctoken.LAnd || x.Op == ctoken.LOr {
		l, err := in.evalIn(fr, x.X)
		if err != nil {
			return VoidValue, err
		}
		if x.Op == ctoken.LAnd && !l.Truthy() {
			return IntValue(0), nil
		}
		if x.Op == ctoken.LOr && l.Truthy() {
			return IntValue(1), nil
		}
		r, err := in.evalIn(fr, x.Y)
		if err != nil {
			return VoidValue, err
		}
		if r.Truthy() {
			return IntValue(1), nil
		}
		return IntValue(0), nil
	}
	l, err := in.evalIn(fr, x.X)
	if err != nil {
		return VoidValue, err
	}
	r, err := in.evalIn(fr, x.Y)
	if err != nil {
		return VoidValue, err
	}
	a, b := l.I, r.I
	boolVal := func(ok bool) (Value, error) {
		if ok {
			return IntValue(1), nil
		}
		return IntValue(0), nil
	}
	switch x.Op {
	case ctoken.Or:
		return IntValue(a | b), nil
	case ctoken.Xor:
		return IntValue(a ^ b), nil
	case ctoken.And:
		return IntValue(a & b), nil
	case ctoken.Shl:
		return IntValue(a << uint(b&63)), nil
	case ctoken.Shr:
		return IntValue(a >> uint(b&63)), nil
	case ctoken.Add:
		return IntValue(a + b), nil
	case ctoken.Sub:
		return IntValue(a - b), nil
	case ctoken.Mul:
		return IntValue(a * b), nil
	case ctoken.Div:
		if b == 0 {
			return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("division by zero at %s", x.OpPos)}
		}
		return IntValue(a / b), nil
	case ctoken.Mod:
		if b == 0 {
			return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("division by zero at %s", x.OpPos)}
		}
		return IntValue(a % b), nil
	case ctoken.Eq:
		return boolVal(a == b)
	case ctoken.Ne:
		return boolVal(a != b)
	case ctoken.Lt:
		return boolVal(a < b)
	case ctoken.Gt:
		return boolVal(a > b)
	case ctoken.Le:
		return boolVal(a <= b)
	case ctoken.Ge:
		return boolVal(a >= b)
	}
	return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("bad binary operator %s", x.Op)}
}

func (in *Interp) evalCall(fr *frame, x *cast.CallExpr) (Value, error) {
	// Driver-defined functions take priority over builtins of the same
	// name (the checker rejects such shadowing anyway).
	if f := in.prog.Func(x.Name); f != nil {
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.evalIn(fr, a)
			if err != nil {
				return VoidValue, err
			}
			args[i] = v
		}
		return in.callFunc(f, args)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.evalIn(fr, a)
		if err != nil {
			return VoidValue, err
		}
		args[i] = v
	}
	return in.builtin(x, args)
}

func (in *Interp) builtin(x *cast.CallExpr, args []Value) (Value, error) {
	argInt := func(i int) int64 {
		if i < len(args) {
			return args[i].I
		}
		return 0
	}
	switch x.Name {
	case "inb":
		v, err := in.bus.Read(hw.Port(argInt(0)), hw.Width8)
		return IntValue(int64(v)), err
	case "inw":
		v, err := in.bus.Read(hw.Port(argInt(0)), hw.Width16)
		return IntValue(int64(v)), err
	case "inl":
		v, err := in.bus.Read(hw.Port(argInt(0)), hw.Width32)
		return IntValue(int64(v)), err
	case "outb":
		return VoidValue, in.bus.Write(hw.Port(argInt(1)), hw.Width8, uint32(argInt(0)))
	case "outw":
		return VoidValue, in.bus.Write(hw.Port(argInt(1)), hw.Width16, uint32(argInt(0)))
	case "outl":
		return VoidValue, in.bus.Write(hw.Port(argInt(1)), hw.Width32, uint32(argInt(0)))
	case "panic":
		msg := "panic"
		if len(args) > 0 && args[0].Kind == ValString {
			msg = args[0].S
		}
		return VoidValue, in.kern.Panic(fmt.Sprintf("%s (at %s)", msg, x.NamePos))
	case "printk":
		in.kern.Printk(FormatPrintk(args))
		return VoidValue, nil
	case "udelay":
		return VoidValue, in.kern.Delay(argInt(0))
	case "kbuf_read8":
		v, err := in.kern.BufRead8(argInt(0))
		return IntValue(int64(v)), err
	case "kbuf_write8":
		return VoidValue, in.kern.BufWrite8(argInt(0), uint8(argInt(1)))
	case "kbuf_read16":
		v, err := in.kern.BufRead16(argInt(0))
		return IntValue(int64(v)), err
	case "kbuf_write16":
		return VoidValue, in.kern.BufWrite16(argInt(0), uint16(argInt(1)))
	case "dil_eq":
		return in.dilEq(args)
	}
	if in.stubs != nil {
		if v, handled, err := in.stubCall(x.Name, args); handled {
			return v, err
		}
	}
	return VoidValue, &kernel.CrashError{
		Cause: fmt.Errorf("call to undefined function %q at %s", x.Name, x.NamePos),
	}
}

// dilEq implements the run-time typed comparison of the paper's dil_eq
// macro.
func (in *Interp) dilEq(args []Value) (Value, error) {
	if in.stubs == nil || len(args) != 2 {
		return VoidValue, &kernel.CrashError{Cause: fmt.Errorf("dil_eq without stubs")}
	}
	toDevil := func(v Value) codegen.Value {
		if v.Kind == ValDevil {
			return v.Devil
		}
		return codegen.UntypedInt(v.I)
	}
	eq, err := in.stubs.Eq(toDevil(args[0]), toDevil(args[1]))
	if err != nil {
		return VoidValue, err
	}
	if eq {
		return IntValue(1), nil
	}
	return IntValue(0), nil
}

// stubCall dispatches get_X/set_X calls to the generated stubs, converting
// between hwC values and Devil values per the variable's kind.
func (in *Interp) stubCall(name string, args []Value) (Value, bool, error) {
	switch {
	case strings.HasPrefix(name, "get_block_"), strings.HasPrefix(name, "set_block_"):
		return in.blockCall(name, args)
	case strings.HasPrefix(name, "get_"):
		varName := name[len("get_"):]
		sig, ok := in.varSigs[varName]
		if !ok {
			return VoidValue, false, nil
		}
		dv, err := in.stubs.Get(varName)
		if err != nil {
			return VoidValue, true, err
		}
		if sig.Kind == codegen.KindEnum {
			return Value{Kind: ValDevil, Devil: dv}, true, nil
		}
		x := int64(dv.Val)
		if sig.Kind == codegen.KindSignedInt && sig.Width > 0 && sig.Width < 64 {
			// Sign-extend the raw field.
			shift := uint(64 - sig.Width)
			x = x << shift >> shift
		}
		return IntValue(x), true, nil
	case strings.HasPrefix(name, "set_"):
		varName := name[len("set_"):]
		sig, ok := in.varSigs[varName]
		if !ok {
			return VoidValue, false, nil
		}
		var dv codegen.Value
		if len(args) == 1 && args[0].Kind == ValDevil {
			dv = args[0].Devil
		} else if len(args) == 1 {
			dv = codegen.UntypedInt(args[0].I)
		}
		_ = sig
		return VoidValue, true, in.stubs.Set(varName, dv)
	}
	return VoidValue, false, nil
}

// blockCall implements the block-transfer stubs generated for FIFO
// variables: get_block_X(off, count) reads count values from the device
// variable into the transfer buffer at byte offset off; set_block_X writes
// them back out. One watchdog step is charged per element, so a mutated
// count cannot stall the machine unnoticed.
func (in *Interp) blockCall(name string, args []Value) (Value, bool, error) {
	reading := strings.HasPrefix(name, "get_block_")
	varName := strings.TrimPrefix(strings.TrimPrefix(name, "get_block_"), "set_block_")
	sig, ok := in.varSigs[varName]
	if !ok || !sig.Block {
		return VoidValue, false, nil
	}
	if len(args) != 2 {
		return VoidValue, true, &kernel.CrashError{
			Cause: fmt.Errorf("%s: wrong argument count", name),
		}
	}
	off, count := args[0].I, args[1].I
	elem := int64(sig.Width / 8)
	for k := int64(0); k < count; k++ {
		if err := in.kern.Step(); err != nil {
			return VoidValue, true, err
		}
		byteOff := off + k*elem
		if reading {
			dv, err := in.stubs.Get(varName)
			if err != nil {
				return VoidValue, true, err
			}
			var werr error
			if elem == 2 {
				werr = in.kern.BufWrite16(byteOff, uint16(dv.Val))
			} else {
				if werr = in.kern.BufWrite16(byteOff, uint16(dv.Val)); werr == nil {
					werr = in.kern.BufWrite16(byteOff+2, uint16(dv.Val>>16))
				}
			}
			if werr != nil {
				return VoidValue, true, werr
			}
			continue
		}
		var val uint32
		if elem == 2 {
			w, err := in.kern.BufRead16(byteOff)
			if err != nil {
				return VoidValue, true, err
			}
			val = uint32(w)
		} else {
			lo, err := in.kern.BufRead16(byteOff)
			if err != nil {
				return VoidValue, true, err
			}
			hi, err := in.kern.BufRead16(byteOff + 2)
			if err != nil {
				return VoidValue, true, err
			}
			val = uint32(lo) | uint32(hi)<<16
		}
		if err := in.stubs.Set(varName, codegen.UntypedInt(int64(val))); err != nil {
			return VoidValue, true, err
		}
	}
	return VoidValue, true, nil
}

// FormatPrintk renders a printk call: %d, %x, %s and %% are supported. It
// is exported so the block backend (ccompile) produces byte-identical
// console output.
func FormatPrintk(args []Value) string {
	if len(args) == 0 || args[0].Kind != ValString {
		return ""
	}
	format := args[0].S
	rest := args[1:]
	var b strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 >= len(format) {
			b.WriteByte(format[i])
			continue
		}
		i++
		switch format[i] {
		case 'd':
			if ai < len(rest) {
				fmt.Fprintf(&b, "%d", rest[ai].I)
				ai++
			}
		case 'x':
			if ai < len(rest) {
				fmt.Fprintf(&b, "%x", uint64(rest[ai].I))
				ai++
			}
		case 's':
			if ai < len(rest) {
				b.WriteString(rest[ai].S)
				ai++
			}
		case '%':
			b.WriteByte('%')
		default:
			b.WriteByte('%')
			b.WriteByte(format[i])
		}
	}
	return b.String()
}
