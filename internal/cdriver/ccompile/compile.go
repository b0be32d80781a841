package ccompile

import (
	"fmt"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil/codegen"
	"repro/internal/kernel"
)

// globalRef is the compile-time view of one file-scope variable.
type globalRef struct {
	ord  int // declaration order (for the declsReady guard)
	slot int
	typ  cast.CType
}

// macroRef is the compile-time view of one macro.
type macroRef struct {
	ord  int
	decl *cast.MacroDecl
}

// localSlot is the compile-time view of one local variable.
type localSlot struct {
	idx int
	typ cast.CType
}

// compiler holds the one-pass compilation state.
type compiler struct {
	prog    *cast.Program
	stubs   *codegen.Stubs
	varSigs map[string]codegen.VarSig
	// domLine is the source line the innermost enclosing statement
	// closure unconditionally covers before any sub-expression runs
	// (-1 outside statements). Expression closures on that line skip
	// their own redundant coverage add: line coverage is a set, so
	// re-adding a line the dominating statement already added is
	// unobservable. Compile-time state only.
	domLine int
	// stats counts what the fusion pass produced.
	stats BlockStats

	funcIdx   map[string]int
	funcs     []*cfunc
	funcDecls []*cast.FuncDecl

	globalIdx   map[string]globalRef
	globalTypes []cast.CType

	macros map[string]macroRef
	// expanding holds the body closure cell of every macro expansion
	// being compiled, by macro name.
	expanding map[string]*exprFn
	// onMacro, when non-nil, is invoked for every macro inlined at a use
	// site (including macros reached through nested expansion) — the
	// incremental compiler records which compilation units must be
	// recompiled when a macro body mutates.
	onMacro func(name string)

	// Per-function compile state: lexical scopes mapping names to frame
	// slots, and the slot high-water mark.
	scopes []map[string]localSlot
	nslots int

	maxSlots int
	maxLine  int
}

// line records a source line for coverage sizing and returns it.
func (c *compiler) line(pos ctoken.Pos) int {
	if pos.Line > c.maxLine {
		c.maxLine = pos.Line
	}
	return pos.Line
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, make(map[string]localSlot)) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// declareLocal assigns the next frame slot to a name in the top scope.
func (c *compiler) declareLocal(name string, typ cast.CType) int {
	idx := c.nslots
	c.nslots++
	c.scopes[len(c.scopes)-1][name] = localSlot{idx: idx, typ: typ}
	return idx
}

// lookupLocal resolves a name through the lexical scope chain.
func (c *compiler) lookupLocal(name string) (localSlot, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return localSlot{}, false
}

// compileFunc fills in a pre-registered cfunc.
func (c *compiler) compileFunc(f *cfunc, d *cast.FuncDecl) {
	c.scopes = c.scopes[:0]
	c.nslots = 0
	c.pushScope()
	for _, p := range d.Params {
		c.declareLocal(p.Name, p.Type)
		f.params = append(f.params, p.Type)
	}
	f.body = c.blockBody(d.Body)
	c.popScope()
	f.nslots = c.nslots
	if c.nslots > c.maxSlots {
		c.maxSlots = c.nslots
	}
}

// blockBody compiles a block's statements under a fresh lexical scope.
// The caller decides whether the block itself charges a watchdog step
// (statement blocks do, function bodies do not — as in the interpreter).
func (c *compiler) blockBody(b *cast.Block) []stmtFn {
	c.pushScope()
	out := c.seq(b.Stmts)
	c.popScope()
	return out
}

// chargeWrap prefixes a compiled statement with one watchdog charge.
func chargeWrap(f stmtFn) stmtFn {
	return func(st *state, fr []Value) (flow, Value, error) {
		if err := st.kern.Step(); err != nil {
			return flowNormal, voidValue, err
		}
		return f(st, fr)
	}
}

// fuseRun folds a maximal run of simple statements into one basic-block
// closure: a single watchdog charge at entry, then the statement bodies
// in order. A failing charge executes (and covers) none of the run, and
// control flow (break/continue/return) propagates out of the block —
// exactly the interpreter's execSeq semantics.
func fuseRun(run []stmtFn) stmtFn {
	if len(run) == 1 {
		return chargeWrap(run[0])
	}
	body := make([]stmtFn, len(run))
	copy(body, run)
	return func(st *state, fr []Value) (flow, Value, error) {
		if err := st.kern.Step(); err != nil {
			return flowNormal, voidValue, err
		}
		for _, f := range body {
			fl, v, err := f(st, fr)
			if err != nil || fl != flowNormal {
				return fl, v, err
			}
		}
		return flowNormal, voidValue, nil
	}
}

// seq compiles a statement list with basic-block step accounting: one
// watchdog charge at the head of every maximal run of simple statements
// (cinterp.SimpleStmt is the shared fusion rule), one per control-flow
// statement. Each run collapses into a single closure.
func (c *compiler) seq(stmts []cast.Stmt) []stmtFn {
	var out []stmtFn
	var run []stmtFn
	flush := func() {
		if len(run) == 0 {
			return
		}
		c.stats.Blocks++
		c.stats.FusedStmts += int64(len(run))
		out = append(out, fuseRun(run))
		run = run[:0]
	}
	for _, s := range stmts {
		if cinterp.SimpleStmt(s) {
			run = append(run, c.stmtBody(s))
			continue
		}
		flush()
		out = append(out, chargeWrap(c.stmtBody(s)))
	}
	flush()
	return out
}

// stmt compiles one statement for statement position (a loop body, an
// if branch, a for init/post), with the interpreter's execStmt
// semantics: one watchdog step, then the body.
func (c *compiler) stmt(s cast.Stmt) stmtFn {
	return chargeWrap(c.stmtBody(s))
}

// stmtBody compiles a statement's behaviour without the watchdog
// charge: the statement's line is covered, then the node-specific
// behaviour runs. The caller (seq or stmt) decides run-head vs
// per-statement charging.
func (c *compiler) stmtBody(s cast.Stmt) stmtFn {
	line := c.line(s.Pos())
	// Every case below emits a closure that covers line before its
	// sub-expressions run, so line dominates them for coverage purposes.
	prevDom := c.domLine
	c.domLine = line
	defer func() { c.domLine = prevDom }()
	switch s := s.(type) {
	case *cast.Block:
		body := c.blockBody(s)
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			return runSeq(body, st, fr)
		}

	case *cast.DeclStmt:
		d := s.Decl
		var initFn exprFn
		if d.Init != nil {
			initFn = c.expr(d.Init) // compiled before the name is visible
		}
		slot := c.declareLocal(d.Name, d.Type)
		typ := d.Type
		if initFn != nil {
			return func(st *state, fr []Value) (flow, Value, error) {
				st.cov.Add(line)
				iv, err := initFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				fr[slot] = cinterp.Truncate(typ, iv)
				return flowNormal, voidValue, nil
			}
		}
		def := defaultValue(d.Type)
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			fr[slot] = def
			return flowNormal, voidValue, nil
		}

	case *cast.ExprStmt:
		xf := c.expr(s.X)
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			_, err := xf(st, fr)
			return flowNormal, voidValue, err
		}

	case *cast.AssignStmt:
		return c.assign(s, line)

	case *cast.IncDecStmt:
		delta := int64(1)
		if s.Op == ctoken.MinusMinus {
			delta = -1
		}
		// Local counters (every loop induction variable) update their
		// frame slot directly — no load/store closure pair.
		if ls, ok := c.lookupLocal(s.X.Name); ok {
			slot := ls.idx
			if tf := truncFn(ls.typ); tf != nil {
				return func(st *state, fr []Value) (flow, Value, error) {
					st.cov.Add(line)
					fr[slot] = intValue(tf(fr[slot].I + delta))
					return flowNormal, voidValue, nil
				}
			}
			return func(st *state, fr []Value) (flow, Value, error) {
				st.cov.Add(line)
				fr[slot] = intValue(fr[slot].I + delta)
				return flowNormal, voidValue, nil
			}
		}
		store := c.lvalue(s.X)
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			cell, err := store.load(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			store.store(st, fr, cinterp.Truncate(store.typ, intValue(cell.I+delta)))
			return flowNormal, voidValue, nil
		}

	case *cast.IfStmt:
		return c.ifStmt(s, line).fn

	case *cast.WhileStmt:
		// A while loop is a for loop with no init and no post. It opens
		// no scope: a bare declaration body declares into the enclosing
		// scope, as in the interpreter.
		return c.forStmt(&cast.ForStmt{ForPos: s.WhilePos, Cond: s.Cond, Body: s.Body}, line)

	case *cast.DoWhileStmt:
		bodyFn := c.stmt(s.Body)
		condFn := c.expr(s.Cond)
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			for {
				fl, v, err := bodyFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if fl == flowBreak {
					break
				}
				if fl == flowReturn {
					return fl, v, nil
				}
				cond, err := condFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if !cond.Truthy() {
					break
				}
				if err := st.kern.Step(); err != nil {
					return flowNormal, voidValue, err
				}
			}
			return flowNormal, voidValue, nil
		}

	case *cast.ForStmt:
		c.pushScope() // the init declaration's scope, as in the interpreter
		defer c.popScope()
		return c.forStmt(s, line)

	case *cast.SwitchStmt:
		return c.switchStmt(s, line)

	case *cast.BreakStmt:
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			return flowBreak, voidValue, nil
		}

	case *cast.ContinueStmt:
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			return flowContinue, voidValue, nil
		}

	case *cast.ReturnStmt:
		if s.X == nil {
			return func(st *state, fr []Value) (flow, Value, error) {
				st.cov.Add(line)
				return flowReturn, voidValue, nil
			}
		}
		xf := c.expr(s.X)
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			v, err := xf(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			return flowReturn, v, nil
		}
	}

	// Unknown statement kinds execute as a charged no-op, exactly like
	// the interpreter's execStmt default (unknown kinds are not simple,
	// so seq always charges them).
	return func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		return flowNormal, voidValue, nil
	}
}

// ifStmt compiles an if statement's body closure, keeping its
// condition and branch closures for a superblock's poll kernel.
func (c *compiler) ifStmt(s *cast.IfStmt, line int) ctlForms {
	condFn := c.expr(s.Cond)
	thenFn := c.stmt(s.Then)
	var elseFn stmtFn
	if s.Else != nil {
		elseFn = c.stmt(s.Else)
	}
	return ctlForms{
		fn: func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			cond, err := condFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			if cond.Truthy() {
				return thenFn(st, fr)
			}
			if elseFn != nil {
				return elseFn(st, fr)
			}
			return flowNormal, voidValue, nil
		},
		cond: condFn, then: thenFn, els: elseFn,
	}
}

// forStmt compiles a for loop, or a while loop as a for loop with no
// init and no post, in the caller's scope.
func (c *compiler) forStmt(s *cast.ForStmt, line int) stmtFn {
	if c.loopEligible(s.Body, s.Post) {
		return c.forSuper(s, line)
	}
	var initFn stmtFn
	if s.Init != nil {
		initFn = c.stmt(s.Init)
	}
	var condFn exprFn
	if s.Cond != nil {
		condFn = c.expr(s.Cond)
	}
	var postFn stmtFn
	if s.Post != nil {
		postFn = c.stmt(s.Post)
	}
	bodyFn := c.stmt(s.Body)
	return func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		if initFn != nil {
			if fl, v, err := initFn(st, fr); err != nil || fl != flowNormal {
				return fl, v, err
			}
		}
		for {
			if condFn != nil {
				cond, err := condFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if !cond.Truthy() {
					break
				}
			}
			fl, v, err := bodyFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			if fl == flowBreak {
				break
			}
			if fl == flowReturn {
				return fl, v, nil
			}
			if postFn != nil {
				if fl, v, err := postFn(st, fr); err != nil || fl == flowReturn {
					return fl, v, err
				}
			}
			if err := st.kern.Step(); err != nil {
				return flowNormal, voidValue, err
			}
		}
		return flowNormal, voidValue, nil
	}
}

// runSeq executes a compiled statement sequence with block semantics.
func runSeq(body []stmtFn, st *state, fr []Value) (flow, Value, error) {
	for _, sf := range body {
		fl, v, err := sf(st, fr)
		if err != nil || fl != flowNormal {
			return fl, v, err
		}
	}
	return flowNormal, voidValue, nil
}

// cclause is one compiled switch arm.
type cclause struct {
	vals      []exprFn
	caseLine  int
	body      []stmtFn
	isDefault bool
}

func (c *compiler) switchStmt(s *cast.SwitchStmt, line int) stmtFn {
	tagFn := c.expr(s.Tag)
	clauses := make([]*cclause, len(s.Clauses))
	for i, cl := range s.Clauses {
		cc := &cclause{caseLine: c.line(cl.CasePos), isDefault: cl.Values == nil}
		for _, vx := range cl.Values {
			cc.vals = append(cc.vals, c.expr(vx))
		}
		c.pushScope()
		cc.body = c.seq(cl.Stmts)
		c.popScope()
		clauses[i] = cc
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		tag, err := tagFn(st, fr)
		if err != nil {
			return flowNormal, voidValue, err
		}
		var chosen, deflt *cclause
		for _, cl := range clauses {
			if cl.isDefault {
				deflt = cl
				continue
			}
			for _, vf := range cl.vals {
				v, err := vf(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
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
			return flowNormal, voidValue, nil
		}
		st.cov.Add(chosen.caseLine)
		for _, sf := range chosen.body {
			fl, v, err := sf(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			switch fl {
			case flowBreak:
				return flowNormal, voidValue, nil
			case flowReturn, flowContinue:
				return fl, v, nil
			}
		}
		return flowNormal, voidValue, nil
	}
}

// assignLocal compiles an assignment to a local frame slot, with the
// generic closures' exact semantics inlined. Returns nil for compound
// operators outside the known set (the generic path owns their
// bad-operator fault).
func (c *compiler) assignLocal(s *cast.AssignStmt, line int, rhsFn exprFn, ls localSlot) stmtFn {
	slot, typ := ls.idx, ls.typ
	tf := truncFn(typ)
	if s.Op == ctoken.Assign {
		if tf == nil {
			// Full-width storage: truncation is identity.
			return func(st *state, fr []Value) (flow, Value, error) {
				st.cov.Add(line)
				rhs, err := rhsFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				// Direct assignment: Devil values flow through unchanged.
				if fr[slot].Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil {
					fr[slot] = rhs
				} else {
					fr[slot] = intValue(rhs.I)
				}
				return flowNormal, voidValue, nil
			}
		}
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			// Direct assignment: Devil values flow through unchanged.
			if fr[slot].Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil {
				fr[slot] = rhs
			} else {
				fr[slot] = intValue(tf(rhs.I))
			}
			return flowNormal, voidValue, nil
		}
	}
	opf := compoundOp(s.Op)
	if opf == nil {
		return nil
	}
	if tf == nil {
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			fr[slot] = intValue(opf(fr[slot].I, rhs.I))
			return flowNormal, voidValue, nil
		}
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		rhs, err := rhsFn(st, fr)
		if err != nil {
			return flowNormal, voidValue, err
		}
		fr[slot] = intValue(tf(opf(fr[slot].I, rhs.I)))
		return flowNormal, voidValue, nil
	}
}

// truncFn resolves cinterp.Truncate's storage-type switch at compile
// time. Returns nil when the declared type stores full 64-bit values,
// so callers can drop the call entirely.
func truncFn(t cast.CType) func(int64) int64 {
	switch t.Kind {
	case cast.TypeU8:
		return func(x int64) int64 { return int64(uint8(x)) }
	case cast.TypeU16:
		return func(x int64) int64 { return int64(uint16(x)) }
	case cast.TypeU32:
		return func(x int64) int64 { return int64(uint32(x)) }
	case cast.TypeS8:
		return func(x int64) int64 { return int64(int8(x)) }
	case cast.TypeS16:
		return func(x int64) int64 { return int64(int16(x)) }
	case cast.TypeInt, cast.TypeS32:
		return func(x int64) int64 { return int64(int32(x)) }
	}
	return nil
}

// lval is a compiled storage location: local slot, global slot, or the
// interpreter's undefined-variable fault.
type lval struct {
	typ   cast.CType
	load  func(st *state, fr []Value) (Value, error)
	store func(st *state, fr []Value, v Value)
}

// lvalue resolves an assignment target at compile time, reproducing the
// interpreter's loadSlot chain (locals, then globals, then a crash).
func (c *compiler) lvalue(id *cast.Ident) *lval {
	if ls, ok := c.lookupLocal(id.Name); ok {
		slot := ls.idx
		return &lval{
			typ:   ls.typ,
			load:  func(st *state, fr []Value) (Value, error) { return fr[slot], nil },
			store: func(st *state, fr []Value, v Value) { fr[slot] = v },
		}
	}
	if g, ok := c.globalIdx[id.Name]; ok {
		slot, ord, name := g.slot, g.ord, id.Name
		return &lval{
			typ: g.typ,
			load: func(st *state, fr []Value) (Value, error) {
				if ord >= st.declsReady {
					return voidValue, undefVarErr(name)
				}
				return st.globals[slot], nil
			},
			store: func(st *state, fr []Value, v Value) { st.globals[slot] = v },
		}
	}
	name := id.Name
	return &lval{
		typ:   cast.CType{Kind: cast.TypeInt},
		load:  func(st *state, fr []Value) (Value, error) { return voidValue, undefVarErr(name) },
		store: func(st *state, fr []Value, v Value) {},
	}
}

func undefVarErr(name string) error {
	return &kernel.CrashError{Cause: fmt.Errorf("read of undefined variable %q", name)}
}

// assign compiles "lhs op rhs" with the interpreter's order: RHS first,
// then target resolution, then the op-specific store.
func (c *compiler) assign(s *cast.AssignStmt, line int) stmtFn {
	rhsFn := c.expr(s.RHS)
	// Local targets store into their frame slot directly — no
	// load/store closure pair on the hot path.
	if ls, ok := c.lookupLocal(s.LHS.Name); ok {
		if f := c.assignLocal(s, line, rhsFn, ls); f != nil {
			return f
		}
	}
	target := c.lvalue(s.LHS)
	typ := target.typ
	if s.Op == ctoken.Assign {
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			cur, err := target.load(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			// Direct assignment: Devil values flow through unchanged.
			if cur.Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil {
				target.store(st, fr, rhs)
			} else {
				target.store(st, fr, cinterp.Truncate(typ, intValue(rhs.I)))
			}
			return flowNormal, voidValue, nil
		}
	}
	op := compoundOp(s.Op)
	if op == nil {
		badOp := s.Op
		return func(st *state, fr []Value) (flow, Value, error) {
			st.cov.Add(line)
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			if _, err := target.load(st, fr); err != nil {
				return flowNormal, voidValue, err
			}
			_ = rhs
			return flowNormal, voidValue, badAssignOpErr(badOp)
		}
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		rhs, err := rhsFn(st, fr)
		if err != nil {
			return flowNormal, voidValue, err
		}
		cur, err := target.load(st, fr)
		if err != nil {
			return flowNormal, voidValue, err
		}
		target.store(st, fr, cinterp.Truncate(typ, intValue(op(cur.I, rhs.I))))
		return flowNormal, voidValue, nil
	}
}

// compoundBase maps each compound assignment operator to its binary
// operator.
var compoundBase = map[ctoken.Kind]ctoken.Kind{
	ctoken.OrAssign:  ctoken.Or,
	ctoken.AndAssign: ctoken.And,
	ctoken.XorAssign: ctoken.Xor,
	ctoken.ShlAssign: ctoken.Shl,
	ctoken.ShrAssign: ctoken.Shr,
	ctoken.AddAssign: ctoken.Add,
	ctoken.SubAssign: ctoken.Sub,
}

// compoundOp resolves a compound assignment operator to its integer
// implementation, nil outside the set. Both assignment forms (assign
// and assignLocal) resolve through it.
func compoundOp(op ctoken.Kind) func(a, b int64) int64 {
	if base, ok := compoundBase[op]; ok {
		return intBinOp(base)
	}
	return nil
}

func badAssignOpErr(op ctoken.Kind) error {
	return &kernel.CrashError{Cause: fmt.Errorf("bad assignment operator %s", op)}
}
