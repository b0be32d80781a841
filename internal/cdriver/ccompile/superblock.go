package ccompile

import (
	"fmt"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/ctoken"
	"repro/internal/kernel"
)

// Loop superblocks: a while/for loop whose body is made of simple
// statements and nested control statements (no direct break, continue or
// return) compiles to a single closure that runs the whole loop
// internally — threaded code instead of one closure dispatch per
// statement per iteration.
//
// Three specializations carry the win on the driver corpus' hot shape,
// the bounded poll (`for (t = 0; t < TIMEOUT; t++) { if (inb(p) & MASK)
// return 0; }`):
//
//   - the loop condition compiles to a predFn returning a bare bool
//     (specialized for fused comparisons like `t < TIMEOUT`), so the
//     per-iteration test pays no Value boxing;
//   - maximal runs of simple statements compile to lean error-only
//     cores (leanFn) — no (flow, Value, error) triple per statement —
//     and an if statement flattens to its condition closure plus branch
//     dispatch with no per-iteration statement-closure hop;
//   - the per-iteration watchdog charges that sequential execution
//     makes back to back with only coverage adds in between batch into
//     one kernel.StepN call.
//
// Observables stay byte-identical to the PR-9 block form. Iterations
// run in "careful" mode — per-statement coverage adds and the exact
// sequential charge pattern — until one iteration has executed every
// segment; from then on the (idempotent) covered-line set already holds
// every line a steady-state iteration can add, and lean iterations drop
// only those provably redundant adds while batching the charges they
// stood between. StepN clamps to the budget so watchdog-tripped boots
// land on exactly budget+1 steps, and a failing batched charge skips
// the statements it dominates exactly as the sequential charges would.
// Sub-expression closures (port I/O, macro guards, call machinery) are
// shared between both modes, so their side effects, faults and own
// coverage adds never diverge. Loops with direct break/continue/return
// in the body, and do/while loops, keep the PR-9 form. The lean
// iterations of transfer loops, bounded polls and busy-waits run as
// loop kernels (loopkernel.go).

// leanFn is one compiled simple statement in a superblock's steady
// state: error-only, no flow or value traffic.
type leanFn func(st *state, fr []Value) error

// predFn evaluates a loop condition to a bare bool.
type predFn func(st *state, fr []Value) (bool, error)

// superSimple reports whether a statement compiles to a lean run core:
// the flow-free simple kinds (the fusion rule's set minus
// break/continue/return).
func superSimple(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.DeclStmt, *cast.ExprStmt, *cast.AssignStmt, *cast.IncDecStmt:
		return true
	}
	return false
}

// superCtl reports whether a statement can be a control segment: its
// compiled closure is reused as-is (self-covering, flow-carrying), so
// any nested control structure qualifies. Direct break/continue/return
// make the enclosing loop fall back — their flow is unconditional, so
// such a loop never reaches a steady state worth specializing.
func superCtl(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.IfStmt, *cast.WhileStmt, *cast.DoWhileStmt, *cast.ForStmt,
		*cast.SwitchStmt, *cast.Block:
		return true
	}
	return false
}

// loopEligible reports whether a loop body (and for post) can compile
// to a superblock.
func (c *compiler) loopEligible(body, post cast.Stmt) bool {
	if post != nil && !superSimple(post) {
		return false
	}
	if b, ok := body.(*cast.Block); ok {
		for _, s := range b.Stmts {
			if !superSimple(s) && !superCtl(s) {
				return false
			}
		}
		return true
	}
	return superSimple(body) || superCtl(body)
}

// leanCore compiles one simple statement to its lean core and source
// line. The core carries everything but the statement-line coverage
// add; careful iterations wrap it with that add, lean iterations run it
// bare (the line is already covered). Sub-expression closures are
// shared between both forms, so their own coverage adds, guards and
// faults stay identical.
func (c *compiler) leanCore(s cast.Stmt) (int, leanFn) {
	line := c.line(s.Pos())
	// Mirror stmtBody's dominating-line dance so sub-expressions make
	// the same compile-time coverage-dedup decisions as the block form.
	prevDom := c.domLine
	c.domLine = line
	defer func() { c.domLine = prevDom }()
	switch s := s.(type) {
	case *cast.DeclStmt:
		d := s.Decl
		var initFn exprFn
		if d.Init != nil {
			initFn = c.expr(d.Init) // compiled before the name is visible
		}
		slot := c.declareLocal(d.Name, d.Type)
		typ := d.Type
		if initFn != nil {
			return line, func(st *state, fr []Value) error {
				iv, err := initFn(st, fr)
				if err != nil {
					return err
				}
				fr[slot] = cinterp.Truncate(typ, iv)
				return nil
			}
		}
		def := defaultValue(d.Type)
		return line, func(st *state, fr []Value) error {
			fr[slot] = def
			return nil
		}

	case *cast.ExprStmt:
		xf := c.expr(s.X)
		return line, func(st *state, fr []Value) error {
			_, err := xf(st, fr)
			return err
		}

	case *cast.AssignStmt:
		return line, c.leanAssign(s)

	case *cast.IncDecStmt:
		delta := int64(1)
		if s.Op == ctoken.MinusMinus {
			delta = -1
		}
		if ls, ok := c.lookupLocal(s.X.Name); ok {
			slot := ls.idx
			if tf := truncFn(ls.typ); tf != nil {
				return line, func(st *state, fr []Value) error {
					fr[slot] = intValue(tf(fr[slot].I + delta))
					return nil
				}
			}
			return line, func(st *state, fr []Value) error {
				fr[slot] = intValue(fr[slot].I + delta)
				return nil
			}
		}
		store := c.lvalue(s.X)
		return line, func(st *state, fr []Value) error {
			cell, err := store.load(st, fr)
			if err != nil {
				return err
			}
			store.store(st, fr, cinterp.Truncate(store.typ, intValue(cell.I+delta)))
			return nil
		}
	}

	// Unreachable for eligible statements; behave as the charged no-op
	// the block form compiles for unknown kinds.
	return line, func(st *state, fr []Value) error { return nil }
}

// leanAssign is assign/assignLocal with the statement-line coverage add
// and flow/value traffic stripped. Order and faults are identical.
func (c *compiler) leanAssign(s *cast.AssignStmt) leanFn {
	rhsFn := c.expr(s.RHS)
	if ls, ok := c.lookupLocal(s.LHS.Name); ok {
		if f := c.leanAssignLocal(s, rhsFn, ls); f != nil {
			return f
		}
	}
	target := c.lvalue(s.LHS)
	typ := target.typ
	if s.Op == ctoken.Assign {
		return func(st *state, fr []Value) error {
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return err
			}
			cur, err := target.load(st, fr)
			if err != nil {
				return err
			}
			// Direct assignment: Devil values flow through unchanged.
			if cur.Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil {
				target.store(st, fr, rhs)
			} else {
				target.store(st, fr, cinterp.Truncate(typ, intValue(rhs.I)))
			}
			return nil
		}
	}
	op := compoundOp(s.Op)
	if op == nil {
		badOp := s.Op
		return func(st *state, fr []Value) error {
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return err
			}
			if _, err := target.load(st, fr); err != nil {
				return err
			}
			_ = rhs
			return badAssignOpErr(badOp)
		}
	}
	return func(st *state, fr []Value) error {
		rhs, err := rhsFn(st, fr)
		if err != nil {
			return err
		}
		cur, err := target.load(st, fr)
		if err != nil {
			return err
		}
		target.store(st, fr, cinterp.Truncate(typ, intValue(op(cur.I, rhs.I))))
		return nil
	}
}

// leanAssignLocal is assignLocal's lean twin. Returns nil for compound
// operators outside the known set (the generic lean path owns the
// bad-operator fault).
func (c *compiler) leanAssignLocal(s *cast.AssignStmt, rhsFn exprFn, ls localSlot) leanFn {
	slot, typ := ls.idx, ls.typ
	tf := truncFn(typ)
	if s.Op == ctoken.Assign {
		if tf == nil {
			return func(st *state, fr []Value) error {
				rhs, err := rhsFn(st, fr)
				if err != nil {
					return err
				}
				if fr[slot].Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil {
					fr[slot] = rhs
				} else {
					fr[slot] = intValue(rhs.I)
				}
				return nil
			}
		}
		return func(st *state, fr []Value) error {
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return err
			}
			if fr[slot].Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil {
				fr[slot] = rhs
			} else {
				fr[slot] = intValue(tf(rhs.I))
			}
			return nil
		}
	}
	opf := compoundOp(s.Op)
	if opf == nil {
		return nil
	}
	if tf == nil {
		return func(st *state, fr []Value) error {
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return err
			}
			fr[slot] = intValue(opf(fr[slot].I, rhs.I))
			return nil
		}
	}
	return func(st *state, fr []Value) error {
		rhs, err := rhsFn(st, fr)
		if err != nil {
			return err
		}
		fr[slot] = intValue(tf(opf(fr[slot].I, rhs.I)))
		return nil
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
// implementation, nil outside the set. Every assignment form (assign,
// assignLocal and their lean twins) resolves through it.
func compoundOp(op ctoken.Kind) func(a, b int64) int64 {
	if base, ok := compoundBase[op]; ok {
		return intBinOp(base)
	}
	return nil
}

func badAssignOpErr(op ctoken.Kind) error {
	return &kernel.CrashError{Cause: fmt.Errorf("bad assignment operator %s", op)}
}

// predOf compiles a loop condition to a specialized bool predicate for
// steady-state iterations, or nil when only the generic wrap applies.
// Specializations are restricted to shapes whose coverage adds are the
// same fixed lines every evaluation — all already in the covered set
// after the first careful condition evaluation — so dropping them is
// unobservable. Guards (macro declsReady/depth) and faults are
// preserved inline.
func (c *compiler) predOf(x cast.Expr) predFn {
	switch x := x.(type) {
	case *cast.IntLit:
		t := x.Value != 0
		return func(st *state, fr []Value) (bool, error) { return t, nil }

	case *cast.Ident:
		if ls, ok := c.lookupLocal(x.Name); ok {
			slot := ls.idx
			return func(st *state, fr []Value) (bool, error) {
				return fr[slot].Truthy(), nil
			}
		}

	case *cast.UnaryExpr:
		if x.Op == ctoken.Not {
			if inner := c.predOf(x.X); inner != nil {
				return func(st *state, fr []Value) (bool, error) {
					ok, err := inner(st, fr)
					if err != nil {
						return false, err
					}
					return !ok, nil
				}
			}
		}

	case *cast.BinaryExpr:
		f := intBinOp(x.Op)
		if f == nil {
			return nil
		}
		xo, xok := c.fuseOperand(x.X)
		yo, yok := c.fuseOperand(x.Y)
		if xok && yok {
			return func(st *state, fr []Value) (bool, error) {
				a, b := xo.v, yo.v
				if xo.slot >= 0 {
					a = fr[xo.slot].I
				} else if xo.guarded && (xo.ord >= st.declsReady || st.depth >= maxCallDepth) {
					var err error
					if a, err = evalFused(st, fr, &xo); err != nil {
						return false, err
					}
				}
				if yo.slot >= 0 {
					b = fr[yo.slot].I
				} else if yo.guarded && (yo.ord >= st.declsReady || st.depth >= maxCallDepth) {
					var err error
					if b, err = evalFused(st, fr, &yo); err != nil {
						return false, err
					}
				}
				return f(a, b) != 0, nil
			}
		}
		// One or both operands are arithmetic over locals and literals
		// (`w < (len + 1) / 2`): evaluate them with error-free pure
		// evaluators. The general binary machinery's coverage adds in
		// such a subtree are all fixed lines, covered by the first
		// careful condition evaluation.
		xp, yp := c.pureIntOf(x.X), c.pureIntOf(x.Y)
		if xp != nil && yp != nil {
			return func(st *state, fr []Value) (bool, error) {
				return f(xp(fr), yp(fr)) != 0, nil
			}
		}
		if xp != nil && yok {
			return func(st *state, fr []Value) (bool, error) {
				b := yo.v
				if yo.slot >= 0 {
					b = fr[yo.slot].I
				} else if yo.guarded && (yo.ord >= st.declsReady || st.depth >= maxCallDepth) {
					var err error
					if b, err = evalFused(st, fr, &yo); err != nil {
						return false, err
					}
				}
				return f(xp(fr), b) != 0, nil
			}
		}
		if yp != nil && xok {
			return func(st *state, fr []Value) (bool, error) {
				a := xo.v
				if xo.slot >= 0 {
					a = fr[xo.slot].I
				} else if xo.guarded && (xo.ord >= st.declsReady || st.depth >= maxCallDepth) {
					var err error
					if a, err = evalFused(st, fr, &xo); err != nil {
						return false, err
					}
				}
				return f(a, yp(fr)) != 0, nil
			}
		}
	}
	return nil
}

// pureIntOf compiles an expression into an error-free int evaluator,
// or nil when it cannot: only integer literals, local reads and pure
// arithmetic qualify. Division and modulo are admitted only by a
// positive literal divisor (matching applyBin without its
// divide-by-zero fault); macros, globals and calls never qualify
// (guards, mutation, side effects). Every coverage line in a qualifying
// subtree is fixed at compile time, so the first careful evaluation of
// the enclosing condition covers them all.
func (c *compiler) pureIntOf(x cast.Expr) func(fr []Value) int64 {
	switch x := x.(type) {
	case *cast.IntLit:
		v := x.Value
		return func(fr []Value) int64 { return v }

	case *cast.Ident:
		if ls, ok := c.lookupLocal(x.Name); ok {
			slot := ls.idx
			return func(fr []Value) int64 { return fr[slot].I }
		}

	case *cast.BinaryExpr:
		var f func(a, b int64) int64
		if x.Op == ctoken.Div || x.Op == ctoken.Mod {
			lit, ok := x.Y.(*cast.IntLit)
			if !ok || lit.Value <= 0 {
				return nil
			}
			if x.Op == ctoken.Mod {
				f = func(a, b int64) int64 { return a % b }
			} else {
				f = func(a, b int64) int64 { return a / b }
			}
		} else {
			f = intBinOp(x.Op)
		}
		if f == nil {
			return nil
		}
		xf := c.pureIntOf(x.X)
		if xf == nil {
			return nil
		}
		yf := c.pureIntOf(x.Y)
		if yf == nil {
			return nil
		}
		return func(fr []Value) int64 { return f(xf(fr), yf(fr)) }
	}
	return nil
}

// genericPred wraps the careful condition closure: full coverage adds
// and side effects (port reads in poll conditions), just the Value
// boxing stripped at the call site.
func genericPred(f exprFn) predFn {
	return func(st *state, fr []Value) (bool, error) {
		v, err := f(st, fr)
		if err != nil {
			return false, err
		}
		return v.Truthy(), nil
	}
}

// leanStmt is one simple statement of a superblock run: its lean core
// and its statement line, which careful iterations add before the core
// runs and lean iterations skip (the line is already covered).
type leanStmt struct {
	line int
	core leanFn
}

// superSeg is one per-iteration unit of a superblock body: either a
// maximal run of simple statements (run non-nil) or one control-flow
// statement. Each segment costs exactly one watchdog charge, as in seq.
type superSeg struct {
	run        []leanStmt
	ctl        stmtFn // lean control form (flattened if)
	ctlCareful stmtFn // careful form (adds the statement line)
}

// superBlock is a compiled superblock loop body.
type superBlock struct {
	// blockLine is the body block's own coverage line, -1 for a bare
	// statement body.
	blockLine int32
	// headN is the watchdog charge count a lean iteration batches up
	// front: the block charge (if the body is a block) plus the first
	// segment's charge.
	headN int32
	segs  []superSeg
	// kern, when non-nil, runs the loop's lean iterations as a loop
	// kernel (loopkernel.go). It lives in the same allocation.
	kern loopKernel
}

// superBodyOf compiles an eligible loop body, sharing frame slots and
// sub-expression closures between the careful and lean forms. lone is
// the body's control segment when the body is exactly one control
// statement.
func (c *compiler) superBodyOf(body cast.Stmt) (sb superBlock, lone ctlForms) {
	sb.blockLine = -1
	stmts := []cast.Stmt{body}
	if b, ok := body.(*cast.Block); ok {
		sb.blockLine = int32(c.line(b.Pos()))
		c.pushScope()
		defer c.popScope()
		stmts = b.Stmts
	}
	var run []leanStmt
	flush := func() {
		if len(run) == 0 {
			return
		}
		if sb.blockLine >= 0 {
			// Count the fused run like seq would.
			c.stats.Blocks++
			c.stats.FusedStmts += int64(len(run))
		}
		c.stats.SuperStmts += int64(len(run))
		sb.segs = append(sb.segs, superSeg{run: run})
		run = nil
	}
	for _, s := range stmts {
		if superSimple(s) {
			line, core := c.leanCore(s)
			run = append(run, leanStmt{line: line, core: core})
			continue
		}
		flush()
		f := c.ctlSeg(s)
		sb.segs = append(sb.segs, superSeg{ctl: f.lean, ctlCareful: f.careful})
		if len(stmts) == 1 {
			lone = f
		}
	}
	flush()
	sb.headN = 1
	if sb.blockLine >= 0 && len(sb.segs) > 0 {
		sb.headN = 2
	}
	return sb, lone
}

// ctlForms is one compiled control segment: its careful and lean forms
// and, for an if statement, the condition and branch closures they run.
type ctlForms struct {
	careful, lean stmtFn
	cond          exprFn
	then, els     stmtFn
}

// ctlSeg compiles one control statement into its careful and lean
// segment forms. An if statement flattens: the lean form drops only the
// statement-line coverage add and the per-iteration closure hop; its
// condition closure and branch statements are the standard compiled
// forms (branches are the cold loop-exit path and keep their own
// charges). Every other control kind reuses its stmtBody closure as-is
// — self-covering and exact — in both modes.
func (c *compiler) ctlSeg(s cast.Stmt) ctlForms {
	ifs, ok := s.(*cast.IfStmt)
	if !ok {
		f := c.stmtBody(s)
		return ctlForms{careful: f, lean: f}
	}
	line := c.line(ifs.Pos())
	prevDom := c.domLine
	c.domLine = line
	condFn := c.expr(ifs.Cond)
	thenFn := c.stmt(ifs.Then)
	var elseFn stmtFn
	if ifs.Else != nil {
		elseFn = c.stmt(ifs.Else)
	}
	c.domLine = prevDom
	lean := func(st *state, fr []Value) (flow, Value, error) {
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
	}
	careful := func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		return lean(st, fr)
	}
	return ctlForms{careful: careful, lean: lean, cond: condFn, then: thenFn, els: elseFn}
}

// carefulIter runs one iteration of the body with the PR-9 block form's
// exact sequential charges and coverage adds. The returned flow is the
// loop-level outcome (flowNormal proceeds to post/end, flowContinue
// already folded into it); done reports that every segment completed,
// licensing lean iterations from the next one on.
func (sb *superBlock) carefulIter(st *state, fr []Value) (fl flow, v Value, done bool, err error) {
	if err := st.kern.Step(); err != nil { // the body statement's charge
		return flowNormal, voidValue, false, err
	}
	if sb.blockLine >= 0 {
		st.cov.Add(int(sb.blockLine))
	}
	for i := range sb.segs {
		if i > 0 || sb.blockLine >= 0 {
			if err := st.kern.Step(); err != nil { // the segment's charge
				return flowNormal, voidValue, false, err
			}
		}
		s := &sb.segs[i]
		if s.run != nil {
			for _, ls := range s.run {
				st.cov.Add(ls.line)
				if err := ls.core(st, fr); err != nil {
					return flowNormal, voidValue, false, err
				}
			}
			continue
		}
		fl, v, err := s.ctlCareful(st, fr)
		if err != nil {
			return flowNormal, voidValue, false, err
		}
		switch fl {
		case flowBreak:
			return flowBreak, voidValue, false, nil
		case flowReturn:
			return flowReturn, v, false, nil
		case flowContinue:
			return flowNormal, voidValue, false, nil
		}
	}
	return flowNormal, voidValue, true, nil
}

// leanIter runs one steady-state iteration: the head charges batched
// into one StepN, lean segment forms, redundant coverage adds dropped.
func (sb *superBlock) leanIter(st *state, fr []Value, head int64) (flow, Value, error) {
	if err := st.kern.StepN(head); err != nil {
		return flowNormal, voidValue, err
	}
	for i := range sb.segs {
		if i > 0 {
			if err := st.kern.Step(); err != nil { // the segment's charge
				return flowNormal, voidValue, err
			}
		}
		s := &sb.segs[i]
		if s.run != nil {
			for _, ls := range s.run {
				if err := ls.core(st, fr); err != nil {
					return flowNormal, voidValue, err
				}
			}
			continue
		}
		fl, v, err := s.ctl(st, fr)
		if err != nil {
			return flowNormal, voidValue, err
		}
		if fl != flowNormal {
			if fl == flowContinue {
				fl = flowNormal
			}
			return fl, v, nil
		}
	}
	return flowNormal, voidValue, nil
}

// forSuper compiles an eligible for (or while) loop to a superblock
// closure. The caller has checked eligibility; line is the loop
// statement's line. The init statement runs once through the careful
// machinery. The first condition evaluation is always the careful
// closure: it covers every fixed line a specialized pred may skip. The
// post's charge/post/charge tail batches when the post is a pure local
// update.
func (c *compiler) forSuper(s *cast.ForStmt, line int) stmtFn {
	var initFn stmtFn
	if s.Init != nil {
		initFn = c.stmt(s.Init)
	}
	var condFn exprFn
	pred := predFn(func(st *state, fr []Value) (bool, error) { return true, nil })
	if s.Cond != nil {
		condFn = c.expr(s.Cond)
		if p := c.predOf(s.Cond); p != nil {
			pred = p
		} else {
			pred = genericPred(condFn)
		}
	}
	body, lone := c.superBodyOf(s.Body)
	var postCore leanFn
	postLine := -1
	purePost := false
	if s.Post != nil {
		postLine, postCore = c.leanCore(s.Post)
		// A post that increments a local slot touches no device, kernel
		// or coverage state, so it commutes with its surrounding watchdog
		// charges and the post + end charges batch into one StepN after
		// it. Anything else keeps sequential charges.
		if id, ok := s.Post.(*cast.IncDecStmt); ok {
			_, purePost = c.lookupLocal(id.X.Name)
		}
		c.stats.SuperStmts++
	}
	sb := c.forBlock(s, body, lone, purePost)
	c.stats.Superblocks++
	head := int64(sb.headN)
	if len(sb.segs) == 0 && postCore == nil {
		head++ // fold the end charge: nothing runs between the charges
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		if initFn != nil {
			if fl, v, err := initFn(st, fr); err != nil || fl != flowNormal {
				return fl, v, err
			}
		}
		ok := true
		if condFn != nil {
			cond, err := condFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			ok = cond.Truthy()
		}
		careful, kernel := true, sb.kern != nil
		for ok {
			var err error
			if careful {
				fl, v, done, err := sb.carefulIter(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if fl == flowBreak {
					return flowNormal, voidValue, nil
				}
				if fl == flowReturn {
					return flowReturn, v, nil
				}
				if postCore != nil {
					// Sequential post: charge, cover, update, as the block
					// form's chargeWrap(post) would.
					if err := st.kern.Step(); err != nil {
						return flowNormal, voidValue, err
					}
					st.cov.Add(postLine)
					if err := postCore(st, fr); err != nil {
						return flowNormal, voidValue, err
					}
				}
				if err := st.kern.Step(); err != nil { // end-of-iteration charge
					return flowNormal, voidValue, err
				}
				careful = !done
			} else {
				if kernel {
					fl, v, ran, err := sb.kern.run(st, fr, head, pred)
					if ran {
						return fl, v, err
					}
					kernel = false // an entry check failed: leanIter runs the rest
				}
				fl, v, err := sb.leanIter(st, fr, head)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if fl == flowBreak {
					return flowNormal, voidValue, nil
				}
				if fl == flowReturn {
					return flowReturn, v, nil
				}
				switch {
				case postCore == nil:
					if len(sb.segs) > 0 { // else folded into head
						if err := st.kern.Step(); err != nil { // end-of-iteration charge
							return flowNormal, voidValue, err
						}
					}
				case purePost:
					// The post commutes with its charges: run it, then batch
					// the post + end charges in one StepN.
					if err := postCore(st, fr); err != nil {
						return flowNormal, voidValue, err
					}
					if err := st.kern.StepN(2); err != nil {
						return flowNormal, voidValue, err
					}
				default:
					if err := st.kern.Step(); err != nil { // the post's charge
						return flowNormal, voidValue, err
					}
					if err := postCore(st, fr); err != nil {
						return flowNormal, voidValue, err
					}
					if err := st.kern.Step(); err != nil { // end-of-iteration charge
						return flowNormal, voidValue, err
					}
				}
			}
			ok, err = pred(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
		}
		return flowNormal, voidValue, nil
	}
}
