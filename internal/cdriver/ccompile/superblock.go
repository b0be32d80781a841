package ccompile

import "repro/internal/cdriver/cast"

// Loop superblocks: a while/for loop whose body is made of simple
// statements and nested control statements (no direct break, continue or
// return) compiles to a single closure that runs the whole loop
// internally — threaded code instead of one closure dispatch per
// statement per iteration. The body's segments (maximal runs of simple
// statements, and control statements) run the ordinary stmtBody
// closures.
//
// Iterations run in "careful" mode — the block form's exact sequential
// charge pattern and the body block's coverage add — until one
// iteration has executed every segment. From then on the (idempotent)
// covered-line set holds every line a steady-state iteration's fixed
// coverage points add, and lean iterations batch the watchdog charges
// that sequential execution makes back to back (with only coverage adds
// in between) into one kernel.StepN call. StepN clamps to the budget so
// watchdog-tripped boots land on exactly budget+1 steps, and a failing
// batched charge skips the statements it dominates exactly as the
// sequential charges would. Loops with direct break/continue/return in
// the body, and do/while loops, keep the plain form. The lean
// iterations of transfer loops, bounded polls and busy-waits run as
// loop kernels (loopkernel.go).

// superSimple reports whether a statement joins a superblock run: the
// flow-free simple kinds (the fusion rule's set minus
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

// superBlock is a compiled superblock loop body.
type superBlock struct {
	// blockLine is the body block's own coverage line, -1 for a bare
	// statement body.
	blockLine int32
	// headN is the watchdog charge count a lean iteration batches up
	// front: the block charge (if the body is a block) plus the first
	// segment's charge.
	headN int32
	// segs are the per-iteration units of the body, each costing one
	// watchdog charge as in seq: a maximal run of simple statements, or
	// one control statement.
	segs [][]stmtFn
	// kern, when non-nil, runs the loop's lean iterations as a loop
	// kernel (loopkernel.go). It lives in the same allocation.
	kern loopKernel
}

// superBodyOf compiles an eligible loop body. lone is the body's
// control segment when the body is exactly one control statement.
func (c *compiler) superBodyOf(body cast.Stmt) (sb superBlock, lone ctlForms) {
	sb.blockLine = -1
	stmts := []cast.Stmt{body}
	if b, ok := body.(*cast.Block); ok {
		sb.blockLine = int32(c.line(b.Pos()))
		c.pushScope()
		defer c.popScope()
		stmts = b.Stmts
	}
	var run []stmtFn
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
		sb.segs = append(sb.segs, run)
		run = nil
	}
	for _, s := range stmts {
		if superSimple(s) {
			run = append(run, c.stmtBody(s))
			continue
		}
		flush()
		f := c.ctlSeg(s)
		sb.segs = append(sb.segs, []stmtFn{f.fn})
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

// ctlForms is one compiled control segment and, for an if statement,
// the condition and branch closures it runs, which a poll kernel runs
// directly.
type ctlForms struct {
	fn        stmtFn
	cond      exprFn
	then, els stmtFn
}

// ctlSeg compiles one control statement of a superblock body to its
// stmtBody closure, keeping an if statement's parts.
func (c *compiler) ctlSeg(s cast.Stmt) ctlForms {
	ifs, ok := s.(*cast.IfStmt)
	if !ok {
		return ctlForms{fn: c.stmtBody(s)}
	}
	line := c.line(ifs.Pos())
	prevDom := c.domLine
	c.domLine = line
	defer func() { c.domLine = prevDom }()
	return c.ifStmt(ifs, line)
}

// iter runs one iteration of the body. A careful iteration makes the
// block form's exact sequential charges and covers the body block's
// line; a lean one batches the head charges into one StepN(head) and
// skips that already covered line. The statements are the same
// closures in both. The returned flow is the loop-level outcome
// (flowNormal proceeds to post/end, flowContinue already folded into
// it); done reports that every segment completed, which licenses lean
// iterations from the next one on.
func (sb *superBlock) iter(st *state, fr []Value, careful bool, head int64) (fl flow, v Value, done bool, err error) {
	charged := 1 // segments whose charge the first charge paid
	if careful {
		if err := st.kern.Step(); err != nil { // the body statement's charge
			return flowNormal, voidValue, false, err
		}
		if sb.blockLine >= 0 {
			st.cov.Add(int(sb.blockLine))
			charged = 0
		}
	} else if err := st.kern.StepN(head); err != nil {
		return flowNormal, voidValue, false, err
	}
	for i, seg := range sb.segs {
		if i >= charged {
			if err := st.kern.Step(); err != nil { // the segment's charge
				return flowNormal, voidValue, false, err
			}
		}
		for _, f := range seg {
			fl, v, err := f(st, fr)
			if err != nil {
				return flowNormal, voidValue, false, err
			}
			if fl != flowNormal {
				if fl == flowContinue {
					fl = flowNormal
				}
				return fl, v, false, nil
			}
		}
	}
	return flowNormal, voidValue, true, nil
}

// forSuper compiles an eligible for (or while) loop to a superblock
// closure. The caller has checked eligibility; line is the loop
// statement's line. The init statement runs once through the careful
// machinery. The post's charge/post/charge tail batches when the post is
// a pure local update.
func (c *compiler) forSuper(s *cast.ForStmt, line int) stmtFn {
	var initFn stmtFn
	if s.Init != nil {
		initFn = c.stmt(s.Init)
	}
	var condFn exprFn
	if s.Cond != nil {
		condFn = c.expr(s.Cond)
	}
	body, lone := c.superBodyOf(s.Body)
	var postFn stmtFn
	purePost := false
	if s.Post != nil {
		postFn = c.stmtBody(s.Post)
		// A post that increments a local slot touches no device or
		// kernel state, and the careful iterations covered its line, so
		// in lean iterations it commutes with its surrounding watchdog
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
	if len(sb.segs) == 0 && postFn == nil {
		head++ // fold the end charge: nothing runs between the charges
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		st.cov.Add(line)
		if initFn != nil {
			if fl, v, err := initFn(st, fr); err != nil || fl != flowNormal {
				return fl, v, err
			}
		}
		careful, kernel := true, sb.kern != nil
		for {
			if condFn != nil {
				cond, err := condFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if !cond.Truthy() {
					return flowNormal, voidValue, nil
				}
			}
			if !careful && kernel {
				fl, v, ran, err := sb.kern.run(st, fr, head, condFn)
				if ran {
					return fl, v, err
				}
				kernel = false // an entry check failed: iter runs the rest
			}
			fl, v, done, err := sb.iter(st, fr, careful, head)
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
			case postFn == nil:
				if careful || len(sb.segs) > 0 { // else folded into head
					if err := st.kern.Step(); err != nil { // end-of-iteration charge
						return flowNormal, voidValue, err
					}
				}
			case purePost && !careful:
				// The post commutes with its charges: run it, then batch
				// the post + end charges in one StepN.
				if _, _, err := postFn(st, fr); err != nil {
					return flowNormal, voidValue, err
				}
				if err := st.kern.StepN(2); err != nil {
					return flowNormal, voidValue, err
				}
			default:
				// Sequential post: charge, post, charge, as the block
				// form's chargeWrap(post) would.
				if err := st.kern.Step(); err != nil { // the post's charge
					return flowNormal, voidValue, err
				}
				if _, _, err := postFn(st, fr); err != nil {
					return flowNormal, voidValue, err
				}
				if err := st.kern.Step(); err != nil { // end-of-iteration charge
					return flowNormal, voidValue, err
				}
			}
			careful = careful && !done
		}
	}
}
