package ccompile

import (
	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cinterp"
)

// Loop superblocks: every while/for loop compiles to a single closure
// that runs the whole loop internally. The body's segments (maximal
// runs of simple statements under cinterp.SimpleStmt, the rule seq
// uses, and control statements) run the ordinary stmtBody closures, and
// every iteration makes the block form's exact sequential charges and
// coverage adds. A direct break, continue or return joins its run and
// leaves the iteration with its flow. Once one iteration has completed
// every segment, the (idempotent) covered-line set holds every line a
// steady-state iteration's fixed coverage points add, which licenses a
// loop kernel (loopkernel.go) to run the rest of the loop execution. A
// body that always leaves early never completes an iteration. do/while
// loops keep a closure of their own.

// superBlock is a compiled superblock loop body.
type superBlock struct {
	// blockLine is the body block's own coverage line, -1 for a bare
	// statement body.
	blockLine int32
	// headN is the watchdog charge count a kernel iteration batches up
	// front: the block charge (if the body is a block) plus the first
	// segment's charge.
	headN int32
	// segs are the per-iteration units of the body, each costing one
	// watchdog charge as in seq: a maximal run of simple statements, or
	// one control statement.
	segs [][]stmtFn
	// kern, when non-nil, runs the loop's licensed iterations as a loop
	// kernel (loopkernel.go). It lives in the same allocation.
	kern loopKernel
}

// superBodyOf compiles a loop body. lone is the body's
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
		if cinterp.SimpleStmt(s) {
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
// the condition and then-branch closures it runs, which a poll kernel
// runs directly.
type ctlForms struct {
	fn   stmtFn
	cond exprFn
	then stmtFn
}

// ctlSeg compiles one control statement of a superblock body to its
// stmtBody closure, keeping an if statement's parts.
func (c *compiler) ctlSeg(s cast.Stmt) ctlForms {
	ifs, ok := s.(*cast.IfStmt)
	if !ok {
		return ctlForms{fn: c.stmtBody(s)}
	}
	return c.ifStmt(ifs, c.line(ifs.Pos()))
}

// iter runs one iteration of the body with the block form's exact
// sequential charges and coverage adds. The returned flow is the
// loop-level outcome (flowNormal proceeds to post/end, flowContinue
// already folded into it); done reports that every segment completed,
// which licenses the loop's kernel from the next iteration on.
func (sb *superBlock) iter(st *state, fr []Value) (fl flow, done bool, err error) {
	if err := st.kern.Step(); err != nil { // the body statement's charge
		return flowNormal, false, err
	}
	charged := 1 // segments whose charge the body's charge paid
	if sb.blockLine >= 0 {
		st.cov.Add(int(sb.blockLine))
		charged = 0
	}
	for i, seg := range sb.segs {
		if i >= charged {
			if err := st.kern.Step(); err != nil { // the segment's charge
				return flowNormal, false, err
			}
		}
		for _, f := range seg {
			fl, err := f(st, fr)
			if err != nil {
				return flowNormal, false, err
			}
			if fl != flowNormal {
				if fl == flowContinue {
					fl = flowNormal
				}
				return fl, false, nil
			}
		}
	}
	return flowNormal, true, nil
}

// forSuper compiles a for (or while) loop to a superblock closure in
// the caller's scope; line is the loop statement's line. The init
// statement and every iteration run the block form's sequential charges:
// charge, post, charge for the post and one end-of-iteration charge.
// Once one iteration has completed every segment, a loop kernel, if the
// loop has one, runs the rest of the loop execution.
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
	if s.Post != nil {
		postFn = c.stmtBody(s.Post)
		c.stats.SuperStmts++
	}
	sb := c.forBlock(s, body, lone)
	c.stats.Superblocks++
	head := int64(sb.headN)
	if len(sb.segs) == 0 && postFn == nil {
		head++ // fold the end charge: nothing runs between the charges
	}
	return func(st *state, fr []Value) (flow, error) {
		st.cov.Add(line)
		if initFn != nil {
			if fl, err := initFn(st, fr); err != nil || fl != flowNormal {
				return fl, err
			}
		}
		kernel, licensed := sb.kern != nil, false
		for {
			if condFn != nil {
				cond, err := condFn(st, fr)
				if err != nil {
					return flowNormal, err
				}
				if !cond.Truthy() {
					return flowNormal, nil
				}
			}
			if licensed {
				fl, ran, err := sb.kern.run(st, fr, head)
				if ran {
					return fl, err
				}
				kernel = false // an entry check failed: iter runs the rest
			}
			fl, done, err := sb.iter(st, fr)
			if err != nil {
				return flowNormal, err
			}
			if fl == flowBreak {
				return flowNormal, nil
			}
			if fl == flowReturn {
				return flowReturn, nil
			}
			if postFn != nil {
				if err := st.kern.Step(); err != nil { // the post's charge
					return flowNormal, err
				}
				if _, err := postFn(st, fr); err != nil {
					return flowNormal, err
				}
			}
			if err := st.kern.Step(); err != nil { // end-of-iteration charge
				return flowNormal, err
			}
			licensed = kernel && done
		}
	}
}
