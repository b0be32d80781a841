// Package ccompile is the block hwC execution backend: a one-pass
// compiler from the checked AST to closure form, built for the campaign
// hot path where tens of thousands of mutants boot per run.
//
// The tree-walking interpreter (cinterp) resolves every name through
// string-keyed map scope chains, scans the program's function list on
// every call, and records coverage in a hash map — per-statement costs
// that dominate a mutant boot. The compiler pays those costs once, at
// compile time:
//
//   - variables resolve to integer slot indices into a flat frame array,
//     sliced from one preallocated value stack (no per-call or per-block
//     map allocation);
//   - calls resolve to direct *cfunc references (driver functions),
//     baked builtin closures, or pre-resolved Devil stub accessors (no
//     per-call string prefix matching);
//   - macros inline at their use sites, keeping the interpreter's
//     depth-guard semantics;
//   - coverage is a dense ccov bitset, pooled (like the value stack and
//     argument buffers) in a Mach that one campaign worker reuses across
//     every boot.
//
// cinterp remains the reference oracle: the compiled closures replicate
// its observable semantics exactly — evaluation order, coverage points,
// watchdog step charging, truncation, and error construction — and the
// experiment suite's differential test boots every mutant on both
// backends and requires identical results.
package ccompile

import (
	"fmt"
	"iter"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ccov"
	"repro/internal/cdriver/cinterp"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// Value is the shared runtime value representation of both backends.
type Value = cinterp.Value

// maxCallDepth mirrors the interpreter's recursion bound.
const maxCallDepth = 64

var voidValue = cinterp.VoidValue

func intValue(x int64) Value { return cinterp.IntValue(x) }

// flow is the control-flow signal of statement execution.
type flow int

const (
	flowNormal flow = iota
	flowBreak
	flowContinue
	flowReturn
)

// state is the mutable execution state of one boot: the machine bindings
// plus the pooled buffers borrowed from a Mach.
type state struct {
	kern    *kernel.Kernel
	bus     *hw.Bus
	stubs   *codegen.Stubs
	globals []Value
	stack   []Value
	sp      int
	depth   int
	cov     *ccov.Set
	argPool *[][]Value
	burst   *[burstChunk]uint32
	// declsReady is the number of top-level declarations whose run-time
	// registration has happened; during global initialisation it trails
	// the declaration being initialised, reproducing the interpreter's
	// incremental global/macro visibility at insmod time.
	declsReady int
}

// exprFn evaluates one compiled expression.
type exprFn func(st *state, fr []Value) (Value, error)

// stmtFn executes one compiled statement.
type stmtFn func(st *state, fr []Value) (flow, Value, error)

// cfunc is one compiled driver function.
type cfunc struct {
	name   string
	nslots int
	params []cast.CType
	result cast.CType
	body   []stmtFn
}

// Mach holds the execution buffers one campaign worker reuses across
// boots: the value stack frames are sliced from, the coverage bitset,
// the call-argument freelist and the transfer kernels' burst buffer. A
// nil Mach in Compile allocates a private one; sharing a Mach between
// concurrently running Procs is not safe.
type Mach struct {
	stack   []Value
	argFree [][]Value
	cov     ccov.Set
	burst   [burstChunk]uint32 // a transfer kernel's burst reads
}

// NewMach returns an empty buffer pool.
func NewMach() *Mach { return &Mach{} }

// Proc is one compiled, machine-bound driver program.
type Proc struct {
	st      state
	byName  map[string]*cfunc
	inits   []initStep
	inited  bool
	maxDecl int
	stats   BlockStats
}

// Stats reports what the block-fusion pass produced for this program
// (zero-valued under plain Compile except the I/O-site counters).
func (p *Proc) Stats() BlockStats { return p.stats }

// initStep is one global-variable initialisation.
type initStep struct {
	declOrd int
	slot    int
	typ     cast.CType
	def     Value
	init    exprFn // nil when the declaration has no initialiser
}

// BlockStats counts what the block-fusion pass produced during one
// compilation (or one incremental Patch): how many basic blocks were
// emitted, how many statements were fused into them, how many port-I/O
// call sites compiled to a direct closure, and how many fell back to the
// generic argument-buffer builtin call. The experiment layer
// surfaces these as the driverlab_exec_blocks_* metric family.
type BlockStats struct {
	// Blocks is the number of fused basic blocks emitted (maximal runs
	// of simple statements charging one watchdog step at entry).
	Blocks int64
	// FusedStmts is the number of statements inside those blocks.
	FusedStmts int64
	// BatchedIO is the number of port-I/O call sites compiled to a
	// direct closure that calls the bus without an argument buffer.
	BatchedIO int64
	// FallbackIO is the number of port-I/O call sites left on the
	// generic argument-buffer builtin call (wrong-arity calls).
	FallbackIO int64
	// Superblocks is the number of while/for loops compiled to loop
	// superblocks: the whole loop runs inside one closure, charging the
	// watchdog in per-iteration batches once an iteration has covered
	// every segment.
	Superblocks int64
	// SuperStmts is the number of body statements inside those
	// superblocks (the post statement of a for loop counts too).
	SuperStmts int64
	// LoopKernels is the number of those superblocks whose steady state
	// runs as one loop kernel: a port/transfer-buffer transfer loop, a
	// bounded poll or a busy-wait.
	LoopKernels int64
}

// add accumulates another compilation's counts.
func (s *BlockStats) add(o BlockStats) {
	s.Blocks += o.Blocks
	s.FusedStmts += o.FusedStmts
	s.BatchedIO += o.BatchedIO
	s.FallbackIO += o.FallbackIO
	s.Superblocks += o.Superblocks
	s.SuperStmts += o.SuperStmts
	s.LoopKernels += o.LoopKernels
}

// sub returns the counts accumulated since an earlier snapshot.
func (s BlockStats) sub(o BlockStats) BlockStats {
	return BlockStats{
		Blocks:      s.Blocks - o.Blocks,
		FusedStmts:  s.FusedStmts - o.FusedStmts,
		BatchedIO:   s.BatchedIO - o.BatchedIO,
		FallbackIO:  s.FallbackIO - o.FallbackIO,
		Superblocks: s.Superblocks - o.Superblocks,
		SuperStmts:  s.SuperStmts - o.SuperStmts,
		LoopKernels: s.LoopKernels - o.LoopKernels,
	}
}

// Compile lowers a checked program to closure form bound to a concrete
// machine (kernel, bus, and — for CDevil drivers — generated stubs). The
// returned Proc is not yet initialised: Init runs the global
// initialisers, whose faults are insmod-time boot outcomes, not compile
// errors. Every checked program compiles.
//
// Compile fuses straight-line statement runs into basic-block
// closures charged one watchdog step at entry (see cinterp.SimpleStmt
// for the shared fusion rule, so step counts are identical to the
// interpreter's), compiles port I/O to direct hw.Bus calls, and runs
// eligible loops as superblocks.
func Compile(prog *cast.Program, kern *kernel.Kernel, bus *hw.Bus,
	stubs *codegen.Stubs, m *Mach) *Proc {
	c := newCompiler(prog, stubs)
	c.registerDecls()
	inits := c.compileInits(nil)
	c.compileFuncs(nil)
	if m == nil {
		m = NewMach()
	}
	c.sizeMach(m)
	return c.newProc(kern, bus, stubs, m, inits)
}

// newCompiler builds an empty compiler over a checked program.
func newCompiler(prog *cast.Program, stubs *codegen.Stubs) *compiler {
	c := &compiler{
		prog:      prog,
		stubs:     stubs,
		varSigs:   make(map[string]codegen.VarSig),
		funcIdx:   make(map[string]int),
		globalIdx: make(map[string]globalRef),
		macros:    make(map[string]macroRef),
		expanding: make(map[string]*exprFn),
		domLine:   -1,
	}
	if stubs != nil {
		for _, sig := range stubs.Interface().Vars {
			c.varSigs[sig.Name] = sig
		}
	}
	return c
}

// registerDecls is pass 1: register every top-level declaration with its
// order, so function bodies compile against the full global surface
// while the declsReady guard reproduces insmod-time visibility.
func (c *compiler) registerDecls() {
	for ord, d := range c.prog.Decls {
		switch d := d.(type) {
		case *cast.MacroDecl:
			if _, dup := c.macros[d.Name]; !dup {
				c.macros[d.Name] = macroRef{ord: ord, decl: d}
			}
		case *cast.VarDecl:
			if _, dup := c.globalIdx[d.Name]; !dup {
				c.globalIdx[d.Name] = globalRef{ord: ord, slot: len(c.globalTypes), typ: d.Type}
				c.globalTypes = append(c.globalTypes, d.Type)
			}
		case *cast.FuncDecl:
			if _, dup := c.funcIdx[d.Name]; !dup {
				c.funcIdx[d.Name] = len(c.funcs)
				c.funcs = append(c.funcs, &cfunc{name: d.Name, result: d.Result})
				c.funcDecls = append(c.funcDecls, d)
			}
		}
	}
}

// compileInits is the first half of pass 2: compile every global
// initialiser (run later by Init). onUnit, when non-nil, is invoked with
// each step's index before its expression compiles — the incremental
// compiler's dependency-recording hook.
func (c *compiler) compileInits(onUnit func(initIdx int)) []initStep {
	var inits []initStep
	for ord, d := range c.prog.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			ref := c.globalIdx[vd.Name]
			if ref.ord != ord {
				continue // duplicate declaration: unreachable post-check
			}
			if onUnit != nil {
				onUnit(len(inits))
			}
			step := initStep{declOrd: ord, slot: ref.slot, typ: vd.Type, def: defaultValue(vd.Type)}
			if vd.Init != nil {
				step.init = c.expr(vd.Init)
			}
			inits = append(inits, step)
		}
	}
	return inits
}

// compileFuncs is the second half of pass 2: compile every function
// body. onUnit mirrors compileInits.
func (c *compiler) compileFuncs(onUnit func(funcIdx int)) {
	for i, fd := range c.funcDecls {
		if onUnit != nil {
			onUnit(i)
		}
		c.compileFunc(c.funcs[i], fd)
	}
}

// sizeMach grows the pooled execution buffers to the compiled program's
// needs and rewinds the coverage bitset for the coming boot.
func (c *compiler) sizeMach(m *Mach) {
	need := maxCallDepth * c.maxSlots
	if cap(m.stack) < need {
		m.stack = make([]Value, need)
	}
	m.cov.Reset()
	m.cov.Grow(c.maxLine)
}

// newProc assembles the machine-bound Proc for a fully compiled program.
func (c *compiler) newProc(kern *kernel.Kernel, bus *hw.Bus, stubs *codegen.Stubs,
	m *Mach, inits []initStep) *Proc {
	p := &Proc{
		st: state{
			kern:    kern,
			bus:     bus,
			stubs:   stubs,
			globals: make([]Value, len(c.globalTypes)),
			stack:   m.stack[:cap(m.stack)],
			cov:     &m.cov,
			argPool: &m.argFree,
			burst:   &m.burst,
		},
		byName:  make(map[string]*cfunc, len(c.funcs)),
		inits:   inits,
		maxDecl: len(c.prog.Decls),
	}
	for _, f := range c.funcs {
		p.byName[f.name] = f
	}
	p.stats = c.stats
	return p
}

// defaultValue is the interpreter's zero value for a declared type.
func defaultValue(t cast.CType) Value {
	if t.Kind == cast.TypeDevilStruct {
		return Value{Kind: cinterp.ValDevil}
	}
	return intValue(0)
}

// Init runs the global initialisers in declaration order, exactly as the
// interpreter does while being constructed. An error is an insmod-time
// machine fault and classifies like any other boot-terminating error.
func (p *Proc) Init() error {
	p.inited = true
	st := &p.st
	for _, step := range p.inits {
		st.declsReady = step.declOrd
		v := step.def
		if step.init != nil {
			iv, err := step.init(st, nil)
			if err != nil {
				return err
			}
			v = cinterp.Truncate(step.typ, iv)
		}
		st.globals[step.slot] = v
	}
	st.declsReady = p.maxDecl
	return nil
}

// Call invokes a driver function by name — the boot script entry point.
func (p *Proc) Call(name string, args ...Value) (Value, error) {
	if !p.inited {
		st := &p.st
		st.declsReady = p.maxDecl // defensive: Call without Init
	}
	f, ok := p.byName[name]
	if !ok {
		return voidValue, &kernel.CrashError{Cause: fmt.Errorf("call to undefined function %q", name)}
	}
	return p.st.callFunc(f, args)
}

// Coverage returns the executed-line set. The set is owned by the Mach
// the Proc was compiled with, so it is valid until the next Compile on
// that Mach — callers that outlive the boot must Clone it.
func (p *Proc) Coverage() *ccov.Set { return p.st.cov }

// CoveredLines iterates the executed lines in ascending order without
// copying the coverage structure.
func (p *Proc) CoveredLines() iter.Seq[int] { return p.st.cov.Lines() }

// Covered reports whether a line was executed.
func (p *Proc) Covered(line int) bool { return p.st.cov.Covered(line) }

// callFunc is the compiled activation: depth and arity guards, a frame
// sliced from the preallocated stack, parameters truncated into the
// leading slots, and the body closures run in order.
func (st *state) callFunc(f *cfunc, args []Value) (Value, error) {
	if st.depth >= maxCallDepth {
		return voidValue, &kernel.CrashError{Cause: fmt.Errorf("call stack overflow in %q", f.name)}
	}
	st.depth++
	if len(args) != len(f.params) {
		st.depth--
		return voidValue, &kernel.CrashError{
			Cause: fmt.Errorf("call of %q with %d args, want %d", f.name, len(args), len(f.params)),
		}
	}
	fr := st.stack[st.sp : st.sp+f.nslots]
	st.sp += f.nslots
	for i, t := range f.params {
		fr[i] = cinterp.Truncate(t, args[i])
	}
	var (
		fl  flow
		ret Value
		err error
	)
	for _, sf := range f.body {
		fl, ret, err = sf(st, fr)
		if err != nil || fl != flowNormal {
			break
		}
	}
	st.sp -= f.nslots
	st.depth--
	if err != nil {
		return voidValue, err
	}
	if fl == flowReturn {
		return cinterp.Truncate(f.result, ret), nil
	}
	return voidValue, nil
}

// grabArgs borrows a call-argument buffer from the pool. Buffers are
// recursion-safe: a buffer is in use from grab to release, and nested
// calls grab their own.
func (st *state) grabArgs(n int) []Value {
	if n == 0 {
		return nil
	}
	pool := *st.argPool
	if k := len(pool) - 1; k >= 0 {
		b := pool[k]
		*st.argPool = pool[:k]
		if cap(b) >= n {
			return b[:n]
		}
	}
	if n < 8 {
		return make([]Value, n, 8)
	}
	return make([]Value, n)
}

func (st *state) releaseArgs(b []Value) {
	if cap(b) == 0 {
		return
	}
	*st.argPool = append(*st.argPool, b)
}
