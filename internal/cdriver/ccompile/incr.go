package ccompile

import (
	"errors"
	"fmt"

	"repro/internal/cdriver/cast"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// Incr is the incremental compiler: the pristine driver compiled once
// per worker, retaining the compiler tables so a single mutated
// declaration recompiles in place while every other compiled closure is
// reused as-is.
//
// Three properties of the closure representation make this sound:
//
//   - cross-function calls capture stable *cfunc pointers, so swapping a
//     function's compiled body (and slot count) in place redirects every
//     caller without recompiling it;
//   - globals are referenced through slot indices and types that the
//     single-token mutation model cannot change;
//   - macros are the only construct inlined across declaration
//     boundaries, so the compiler records, per macro, exactly which
//     functions and global initialisers inlined it — a mutated macro
//     body recompiles those units and nothing else.
//
// Patch is destructive but reversible: the pristine compiled artefacts
// are snapshotted at construction, and every Patch first restores the
// previous patch, so one Incr serves an entire campaign's worth of
// mutants on one worker.
type Incr struct {
	c    *compiler
	mach *Mach
	proc *Proc

	// inits is the live initialiser list (aliased by proc.inits).
	inits []initStep
	// initDecls is the pristine VarDecl behind each init step.
	initDecls []*cast.VarDecl

	// Pristine snapshots for reverting patches.
	pristineFuncs  []cfunc
	pristineInits  []initStep
	pristineMacros map[string]macroRef

	// Declaration-order lookup tables.
	funcIdxOfOrd map[int]int
	initIdxOfOrd map[int]int

	// Macro-inlining dependencies recorded during the pristine compile.
	macroFuncs map[string][]int
	macroInits map[string][]int

	// Units touched by the current patch, restored on the next one.
	touchedFuncs []int
	touchedInits []int
	patchedMacro string

	// lastPatch is the fusion work of the most recent successful Patch.
	lastPatch BlockStats
}

// NewIncr compiles a checked pristine program against a concrete machine
// and retains everything needed to recompile single declarations.
// Recompiled units get the same fusion as Compile, so a patched
// declaration's observables — including step counts — match a
// from-scratch compile.
func NewIncr(prog *cast.Program, kern *kernel.Kernel, bus *hw.Bus,
	stubs *codegen.Stubs, m *Mach) *Incr {
	if m == nil {
		m = NewMach()
	}
	in := &Incr{
		mach:           m,
		funcIdxOfOrd:   make(map[int]int),
		initIdxOfOrd:   make(map[int]int),
		macroFuncs:     make(map[string][]int),
		macroInits:     make(map[string][]int),
		pristineMacros: make(map[string]macroRef),
	}
	c := newCompiler(prog, stubs)
	in.c = c
	c.registerDecls()
	for name, mr := range c.macros {
		in.pristineMacros[name] = mr
	}

	// Compile with dependency recording: every macro a unit inlines
	// (directly or through nested expansion — onMacro fires at each
	// resolution) adds the unit to that macro's recompile list, once.
	var (
		curKind unitKind
		curIdx  int
	)
	seen := make(map[string]bool)
	c.onMacro = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		switch curKind {
		case unitInit:
			in.macroInits[name] = append(in.macroInits[name], curIdx)
		case unitFunc:
			in.macroFuncs[name] = append(in.macroFuncs[name], curIdx)
		}
	}
	in.inits = c.compileInits(func(idx int) { curKind, curIdx = unitInit, idx; clear(seen) })
	c.compileFuncs(func(idx int) { curKind, curIdx = unitFunc, idx; clear(seen) })
	c.onMacro = nil

	// Map declaration order to compiled units (first declaration wins,
	// matching registerDecls).
	for i, fd := range c.funcDecls {
		if c.funcIdx[fd.Name] == i {
			in.funcIdxOfOrd[declOrd(prog, fd)] = i
		}
	}
	for i, step := range in.inits {
		in.initIdxOfOrd[step.declOrd] = i
		in.initDecls = append(in.initDecls, prog.Decls[step.declOrd].(*cast.VarDecl))
	}

	// Snapshot the pristine compiled artefacts.
	in.pristineFuncs = make([]cfunc, len(c.funcs))
	for i, f := range c.funcs {
		in.pristineFuncs[i] = *f
	}
	in.pristineInits = append([]initStep(nil), in.inits...)

	c.sizeMach(m)
	in.proc = c.newProc(kern, bus, stubs, m, in.inits)
	return in
}

// unitKind tags the compilation unit currently recording macro deps.
type unitKind int

const (
	unitInit unitKind = iota + 1
	unitFunc
)

// declOrd finds a declaration's index in the program.
func declOrd(prog *cast.Program, d cast.Decl) int {
	for i, pd := range prog.Decls {
		if pd == d {
			return i
		}
	}
	return -1
}

// revert restores every unit the previous Patch touched to its pristine
// compiled form.
func (in *Incr) revert() {
	for _, i := range in.touchedFuncs {
		*in.c.funcs[i] = in.pristineFuncs[i]
	}
	for _, i := range in.touchedInits {
		in.inits[i] = in.pristineInits[i]
	}
	if in.patchedMacro != "" {
		in.c.macros[in.patchedMacro] = in.pristineMacros[in.patchedMacro]
	}
	in.touchedFuncs = in.touchedFuncs[:0]
	in.touchedInits = in.touchedInits[:0]
	in.patchedMacro = ""
}

// recompileFunc compiles a function declaration into the stable cfunc at
// index idx, preserving the pointer every call site captured.
func (in *Incr) recompileFunc(idx int, d *cast.FuncDecl) {
	in.touchedFuncs = append(in.touchedFuncs, idx)
	nf := cfunc{name: d.Name, result: d.Result}
	in.c.compileFunc(&nf, d)
	*in.c.funcs[idx] = nf
}

// recompileInit rebuilds the initialiser step at index idx from a
// declaration (the mutated one, or the pristine one when a macro it
// inlines changed).
func (in *Incr) recompileInit(idx int, d *cast.VarDecl) {
	in.touchedInits = append(in.touchedInits, idx)
	step := in.pristineInits[idx]
	step.typ = d.Type
	step.def = defaultValue(d.Type)
	step.init = nil
	if d.Init != nil {
		step.init = in.c.expr(d.Init)
	}
	in.inits[idx] = step
}

// Patch recompiles declaration slot ord with the replacement decl and
// returns the Proc reset to its pre-Init state, ready for Init and the
// boot script. The previous patch is reverted first, so Patch(i, prist)
// is never needed to undo Patch(i, mutant). It fails only when d is not
// a declaration of the kind and name that slot ord holds.
func (in *Incr) Patch(ord int, d cast.Decl) (*Proc, error) {
	in.revert()
	before := in.c.stats
	switch d := d.(type) {
	case *cast.FuncDecl:
		idx, ok := in.funcIdxOfOrd[ord]
		if !ok {
			return nil, fmt.Errorf("declaration %d is not a compiled function", ord)
		}
		in.recompileFunc(idx, d)

	case *cast.MacroDecl:
		mr, ok := in.pristineMacros[d.Name]
		if !ok || mr.ord != ord {
			return nil, fmt.Errorf("declaration %d is not macro %q", ord, d.Name)
		}
		in.patchedMacro = d.Name
		in.c.macros[d.Name] = macroRef{ord: mr.ord, decl: d}
		// Every unit that inlined the macro holds its old body: recompile
		// them all from their pristine declarations.
		for _, fi := range in.macroFuncs[d.Name] {
			in.recompileFunc(fi, in.c.funcDecls[fi])
		}
		for _, ii := range in.macroInits[d.Name] {
			in.recompileInit(ii, in.initDecls[ii])
		}

	case *cast.VarDecl:
		idx, ok := in.initIdxOfOrd[ord]
		if !ok {
			return nil, fmt.Errorf("declaration %d is not a compiled global", ord)
		}
		in.recompileInit(idx, d)

	default:
		return nil, errors.New("unknown declaration kind")
	}

	// The mutated unit may need more frame slots or (defensively) new
	// coverage lines; regrow the pooled buffers like a fresh Compile
	// would, and re-sync in case the fallback path grew the shared Mach.
	in.c.sizeMach(in.mach)
	in.proc.st.stack = in.mach.stack[:cap(in.mach.stack)]
	in.proc.resetRun()
	in.lastPatch = in.c.stats.sub(before)
	return in.proc, nil
}

// PatchStats reports the fusion work the most recent successful Patch
// performed: the basic blocks, fused statements and I/O sites of just
// the recompiled units. The campaign engine feeds it into the
// driverlab_exec_blocks_* and driverlab_exec_io_sites_* counters.
func (in *Incr) PatchStats() BlockStats { return in.lastPatch }

// resetRun rewinds a Proc's mutable execution state to the moment
// Compile would have returned it: globals cleared, stack and call depth
// rewound, not yet initialised. The coverage bitset is reset by
// sizeMach.
func (p *Proc) resetRun() {
	for i := range p.st.globals {
		p.st.globals[i] = Value{}
	}
	p.st.sp = 0
	p.st.depth = 0
	p.st.declsReady = 0
	p.inited = false
}
