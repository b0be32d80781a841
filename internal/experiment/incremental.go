package experiment

import (
	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/cincr"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
	"repro/internal/cdriver/ctypes"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// This file is the incremental front end of one boot: with a
// BootInput.Mutation the per-mutant work shrinks from "re-lex, re-parse,
// re-check and re-compile the whole driver" to "re-run the front end on
// the one declaration span containing the mutated token". The pristine
// driver is parsed, checked and (on the block backend) compiled once
// per worker configuration; each mutant then costs one span re-parse,
// one declaration re-check, and one in-place declaration recompile.
// Anything the span analysis cannot prove equivalent (cincr.ErrSpanUnsafe)
// falls back to the full front end on the materialised mutated stream,
// so observable behaviour is identical by construction — and verified
// mutant-by-mutant by the differential oracle.

// incrKey identifies one incremental pipeline: the pristine source plus
// everything the check and compile depend on. A campaign worker boots
// one configuration, so the map holds one entry per driver in practice.
type incrKey struct {
	src        *cincr.Source
	devil      bool
	permissive bool
	mode       codegen.Mode
	backend    Backend
}

// incrState is the per-worker pristine pipeline of one configuration:
// the parsed and checked pristine AST, the collected check scope, the
// cached stubs/env, and — for the block backend — the incremental
// compiler with its in-place patching tables.
type incrState struct {
	src   *cincr.Source
	prog  *cast.Program
	scope *ccheck.Scope
	env   *ctypes.Env
	stubs *codegen.Stubs
	inc   *ccompile.Incr // nil on the interp backend (or ErrUnsupported pristine)

	// scratch is the span re-parse buffer, reused across boots.
	scratch []ctoken.Token
	// spliceDecls is the declaration list of the spliced program, reused
	// across boots (only one boot is alive per worker at a time).
	spliceDecls []cast.Decl

	// bad marks a configuration whose pristine setup failed; every boot
	// then uses the full front end.
	bad bool
}

// incrFor returns (building on first use) the incremental state for a
// boot configuration, or nil when the configuration cannot use the
// incremental front end.
func (c *execCaches) incrFor(kern *kernel.Kernel, bus *hw.Bus,
	generate func(codegen.Mode) (*codegen.Stubs, error), input BootInput) (*incrState, error) {
	mode := input.StubMode
	if mode == 0 {
		mode = codegen.Debug
	}
	key := incrKey{
		src:        input.Mutation.Src,
		devil:      input.Devil,
		permissive: input.Permissive,
		mode:       mode,
		backend:    input.Backend,
	}
	if st, ok := c.incr[key]; ok {
		if st.bad {
			return nil, nil
		}
		if st.stubs != nil {
			st.stubs.Reset() // power-on state, as stubsFor gives the full path
		}
		return st, nil
	}
	st := &incrState{src: input.Mutation.Src}

	if input.Devil {
		stubs, err := c.stubsFor(mode, generate)
		if err != nil {
			return nil, err // transient harness error: not cached
		}
		st.stubs = stubs
	}
	env, err := c.envFor(input, st.stubs)
	if err != nil {
		return nil, err
	}
	st.env = env

	// Parse and check the pristine stream once. The mutation model
	// requires a clean pristine driver; anything else permanently
	// disables the incremental path for this configuration.
	prog, perrs := cparser.ParseTokens(st.src.Tokens)
	if len(perrs) > 0 || len(prog.Decls) != len(st.src.Spans) {
		st.bad = true
	} else if cerrs := ccheck.Check(prog, env); len(cerrs) > 0 {
		st.bad = true
	} else {
		st.prog = prog
		st.scope = ccheck.NewScope(prog, env)
		st.spliceDecls = make([]cast.Decl, len(prog.Decls))
		if input.Backend != BackendInterp {
			// The pristine compile binds this machine's kernel, bus and
			// stub accessors once; a compile rejection (ErrUnsupported)
			// leaves inc nil and every incremental boot uses the
			// interpreter, exactly as the full path's per-boot fallback
			// would.
			if inc, err := ccompile.NewIncr(prog, kern, bus, st.stubs, c.exec); err == nil {
				st.inc = inc
			}
		}
	}
	c.incr[key] = st
	if st.bad {
		return nil, nil
	}
	return st, nil
}

// splice overlays the replacement declaration on the pristine AST. The
// returned program reuses the state's declaration buffer: it is valid
// until the next splice on this worker, which is after the current boot
// has finished with it.
func (st *incrState) splice(declIdx int, d cast.Decl) *cast.Program {
	copy(st.spliceDecls, st.prog.Decls)
	st.spliceDecls[declIdx] = d
	return &cast.Program{Decls: st.spliceDecls}
}

// buildIncremental is the incremental counterpart of buildEngine's full
// pipeline. done=false means the mutation was span-unsafe (or the
// configuration cannot run incrementally) and the caller must fall back
// to the full front end; the semantics of ex/res/err otherwise match
// buildEngine exactly.
func (c *execCaches) buildIncremental(r *Rig, input BootInput) (ex Engine, res *BootResult, done bool, err error) {
	kern := r.Kern
	st, err := c.incrFor(kern, r.Bus, r.Stubs, input)
	if err != nil {
		return nil, nil, false, err
	}
	if st == nil {
		return nil, nil, false, nil
	}

	o := c.obs
	mut := input.Mutation
	tr := o.respan.Start()
	scratch, declIdx, decl, rerr := st.src.Respan(st.scratch, mut.Index, mut.Replacement)
	tr.Stop()
	st.scratch = scratch
	if rerr != nil {
		return nil, nil, false, nil // ErrSpanUnsafe: full front end
	}

	res = &BootResult{}
	if input.Budget > 0 {
		kern.SetBudget(input.Budget)
	}
	tc := o.check.Start()
	cerrs := st.scope.CheckReplacement(declIdx, decl)
	tc.Stop()
	if len(cerrs) > 0 {
		for _, e := range cerrs {
			res.CompileErrors = append(res.CompileErrors, e)
		}
		return nil, res, true, nil
	}

	// Build the engine: patch the incremental compile in place, falling
	// back to the interpreter over the spliced AST exactly where the full
	// path would (interp backend, or a compile rejection).
	tb := o.compile.Start()
	if input.Backend != BackendInterp && st.inc != nil {
		p, cerr := st.inc.Patch(declIdx, decl)
		if cerr == nil {
			o.addBlockStats(st.inc.PatchStats())
			ierr := p.Init()
			tb.Stop()
			if ierr != nil {
				res.Outcome = kernel.Classify(ierr)
				res.RunErr = ierr
				return nil, res, true, nil
			}
			return p, res, true, nil
		}
	}
	if input.Backend != BackendInterp {
		// Block backend requested, interpreter executing: the pristine
		// compile was rejected (inc == nil) or the patch was.
		o.interpFallback.Inc()
	}
	in, runErr := cinterp.New(st.splice(declIdx, decl), st.env, kern, r.Bus, st.stubs)
	tb.Stop()
	if runErr != nil {
		// Global initialiser fault: machine-level failure at insmod time.
		res.Outcome = kernel.Classify(runErr)
		res.RunErr = runErr
		return nil, res, true, nil
	}
	return in, res, true, nil
}
