package experiment

import (
	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/cincr"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// This file is the block backend's incremental front end: with a
// BootInput.Mutation the per-mutant work shrinks from "re-lex, re-parse,
// re-check and re-compile the whole driver" to "re-run the front end on
// the one declaration span containing the mutated token". The pristine
// driver is parsed, checked and compiled once per worker configuration;
// each mutant then costs one span re-parse, one declaration re-check,
// and one in-place declaration recompile. Anything the span analysis
// cannot prove equivalent (cincr.ErrSpanUnsafe) falls back to the full
// front end on the materialised mutated stream. The interp oracle never
// comes here: it boots every mutant through the full front end, so the
// differential oracle and the golden records check this file against
// an independent parse, check and interpretation of each mutant.

// incrKey identifies one incremental pipeline: the pristine source plus
// everything the check and compile depend on. A campaign worker boots
// one configuration, so the map holds one entry per driver in practice.
type incrKey struct {
	src        *cincr.Source
	devil      bool
	permissive bool
	mode       codegen.Mode
}

// incrState is the per-worker pristine pipeline of one configuration:
// the check scope collected from the pristine AST, the cached stubs,
// and the incremental compiler with its in-place patching tables.
type incrState struct {
	src   *cincr.Source
	scope *ccheck.Scope
	stubs *codegen.Stubs
	inc   *ccompile.Incr

	// scratch is the span re-parse buffer, reused across boots.
	scratch []ctoken.Token

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

	// Parse and check the pristine stream once. The mutation model
	// requires a clean pristine driver; anything else permanently
	// disables the incremental path for this configuration.
	prog, perrs := cparser.ParseTokens(st.src.Tokens)
	if len(perrs) > 0 || len(prog.Decls) != len(st.src.Spans) {
		st.bad = true
	} else if cerrs := ccheck.Check(prog, env); len(cerrs) > 0 {
		st.bad = true
	} else {
		st.scope = ccheck.NewScope(prog, env)
		// The pristine compile binds this machine's kernel, bus and stub
		// accessors once.
		st.inc = ccompile.NewIncr(prog, kern, bus, st.stubs, c.exec)
	}
	c.incr[key] = st
	if st.bad {
		return nil, nil
	}
	return st, nil
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

	// Build the engine: patch the incremental compile in place.
	tb := o.compile.Start()
	p, err := st.inc.Patch(declIdx, decl)
	if err != nil {
		tb.Stop()
		return nil, nil, false, err
	}
	o.addBlockStats(st.inc.PatchStats())
	err = p.Init()
	tb.Stop()
	if err != nil {
		// Global initialiser fault: machine-level failure at insmod time.
		res.Outcome = kernel.Classify(err)
		res.RunErr = err
		return nil, res, true, nil
	}
	return p, res, true, nil
}
