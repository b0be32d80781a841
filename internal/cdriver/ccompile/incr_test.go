package ccompile_test

import (
	"strings"
	"testing"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctypes"
)

// parseChecked parses and checks a plain-C source.
func parseChecked(t *testing.T, src string) (*cast.Program, *ctypes.Env) {
	t.Helper()
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	env := ctypes.NewEnv(false)
	if cerrs := ccheck.Check(prog, env); len(cerrs) != 0 {
		t.Fatalf("check: %v", cerrs)
	}
	return prog, env
}

// parseDecl parses a source holding exactly one declaration and checks
// it in the scope of prog (the splice discipline of the incremental
// front end).
func parseDecl(t *testing.T, prog *cast.Program, env *ctypes.Env, src string) cast.Decl {
	t.Helper()
	p, perrs := cparser.Parse(src)
	if len(perrs) != 0 || len(p.Decls) != 1 {
		t.Fatalf("replacement decl %q: %v (%d decls)", src, perrs, len(p.Decls))
	}
	d := p.Decls[0]
	idx := -1
	kindOf := func(d cast.Decl) string {
		switch d.(type) {
		case *cast.MacroDecl:
			return "macro"
		case *cast.VarDecl:
			return "var"
		}
		return "func"
	}
	name := func(d cast.Decl) string {
		switch d := d.(type) {
		case *cast.MacroDecl:
			return d.Name
		case *cast.VarDecl:
			return d.Name
		case *cast.FuncDecl:
			return d.Name
		}
		return ""
	}
	for i, pd := range prog.Decls {
		if name(pd) == name(d) && kindOf(pd) == kindOf(d) {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("replacement %q names no pristine declaration", src)
	}
	if errs := ccheck.NewScope(prog, env).CheckReplacement(idx, d); len(errs) != 0 {
		t.Fatalf("replacement %q does not check: %v", src, errs)
	}
	return d
}

func declIdx(t *testing.T, prog *cast.Program, name string) int {
	t.Helper()
	for i, d := range prog.Decls {
		switch d := d.(type) {
		case *cast.MacroDecl:
			if d.Name == name {
				return i
			}
		case *cast.VarDecl:
			if d.Name == name {
				return i
			}
		case *cast.FuncDecl:
			if d.Name == name {
				return i
			}
		}
	}
	t.Fatalf("no declaration %q", name)
	return -1
}

const incrSrc = `
#define STEP 3
#define BIG (STEP + 100)

int base = STEP;

int bump(int x) {
	return x + STEP;
}

int twice(int x) {
	return bump(x) + bump(x);
}

int total(void) {
	return base + twice(10);
}
`

// patchAndCall patches one declaration and compares the call against a
// from-scratch Compile of the equivalently spliced program.
func patchAndCall(t *testing.T, in *ccompile.Incr, prog *cast.Program, idx int,
	d cast.Decl, fn string, args ...cinterp.Value) cinterp.Value {
	t.Helper()
	p, err := in.Patch(idx, d)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if err := p.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	got, gerr := p.Call(fn, args...)

	spliced := &cast.Program{Decls: append([]cast.Decl(nil), prog.Decls...)}
	spliced.Decls[idx] = d
	ref := newRig()
	rp := ccompile.Compile(spliced, ref.kern, ref.bus, nil, nil)
	if err := rp.Init(); err != nil {
		t.Fatalf("reference init: %v", err)
	}
	want, werr := rp.Call(fn, args...)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("patched error %v, reference %v", gerr, werr)
	}
	if got != want {
		t.Fatalf("patched %s() = %+v, reference %+v", fn, got, want)
	}
	return got
}

func TestPatchFunctionInPlace(t *testing.T) {
	prog, env := parseChecked(t, incrSrc)
	r := newRig()
	in := ccompile.NewIncr(prog, r.kern, r.bus, nil, nil)

	// Callers of a patched function must reach the new body through
	// their existing compiled call sites.
	d := parseDecl(t, prog, env, "int bump(int x) {\n\treturn x - STEP;\n}")
	v := patchAndCall(t, in, prog, declIdx(t, prog, "bump"), d, "total")
	if v.I != 3+(10-3)*2 {
		t.Errorf("total with patched bump = %d, want 17", v.I)
	}

	// The next patch must first revert the previous one.
	d2 := parseDecl(t, prog, env, "int twice(int x) {\n\treturn bump(x) * 2;\n}")
	v = patchAndCall(t, in, prog, declIdx(t, prog, "twice"), d2, "total")
	if v.I != 3+(10+3)*2 {
		t.Errorf("total with patched twice (bump reverted) = %d, want 29", v.I)
	}
}

func TestPatchMacroRecompilesDependents(t *testing.T) {
	prog, env := parseChecked(t, incrSrc)
	r := newRig()
	in := ccompile.NewIncr(prog, r.kern, r.bus, nil, nil)

	// STEP is inlined into bump (a function), base (a global
	// initialiser) and BIG (transitively through twice? no — through
	// any function that uses BIG; here only the definition). Patching
	// it must recompile every dependent unit.
	d := parseDecl(t, prog, env, "#define STEP 5")
	v := patchAndCall(t, in, prog, declIdx(t, prog, "STEP"), d, "total")
	if v.I != 5+(10+5)*2 {
		t.Errorf("total with STEP=5 = %d, want 35", v.I)
	}

	// Patch something else: the macro must revert everywhere.
	d2 := parseDecl(t, prog, env, "int base = STEP + 1;")
	v = patchAndCall(t, in, prog, declIdx(t, prog, "base"), d2, "total")
	if v.I != 4+(10+3)*2 {
		t.Errorf("total with base=STEP+1 (STEP reverted) = %d, want 30", v.I)
	}
}

func TestPatchGlobalInitialiser(t *testing.T) {
	prog, env := parseChecked(t, incrSrc)
	r := newRig()
	in := ccompile.NewIncr(prog, r.kern, r.bus, nil, nil)
	d := parseDecl(t, prog, env, "int base = 40;")
	v := patchAndCall(t, in, prog, declIdx(t, prog, "base"), d, "total")
	if v.I != 40+(10+3)*2 {
		t.Errorf("total with base=40 = %d, want 66", v.I)
	}
}

// TestPatchIntoMacroCycle patches a macro body into an expansion cycle:
// the patch succeeds and the call fails exactly like a full Compile of
// the spliced program, and the Incr stays usable afterwards.
func TestPatchIntoMacroCycle(t *testing.T) {
	src := "#define A 1\n#define B (A + 1)\nint f(void) { return B; }\n"
	prog, _ := parseChecked(t, src)
	r := newRig()
	in := ccompile.NewIncr(prog, r.kern, r.bus, nil, nil)
	p, perrs := cparser.Parse("#define A (B + 1)")
	if len(perrs) != 0 {
		t.Fatal(perrs)
	}
	idx := declIdx(t, prog, "A")
	pp, err := in.Patch(idx, p.Decls[0])
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if err := pp.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	_, gerr := pp.Call("f")

	spliced := &cast.Program{Decls: append([]cast.Decl(nil), prog.Decls...)}
	spliced.Decls[idx] = p.Decls[0]
	ref := newRig()
	rp := ccompile.Compile(spliced, ref.kern, ref.bus, nil, nil)
	if err := rp.Init(); err != nil {
		t.Fatalf("reference init: %v", err)
	}
	_, werr := rp.Call("f")
	if gerr == nil || !strings.Contains(gerr.Error(), "macro expansion too deep") {
		t.Fatalf("cyclic macro call: err = %v, want the macro depth guard's crash", gerr)
	}
	if werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("patched error %v, reference %v", gerr, werr)
	}
	if !pp.Coverage().Equal(rp.Coverage()) || r.kern.Steps() != ref.kern.Steps() {
		t.Fatalf("patched steps %d, reference %d (or coverage differs)", r.kern.Steps(), ref.kern.Steps())
	}

	p2, _ := cparser.Parse("#define A 7")
	if v := patchAndCall(t, in, prog, idx, p2.Decls[0], "f"); v.I != 8 {
		t.Fatalf("f() after the cyclic patch = %d, want 8", v.I)
	}
}

func TestPatchStateResetBetweenBoots(t *testing.T) {
	src := "int counter;\nint tick(void) { counter = counter + 1; return counter; }\n"
	prog, env := parseChecked(t, src)
	r := newRig()
	in := ccompile.NewIncr(prog, r.kern, r.bus, nil, nil)
	d := parseDecl(t, prog, env, "int tick(void) { counter = counter + 2; return counter; }")
	idx := declIdx(t, prog, "tick")
	for boot := 0; boot < 3; boot++ {
		p, err := in.Patch(idx, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Init(); err != nil {
			t.Fatal(err)
		}
		v, err := p.Call("tick")
		if err != nil {
			t.Fatal(err)
		}
		if v.I != 2 {
			t.Fatalf("boot %d: tick() = %d, want 2 (globals must reset between patches)", boot, v.I)
		}
	}
}

func TestScopeCheckReplacementMatchesFullCheck(t *testing.T) {
	prog, env := parseChecked(t, incrSrc)
	scope := ccheck.NewScope(prog, env)
	cases := []struct {
		src  string
		want string // substring of the expected diagnostic; "" = clean
	}{
		{"int bump(int x) {\n\treturn x + STEP;\n}", ""},
		{"int bump(int x) {\n\treturn x + nosuch;\n}", "undeclared"},
		{"int bump(int x) {\n\treturn bump;\n}", "used as a value"},
		{"int base = missing;", "undeclared"},
		// Calls resolve through the whole program (callType consults
		// prog.Func), so a forward call in a global initialiser is clean
		// in the full check and must be clean incrementally too; only
		// plain identifier references are prefix-scoped.
		{"int base = bump(1);", ""},
		{"int base = bump;", "undeclared"},
		{"#define STEP 9", ""},
	}
	for _, tc := range cases {
		p, perrs := cparser.Parse(tc.src)
		if len(perrs) != 0 || len(p.Decls) != 1 {
			t.Fatalf("replacement %q: %v", tc.src, perrs)
		}
		d := p.Decls[0]
		var idx int
		switch d := d.(type) {
		case *cast.MacroDecl:
			idx = declIdx(t, prog, d.Name)
		case *cast.VarDecl:
			idx = declIdx(t, prog, d.Name)
		case *cast.FuncDecl:
			idx = declIdx(t, prog, d.Name)
		}
		errs := scope.CheckReplacement(idx, d)

		// Reference: full check of the spliced program.
		spliced, _ := cparser.Parse(incrSrc)
		spliced.Decls[idx] = d
		ferrs := ccheck.Check(spliced, ctypes.NewEnv(false))

		if len(errs) != len(ferrs) {
			t.Errorf("%q: incremental %d errors, full %d: %v vs %v", tc.src, len(errs), len(ferrs), errs, ferrs)
			continue
		}
		for i := range errs {
			if errs[i].Error() != ferrs[i].Error() {
				t.Errorf("%q: error %d differs:\nincremental: %v\nfull:        %v", tc.src, i, errs[i], ferrs[i])
			}
		}
		if tc.want == "" && len(errs) != 0 {
			t.Errorf("%q: unexpected errors %v", tc.src, errs)
		}
		if tc.want != "" && (len(errs) == 0 || !strings.Contains(errs[0].Error(), tc.want)) {
			t.Errorf("%q: errors %v, want one containing %q", tc.src, errs, tc.want)
		}
	}
}
