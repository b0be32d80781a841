package ccompile

import (
	"reflect"
	"testing"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cparser"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// These tests pin the block backend's invalidation contract from inside
// the package: Incr.Patch must recompile — and therefore re-fuse —
// exactly the declarations the patch touches. Everything else must keep
// its compiled body, byte for byte the same slice, because every call
// site captured those *cfunc pointers at pristine-compile time.

const blocksSrc = `#define LIMIT 3

int counter;

int helper(int x) {
    int y = x + 1;
    y = y * 2;
    return y;
}

int target(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc = acc + helper(i);
    }
    return acc;
}

int uses_macro(void) {
    int a = LIMIT;
    int b = a + LIMIT;
    return b;
}
`

// bodyPtr identifies a compiled function body by its slice data pointer:
// equal pointers mean Patch left the compiled closures untouched.
func bodyPtr(f *cfunc) uintptr { return reflect.ValueOf(f.body).Pointer() }

func parseProg(t *testing.T, src string) *cast.Program {
	t.Helper()
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	return prog
}

// declIdx finds the program index of a named declaration.
func declIdx(t *testing.T, prog *cast.Program, name string) int {
	t.Helper()
	for i, d := range prog.Decls {
		switch d := d.(type) {
		case *cast.FuncDecl:
			if d.Name == name {
				return i
			}
		case *cast.MacroDecl:
			if d.Name == name {
				return i
			}
		case *cast.VarDecl:
			if d.Name == name {
				return i
			}
		}
	}
	t.Fatalf("no declaration %q", name)
	return -1
}

func newBlocksIncr(t *testing.T, prog *cast.Program) *Incr {
	t.Helper()
	bus := hw.NewBus()
	bus.SetFloating(true)
	return NewIncr(prog, kernel.New(&hw.Clock{}), bus, nil, nil)
}

// TestBlocksPatchInvalidatesOnlyTarget: patching one function swaps that
// function's fused blocks and nothing else's.
func TestBlocksPatchInvalidatesOnlyTarget(t *testing.T) {
	prog := parseProg(t, blocksSrc)
	in := newBlocksIncr(t, prog)

	if s := in.proc.Stats(); s.Blocks == 0 || s.FusedStmts < s.Blocks {
		t.Fatalf("pristine block compile produced no fused blocks: %+v", s)
	}
	pristine := make(map[string]uintptr)
	for _, f := range in.c.funcs {
		pristine[f.name] = bodyPtr(f)
	}

	repl := parseProg(t, `int helper(int x) {
    int y = x + 2;
    y = y * 3;
    return y;
}`).Decls[0]
	proc, err := in.Patch(declIdx(t, prog, "helper"), repl)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range in.c.funcs {
		changed := bodyPtr(f) != pristine[f.name]
		if f.name == "helper" && !changed {
			t.Error("patched function kept its pristine compiled body")
		}
		if f.name != "helper" && changed {
			t.Errorf("%s recompiled by a patch that did not touch it", f.name)
		}
	}
	if s := in.PatchStats(); s.Blocks == 0 || s.FusedStmts < s.Blocks {
		t.Errorf("PatchStats = %+v, want the patched function's fused blocks", s)
	}

	// The patched blocks must be live: helper(1) is now (1+2)*3 = 9.
	if err := proc.Init(); err != nil {
		t.Fatal(err)
	}
	v, err := proc.Call("helper", intValue(1))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 9 {
		t.Errorf("patched helper(1) = %d, want 9", v.I)
	}

	// The next patch reverts the last: helper's pristine body (the very
	// slice compiled at construction) must come back.
	if _, err := in.Patch(declIdx(t, prog, "counter"),
		parseProg(t, "int counter = 1;").Decls[0]); err != nil {
		t.Fatal(err)
	}
	for _, f := range in.c.funcs {
		if bodyPtr(f) != pristine[f.name] {
			t.Errorf("%s not restored to its pristine compiled body after revert", f.name)
		}
	}
}

// TestBlocksMacroPatchInvalidatesDependents: patching a macro recompiles
// exactly the functions that inlined it.
func TestBlocksMacroPatchInvalidatesDependents(t *testing.T) {
	prog := parseProg(t, blocksSrc)
	in := newBlocksIncr(t, prog)
	pristine := make(map[string]uintptr)
	for _, f := range in.c.funcs {
		pristine[f.name] = bodyPtr(f)
	}

	repl := parseProg(t, "#define LIMIT 5\n").Decls[0]
	proc, err := in.Patch(declIdx(t, prog, "LIMIT"), repl)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range in.c.funcs {
		changed := bodyPtr(f) != pristine[f.name]
		if f.name == "uses_macro" && !changed {
			t.Error("macro dependent kept its pristine compiled body")
		}
		if f.name != "uses_macro" && changed {
			t.Errorf("%s recompiled by a macro patch it never inlined", f.name)
		}
	}
	if s := in.PatchStats(); s.Blocks == 0 {
		t.Errorf("PatchStats = %+v, want the dependents' fused blocks", s)
	}
	if err := proc.Init(); err != nil {
		t.Fatal(err)
	}
	v, err := proc.Call("uses_macro")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 10 {
		t.Errorf("uses_macro() after LIMIT=5 patch = %d, want 10", v.I)
	}
}
