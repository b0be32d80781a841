package parser_test

import (
	"testing"

	"repro/internal/devil/ast"
	"repro/internal/devil/parser"
	"repro/internal/devil/token"
)

func mustParse(t *testing.T, src string) *ast.Device {
	t.Helper()
	dev, errs := parser.Parse(src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	return dev
}

func TestParseDeviceHeader(t *testing.T) {
	dev := mustParse(t, `device d (a : bit[8] port @ {0..3}, b : bit[16] port @ {0..0}) {
		register r = a @ 0 : bit[8];
		variable v = r : int(8);
	}`)
	if dev.Name != "d" || len(dev.Params) != 2 {
		t.Fatalf("header: %s, %d params", dev.Name, len(dev.Params))
	}
	p := dev.Params[1]
	if p.Name != "b" || p.DataBits != 16 || p.RangeLo != 0 || p.RangeHi != 0 {
		t.Errorf("param b = %+v", p)
	}
}

func TestParseRegisterForms(t *testing.T) {
	dev := mustParse(t, `device d (a : bit[8] port @ {0..3}) {
		register rw = a @ 0 : bit[8];
		register ro = read a @ 1 : bit[8];
		register wo = write a @ 2, mask '1..00000' : bit[8];
		register dual = read a @ 3, write a @ 3, pre {v = 2} : bit[8];
		variable v = wo[6..5] : int(2);
		variable x = rw # ro # dual : int(24);
	}`)
	rw := dev.Register("rw")
	if rw.Mode != ast.ReadWrite || rw.ReadPort != rw.WritePort {
		t.Errorf("rw register: %+v", rw)
	}
	ro := dev.Register("ro")
	if ro.Mode != ast.ReadOnly || ro.WritePort != nil {
		t.Errorf("ro register: mode %v", ro.Mode)
	}
	wo := dev.Register("wo")
	if wo.Mode != ast.WriteOnly || wo.Mask != "1..00000" {
		t.Errorf("wo register: %+v", wo)
	}
	dual := dev.Register("dual")
	if dual.Mode != ast.ReadWrite || dual.ReadPort == dual.WritePort {
		t.Errorf("dual register: %+v", dual)
	}
	if len(dual.Pre) != 1 || dual.Pre[0].Var != "v" || dual.Pre[0].Value != 2 {
		t.Errorf("pre-actions: %+v", dual.Pre)
	}
}

func TestMaskImpliesSize(t *testing.T) {
	dev := mustParse(t, `device d (a : bit[8] port @ {0..0}) {
		register r = a @ 0, mask '1.1.....';
		variable v = r[6] : bool;
		variable w = r[4..0] : int(5);
	}`)
	if r := dev.Register("r"); r.Size != 8 {
		t.Errorf("mask-implied size = %d, want 8", r.Size)
	}
}

func TestParseVariableForms(t *testing.T) {
	dev := mustParse(t, `device d (a : bit[8] port @ {0..1}) {
		register h = a @ 0 : bit[8];
		register l = a @ 1 : bit[8];
		private variable idx = h[7..6] : int(2);
		variable s = h[5..0] # l[7..2], volatile : signed int(12);
		variable f = l[1], write trigger : { ON => '1', OFF => '0' };
		variable g = l[0] : int {0, 1};
	}`)
	idx := dev.Variable("idx")
	if !idx.Private {
		t.Error("idx should be private")
	}
	s := dev.Variable("s")
	if !s.Volatile || len(s.Fragments) != 2 || !s.Type.Signed || s.Type.Bits != 12 {
		t.Errorf("variable s: %+v type %+v", s, s.Type)
	}
	if s.Fragments[0].String() != "h[5..0]" || s.Fragments[1].String() != "l[7..2]" {
		t.Errorf("fragments: %v %v", s.Fragments[0], s.Fragments[1])
	}
	f := dev.Variable("f")
	if !f.WriteTrigger || f.Type.Kind != ast.TypeEnum || len(f.Type.Cases) != 2 {
		t.Errorf("variable f: %+v", f)
	}
	if f.Type.Cases[0].Dir != token.MapTo {
		t.Errorf("enum dir = %v", f.Type.Cases[0].Dir)
	}
	g := dev.Variable("g")
	if g.Type.Kind != ast.TypeIntSet || len(g.Type.Set) != 2 {
		t.Errorf("variable g: %+v", g.Type)
	}
}

func TestIntSetRangeExpansion(t *testing.T) {
	dev := mustParse(t, `device d (a : bit[8] port @ {0..0}) {
		register r = a @ 0, mask '00000...';
		variable v = r[2..0] : int {0..2, 5};
	}`)
	set := dev.Variable("v").Type.Set
	want := []int64{0, 1, 2, 5}
	if len(set) != len(want) {
		t.Fatalf("set = %v, want %v", set, want)
	}
	for i := range want {
		if set[i] != want[i] {
			t.Errorf("set[%d] = %d, want %d", i, set[i], want[i])
		}
	}
}

func TestParseErrorRecovery(t *testing.T) {
	// A malformed register declaration must not take the following
	// declarations down with it.
	src := `device d (a : bit[8] port @ {0..1}) {
		register broken = = : bit[8];
		register ok = a @ 1 : bit[8];
		variable v = ok : int(8);
	}`
	dev, errs := parser.Parse(src)
	if len(errs) == 0 {
		t.Fatal("no errors for malformed declaration")
	}
	if dev.Register("ok") == nil {
		t.Error("parser did not recover to the next declaration")
	}
}

func TestParseErrorCases(t *testing.T) {
	cases := []string{
		``,
		`device`,
		`device d`,
		`device d () {}`, // no params is a check error but header must parse
		`device d (a : bit[8] port @ {0..1}) { junk; }`,   // bad declaration
		`device d (a : bit[8] port @ {0..1}) {} trailing`, // trailing tokens
		`device d (a : bit[8]) {}`,                        // missing port clause
	}
	for _, src := range cases[:3] {
		if _, errs := parser.Parse(src); len(errs) == 0 {
			t.Errorf("%q parsed without errors", src)
		}
	}
	for _, src := range cases[4:] {
		if _, errs := parser.Parse(src); len(errs) == 0 {
			t.Errorf("%q parsed without errors", src)
		}
	}
}

// TestIntSetRangeBounded: a range expanding past the set bound is an
// error, not an allocation of billions of values; a small range ending at
// the top of the integer range expands without wrapping around.
func TestIntSetRangeBounded(t *testing.T) {
	spec := func(set string) string {
		return `device d (a : bit[8] port @ {0..0}) {
			register r = a @ 0 : bit[8];
			variable v = r : int {` + set + `};
		}`
	}
	if _, errs := parser.Parse(spec("0..4294967295")); len(errs) == 0 {
		t.Error("oversized range parsed without errors")
	}
	dev := mustParse(t, spec("9223372036854775806..9223372036854775807"))
	if set := dev.Variable("v").Type.Set; len(set) != 2 || set[1] != 9223372036854775807 {
		t.Errorf("set = %v", set)
	}
}
