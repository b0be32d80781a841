package cmut_test

import (
	"strings"
	"testing"

	"repro/internal/cdriver/clexer"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil/codegen"
	"repro/internal/mutation/cmut"
)

const sampleDriver = `
#define PORT 0x1f0
#define MASK 0x80
int helper(int x) { return x; }
int outside_region(void) { return PORT + 1; }
int f(int n) {
    int t = 0;
    //@hw
    while ((inb(PORT) & MASK) != 0) {
        t++;
        if (t > 100) { return 1; }
    }
    //@endhw
    return helper(t);
}
`

func enumerate(t *testing.T, src string, opts cmut.Options) *cmut.Result {
	t.Helper()
	toks, errs := clexer.Lex(src)
	if len(errs) != 0 {
		t.Fatalf("lex: %v", errs)
	}
	res, err := cmut.Enumerate(toks, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOnlyTaggedRegionsMutated(t *testing.T) {
	res := enumerate(t, sampleDriver, cmut.Options{})
	for _, s := range res.Sites {
		tok := res.Tokens[s.Index]
		if !tok.Tagged {
			t.Errorf("site outside tagged region: %v at %v", tok, s.Pos)
		}
	}
	if len(res.Sites) == 0 {
		t.Fatal("no sites found")
	}
}

func TestSiteKinds(t *testing.T) {
	res := enumerate(t, sampleDriver, cmut.Options{})
	kinds := map[cmut.SiteKind]int{}
	for _, s := range res.Sites {
		kinds[s.Kind]++
	}
	if kinds[cmut.SiteLiteral] == 0 || kinds[cmut.SiteOperator] == 0 ||
		kinds[cmut.SiteIdent] == 0 {
		t.Errorf("missing site kinds: %v", kinds)
	}
}

func TestMutantsAreSingleTokenSwaps(t *testing.T) {
	res := enumerate(t, sampleDriver, cmut.Options{})
	for _, m := range res.Mutants[:50] {
		applied := res.Apply(m)
		if len(applied) != len(res.Tokens) {
			t.Fatal("token count changed")
		}
		diffs := 0
		for i := range applied {
			if applied[i].Lit != res.Tokens[i].Lit || applied[i].Kind != res.Tokens[i].Kind {
				diffs++
				if i != m.TokenIndex {
					t.Errorf("mutant %d changed token %d, expected %d", m.ID, i, m.TokenIndex)
				}
			}
		}
		if diffs != 1 {
			t.Errorf("mutant %d changed %d tokens", m.ID, diffs)
		}
	}
}

// TestMutantsParse: every generated mutant must be syntactically correct
// (§3.1: "mutation rules are always defined such that mutants are
// syntactically correct").
func TestMutantsParse(t *testing.T) {
	res := enumerate(t, sampleDriver, cmut.Options{})
	for _, m := range res.Mutants {
		if _, errs := cparser.ParseTokens(res.Apply(m)); len(errs) != 0 {
			t.Errorf("mutant %q does not parse: %v", m.Description, errs[0])
		}
	}
}

func TestIdentifierPoolScoping(t *testing.T) {
	res := enumerate(t, sampleDriver, cmut.Options{})
	// Find a mutant of the identifier "t" inside the tagged region: the
	// replacement pool must include macros and in-scope locals but not
	// declaration sites themselves.
	var repls []string
	for _, m := range res.Mutants {
		tok := res.Tokens[m.TokenIndex]
		if tok.Lit == "t" && res.Sites[m.SiteIndex].Kind == cmut.SiteIdent {
			repls = append(repls, m.Replacement.Lit)
		}
	}
	if len(repls) == 0 {
		t.Fatal("no identifier mutants of t")
	}
	pool := strings.Join(repls, " ")
	for _, want := range []string{"PORT", "MASK", "n", "helper", "f"} {
		if !strings.Contains(pool, want) {
			t.Errorf("pool misses %q: %v", want, repls)
		}
	}
	for _, m := range res.Mutants {
		if m.Replacement.Lit == "t" && res.Tokens[m.TokenIndex].Lit == "t" {
			t.Error("identity replacement generated")
		}
	}
}

func TestDeclarationSitesExcluded(t *testing.T) {
	src := `
//@hw
#define A 1
#define B 2
int f(void) { return A + B; }
//@endhw
`
	res := enumerate(t, src, cmut.Options{})
	for _, s := range res.Sites {
		if s.Kind != cmut.SiteIdent {
			continue
		}
		tok := res.Tokens[s.Index]
		// Declaration names follow #define; uses are inside f.
		if s.Index > 0 && res.Tokens[s.Index-1].Kind == ctoken.HashDefine {
			t.Errorf("macro declaration name %q is a site", tok.Lit)
		}
	}
}

func TestOperatorClassesAreClosed(t *testing.T) {
	// Every replacement of a mutable operator is itself mutable (swaps
	// stay within the world of Table 1).
	for op, repls := range cmut.OperatorClasses {
		for _, r := range repls {
			if r == op {
				t.Errorf("%v lists itself as a replacement", op)
			}
			if _, ok := cmut.OperatorClasses[r]; !ok {
				t.Errorf("%v -> %v leaves the rule table", op, r)
			}
		}
	}
}

func TestLiteralSemanticFilter(t *testing.T) {
	// Literal mutants must change the value: "0" has no single-digit
	// replacement producing 0 again, and "07" != "7" is false (same
	// value), so such texts are filtered.
	src := "//@hw\n#define V 7\n//@endhw\nint f(void) { return V; }"
	res := enumerate(t, src, cmut.Options{})
	for _, m := range res.Mutants {
		if res.Sites[m.SiteIndex].Kind != cmut.SiteLiteral {
			continue
		}
		if m.Replacement.Lit == "07" {
			t.Errorf("value-preserving mutant generated: %s", m.Description)
		}
	}
}

func TestCDevilClassRestriction(t *testing.T) {
	iface := &codegen.Interface{
		Consts: map[string]string{"MASTER": "Drive", "SLAVE": "Drive", "BUSY": "Busy"},
		Vars: []codegen.VarSig{
			{Name: "Drive", Readable: true, Writable: true, Kind: codegen.KindEnum,
				Consts: []string{"MASTER", "SLAVE"}},
			{Name: "Busy", Readable: true, Kind: codegen.KindEnum, Consts: []string{"BUSY"}},
			{Name: "SectorCount", Writable: true, Kind: codegen.KindInt},
		},
	}
	src := `
#define LIMIT 10
#define RETRIES 3
int f(void) {
    //@hw
    set_Drive(MASTER);
    set_SectorCount(LIMIT);
    if (dil_eq(get_Drive(), SLAVE)) { return 1; }
    //@endhw
    return 0;
}`
	res := enumerate(t, src, cmut.Options{Interface: iface})
	classOf := map[string]cmut.IdentClass{}
	replsOf := map[string][]string{}
	for _, m := range res.Mutants {
		tok := res.Tokens[m.TokenIndex]
		site := res.Sites[m.SiteIndex]
		if site.Kind != cmut.SiteIdent {
			continue
		}
		classOf[tok.Lit] = site.Class
		replsOf[tok.Lit] = append(replsOf[tok.Lit], m.Replacement.Lit)
	}
	if classOf["MASTER"] != cmut.ClassConst {
		t.Errorf("MASTER class = %v", classOf["MASTER"])
	}
	if classOf["set_Drive"] != cmut.ClassSetter {
		t.Errorf("set_Drive class = %v", classOf["set_Drive"])
	}
	if classOf["get_Drive"] != cmut.ClassGetter {
		t.Errorf("get_Drive class = %v", classOf["get_Drive"])
	}
	if classOf["LIMIT"] != cmut.ClassMacro {
		t.Errorf("LIMIT class = %v", classOf["LIMIT"])
	}
	// Setter swaps stay among setters.
	for _, r := range replsOf["set_Drive"] {
		if !strings.HasPrefix(r, "set_") {
			t.Errorf("set_Drive replaced by non-setter %q", r)
		}
	}
	// Constants swap only with constants.
	for _, r := range replsOf["MASTER"] {
		if r != "SLAVE" && r != "BUSY" {
			t.Errorf("MASTER replaced by %q", r)
		}
	}
}

func TestEnumerateRejectsBrokenSource(t *testing.T) {
	toks, _ := clexer.Lex("int f( {")
	if _, err := cmut.Enumerate(toks, cmut.Options{}); err == nil {
		t.Error("broken source enumerated")
	}
}
