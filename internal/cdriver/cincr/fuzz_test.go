package cincr

import (
	"testing"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/clexer"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
)

// FuzzRespanMatchesFullParse fuzzes the incremental front end's core
// invariant over arbitrary sources and arbitrary single-token
// replacements: whenever Respan accepts a mutation, splicing its
// declaration into the pristine AST must yield exactly the program a
// full parse of the materialised stream yields; everything else must be
// ErrSpanUnsafe. The seed corpus covers every span kind, span-boundary
// tokens, and replacement kinds the mutation operators produce plus
// structural ones they never do.
func FuzzRespanMatchesFullParse(f *testing.F) {
	seeds := []struct {
		src  string
		idx  int
		kind int
		lit  string
	}{
		{miniDriver, 0, int(ctoken.Ident), "oops"},    // first token
		{miniDriver, 2, int(ctoken.DecInt), "497"},    // macro body literal
		{miniDriver, 1, int(ctoken.Ident), "RENAMED"}, // macro name
		{miniDriver, 40, int(ctoken.Or), "|"},         // operator swap
		{miniDriver, 40, int(ctoken.RBrace), "}"},     // structural replacement
		{miniDriver, 9999, int(ctoken.Semi), ";"},     // out of range
		{"int x = 2;", 3, int(ctoken.DecInt), "3"},    // var initialiser
		{"int f(void) { return 1; }", 8, int(ctoken.DecInt), "0"},
		{"int f(void) { return 1; }", 12, int(ctoken.Semi), ";"}, // last token
		{"#define A 1\nint g(void) { return A; }", 2, int(ctoken.Ident), "g"},
		{"int h(int a) { return a; }", 5, int(ctoken.Ident), "b"},
		{"#define A 0", 2, int(ctoken.HexInt), "0"}, // shorter than its 0x prefix
		{"#define A 0", 2, int(ctoken.OctInt), "u"}, // empty once the suffix goes
	}
	for _, s := range seeds {
		f.Add(s.src, s.idx, s.kind, s.lit)
	}
	f.Fuzz(func(t *testing.T, src string, idx int, kind int, lit string) {
		toks, lerrs := clexer.Lex(src)
		if len(lerrs) > 0 || len(toks) == 0 {
			t.Skip()
		}
		s, err := Analyze(toks)
		if err != nil {
			t.Skip() // outside the recognised shape: full pipeline territory
		}
		at := ctoken.Token{Kind: ctoken.Semi}
		if idx >= 0 && idx < len(toks) {
			at = toks[idx]
		}
		repl := ctoken.Token{Kind: ctoken.Kind(kind), Lit: lit, Pos: at.Pos, Tagged: at.Tagged}

		_, declIdx, decl, rerr := s.Respan(nil, idx, repl)
		mut := &Mutation{Src: s, Index: idx, Replacement: repl}
		full, perrs := cparser.ParseTokens(mut.Apply())
		if rerr != nil {
			return // fallback path: the full pipeline is authoritative
		}
		if len(perrs) > 0 {
			t.Fatalf("Respan accepted a mutation the full parse rejects: src=%q idx=%d repl=%v: %v",
				src, idx, repl, perrs[0])
		}
		pristine, _ := cparser.ParseTokens(toks)
		spliced := &cast.Program{Decls: append([]cast.Decl(nil), pristine.Decls...)}
		spliced.Decls[declIdx] = decl
		if got, want := dumpProgram(spliced), dumpProgram(full); got != want {
			t.Fatalf("incremental/full divergence: src=%q idx=%d repl=%v\n--- incremental\n%s\n--- full\n%s",
				src, idx, repl, got, want)
		}
	})
}
