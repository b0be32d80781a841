// Package cincr is the incremental front end of the hwC pipeline: the
// span analysis that lets a mutant boot re-run the lexer-to-compiler
// chain on one top-level declaration instead of the whole driver.
//
// The mutation model of the paper guarantees that a mutant differs from
// the pristine driver in exactly one token. Analyze therefore splits the
// pristine token stream once per driver into per-declaration spans — one
// per #define, file-scope variable and function — and Respan re-parses
// only the span containing the mutated token, yielding a fresh
// declaration the caller re-checks against the pristine file scope
// (ccheck.Scope) and recompiles in place (ccompile.Incr).
//
// The analysis is conservative: anything it cannot prove behaves exactly
// like a full recompile is reported as ErrSpanUnsafe, and the caller
// falls back to the full front end on the materialised mutated stream.
// That covers span-boundary mutations (a replaced `}` or `#define`
// token), replacements that change a declaration's parse (a new name, a
// second declaration, a syntax error — whose authoritative error list
// must come from the full parse), and streams whose top-level structure
// the splitter does not recognise.
package cincr

import (
	"errors"
	"fmt"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
)

// ErrSpanUnsafe reports a mutation the incremental front end cannot
// prove equivalent to a full recompile; the caller must materialise the
// mutated stream and run the full pipeline instead.
var ErrSpanUnsafe = errors.New("mutation not confined to a recompilable span")

// SpanKind classifies a top-level span.
type SpanKind int

// Span kinds, mirroring the three top-level declaration forms.
const (
	SpanMacro SpanKind = iota + 1
	SpanVar
	SpanFunc
)

// String names the kind.
func (k SpanKind) String() string {
	switch k {
	case SpanMacro:
		return "macro"
	case SpanVar:
		return "var"
	case SpanFunc:
		return "func"
	}
	return fmt.Sprintf("SpanKind(%d)", int(k))
}

// Span is the token range [Start, End) of one top-level declaration.
// Spans partition the stream: span i covers declaration i of the parsed
// program, Analyze verifies the correspondence.
type Span struct {
	Start, End int
	Kind       SpanKind
	// Name is the declared name, used to verify that a respan did not
	// change the program's global surface.
	Name string
}

// Source is the pristine analysis of one driver: the token stream and
// its span partition. A Source is immutable after Analyze and safe to
// share across campaign workers.
type Source struct {
	Tokens []ctoken.Token
	Spans  []Span
	// spanIdx maps a token index to its span index.
	spanIdx []int32
}

// Analyze splits a pristine token stream into declaration spans and
// verifies them against a full parse: the stream must parse cleanly and
// yield exactly one declaration per span, with matching kind and name.
// An error means the stream is outside the recognised shape and the
// caller should keep using the full front end for every mutant.
func Analyze(toks []ctoken.Token) (*Source, error) {
	s := &Source{Tokens: toks, spanIdx: make([]int32, len(toks))}
	i := 0
	for i < len(toks) {
		sp, err := scanSpan(toks, i)
		if err != nil {
			return nil, err
		}
		for j := sp.Start; j < sp.End; j++ {
			s.spanIdx[j] = int32(len(s.Spans))
		}
		s.Spans = append(s.Spans, sp)
		i = sp.End
	}

	// Cross-check against the real parser: same declaration count, kinds
	// and names, so a respan of span i is guaranteed to replace exactly
	// declaration i.
	prog, perrs := cparser.ParseTokens(toks)
	if len(perrs) > 0 {
		return nil, fmt.Errorf("cincr: pristine stream does not parse: %v", perrs[0])
	}
	if len(prog.Decls) != len(s.Spans) {
		return nil, fmt.Errorf("cincr: %d spans but %d declarations", len(s.Spans), len(prog.Decls))
	}
	for i, d := range prog.Decls {
		kind, name := declShape(d)
		if kind != s.Spans[i].Kind || name != s.Spans[i].Name {
			return nil, fmt.Errorf("cincr: span %d is %s %q but declaration is %s %q",
				i, s.Spans[i].Kind, s.Spans[i].Name, kind, name)
		}
	}
	return s, nil
}

// declShape reports a declaration's span kind and name.
func declShape(d cast.Decl) (SpanKind, string) {
	switch d := d.(type) {
	case *cast.MacroDecl:
		return SpanMacro, d.Name
	case *cast.VarDecl:
		return SpanVar, d.Name
	case *cast.FuncDecl:
		return SpanFunc, d.Name
	}
	return 0, ""
}

// scanSpan delimits the top-level declaration starting at token i.
func scanSpan(toks []ctoken.Token, i int) (Span, error) {
	t := toks[i]
	if t.Kind == ctoken.HashDefine {
		// "#define Name body... <end-define>"
		if i+1 >= len(toks) || toks[i+1].Kind != ctoken.Ident {
			return Span{}, fmt.Errorf("cincr: malformed #define at %s", t.Pos)
		}
		for j := i + 2; j < len(toks); j++ {
			if toks[j].Kind == ctoken.EndDefine {
				return Span{Start: i, End: j + 1, Kind: SpanMacro, Name: toks[i+1].Lit}, nil
			}
		}
		return Span{}, fmt.Errorf("cincr: unterminated #define at %s", t.Pos)
	}

	// "[static|inline|const]* type name ..." — a function if a '(' follows
	// the name, otherwise a variable ending at the top-level ';'.
	j := i
	for j < len(toks) && (toks[j].Kind == ctoken.KwStatic ||
		toks[j].Kind == ctoken.KwInline || toks[j].Kind == ctoken.KwConst) {
		j++
	}
	if j >= len(toks) || !typeToken(toks[j]) {
		return Span{}, fmt.Errorf("cincr: expected type at %s", toks[min(j, len(toks)-1)].Pos)
	}
	j++
	if j >= len(toks) || toks[j].Kind != ctoken.Ident {
		return Span{}, fmt.Errorf("cincr: expected declaration name at %s", toks[min(j, len(toks)-1)].Pos)
	}
	name := toks[j].Lit
	j++
	if j < len(toks) && toks[j].Kind == ctoken.LParen {
		// Function: skip to the body's opening brace, then to its match.
		depth := 0
		for ; j < len(toks); j++ {
			switch toks[j].Kind {
			case ctoken.LBrace:
				depth++
			case ctoken.RBrace:
				depth--
				if depth == 0 {
					return Span{Start: i, End: j + 1, Kind: SpanFunc, Name: name}, nil
				}
			}
		}
		return Span{}, fmt.Errorf("cincr: unterminated function %q at %s", name, toks[i].Pos)
	}
	// Variable: runs to the next top-level semicolon.
	for ; j < len(toks); j++ {
		if toks[j].Kind == ctoken.Semi {
			return Span{Start: i, End: j + 1, Kind: SpanVar, Name: name}, nil
		}
	}
	return Span{}, fmt.Errorf("cincr: unterminated declaration %q at %s", name, toks[i].Pos)
}

// typeToken reports whether a token can begin a declared type.
func typeToken(t ctoken.Token) bool {
	if t.Kind.IsTypeKeyword() {
		return true
	}
	return t.Kind == ctoken.Ident && len(t.Lit) > 2 && t.Lit[len(t.Lit)-2:] == "_t"
}

// SpanOf returns the index of the span containing token index i, or -1
// when i lies outside the stream.
func (s *Source) SpanOf(i int) int {
	if i < 0 || i >= len(s.spanIdx) {
		return -1
	}
	return int(s.spanIdx[i])
}

// Respan re-parses the span containing the mutated token, with the
// replacement applied, into a fresh declaration ready to splice over
// declaration index declIdx of the pristine program. scratch is a
// caller-owned buffer reused across calls (pass the previous return
// value); it comes back resliced so the campaign hot path never
// allocates a token copy.
//
// ErrSpanUnsafe is returned — and the caller must fall back to the full
// front end — when the index lies outside the stream, or the mutated
// span no longer parses to exactly one clean declaration of the same
// kind and name. In particular a replacement that introduces a syntax
// error always falls back, so diagnostic text and recovery behaviour
// come from the authoritative full parse.
func (s *Source) Respan(scratch []ctoken.Token, index int, repl ctoken.Token) ([]ctoken.Token, int, cast.Decl, error) {
	si := s.SpanOf(index)
	if si < 0 {
		return scratch, 0, nil, ErrSpanUnsafe
	}
	sp := s.Spans[si]
	n := sp.End - sp.Start
	if cap(scratch) < n {
		scratch = make([]ctoken.Token, n)
	}
	scratch = scratch[:n]
	copy(scratch, s.Tokens[sp.Start:sp.End])
	scratch[index-sp.Start] = repl

	prog, perrs := cparser.ParseTokens(scratch)
	if len(perrs) > 0 || len(prog.Decls) != 1 {
		return scratch, 0, nil, ErrSpanUnsafe
	}
	d := prog.Decls[0]
	kind, name := declShape(d)
	if kind != sp.Kind || name != sp.Name {
		// The replacement changed the program's global surface (e.g. a
		// renamed declaration): other declarations may now resolve
		// differently, which only the full front end models.
		return scratch, 0, nil, ErrSpanUnsafe
	}
	return scratch, si, d, nil
}

// Mutation names one single-token mutant of an analysed source: the
// boot input form of the incremental front end. Tokens at Index is
// replaced by Replacement; everything else is the pristine stream.
type Mutation struct {
	Src         *Source
	Index       int
	Replacement ctoken.Token
}

// Apply materialises the full mutated token stream — the fallback path
// and the input of the full-recompile differential.
func (m *Mutation) Apply() []ctoken.Token {
	out := make([]ctoken.Token, len(m.Src.Tokens))
	copy(out, m.Src.Tokens)
	if m.Index >= 0 && m.Index < len(out) {
		out[m.Index] = m.Replacement
	}
	return out
}
