package cmut

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil/codegen"
	"repro/internal/mutation"
)

// OperatorClasses is the reconstructed Table 1: for each mutable operator,
// the operators that may replace it.
var OperatorClasses = map[ctoken.Kind][]ctoken.Kind{
	// Bitwise class, plus the |↔|| and &↔&& confusions of §3.3.
	ctoken.Or:  {ctoken.And, ctoken.Xor, ctoken.LOr},
	ctoken.And: {ctoken.Or, ctoken.Xor, ctoken.LAnd},
	ctoken.Xor: {ctoken.Or, ctoken.And},
	// Logical class.
	ctoken.LOr:  {ctoken.LAnd, ctoken.Or},
	ctoken.LAnd: {ctoken.LOr, ctoken.And},
	// Shifts.
	ctoken.Shl: {ctoken.Shr},
	ctoken.Shr: {ctoken.Shl},
	// Additive.
	ctoken.Add: {ctoken.Sub},
	ctoken.Sub: {ctoken.Add},
	// Relational/equality class.
	ctoken.Eq: {ctoken.Ne, ctoken.Lt, ctoken.Gt, ctoken.Le, ctoken.Ge},
	ctoken.Ne: {ctoken.Eq, ctoken.Lt, ctoken.Gt, ctoken.Le, ctoken.Ge},
	ctoken.Lt: {ctoken.Gt, ctoken.Le, ctoken.Ge, ctoken.Eq, ctoken.Ne},
	ctoken.Gt: {ctoken.Lt, ctoken.Le, ctoken.Ge, ctoken.Eq, ctoken.Ne},
	ctoken.Le: {ctoken.Ge, ctoken.Lt, ctoken.Gt, ctoken.Eq, ctoken.Ne},
	ctoken.Ge: {ctoken.Le, ctoken.Lt, ctoken.Gt, ctoken.Eq, ctoken.Ne},
	// Compound assignment forms of the same classes.
	ctoken.OrAssign:  {ctoken.AndAssign, ctoken.XorAssign},
	ctoken.AndAssign: {ctoken.OrAssign, ctoken.XorAssign},
	ctoken.XorAssign: {ctoken.OrAssign, ctoken.AndAssign},
	ctoken.ShlAssign: {ctoken.ShrAssign},
	ctoken.ShrAssign: {ctoken.ShlAssign},
	ctoken.AddAssign: {ctoken.SubAssign},
	ctoken.SubAssign: {ctoken.AddAssign},
}

// IdentClass is the semantic class of an identifier for CDevil mutation.
type IdentClass string

// Identifier classes (§3.3: "mutations for these identifiers are always
// performed within the same semantic class (e.g., set function, get
// function)").
const (
	ClassAny    IdentClass = "any" // C mode: everything is an integer
	ClassGetter IdentClass = "get-stub"
	ClassSetter IdentClass = "set-stub"
	ClassConst  IdentClass = "devil-const"
	ClassMacro  IdentClass = "macro"
	ClassPlain  IdentClass = "plain"
)

// SiteKind classifies a mutation site.
type SiteKind string

// Site kinds.
const (
	SiteLiteral  SiteKind = "literal"
	SiteOperator SiteKind = "operator"
	SiteIdent    SiteKind = "identifier"
)

// Site is one mutable token position.
type Site struct {
	// Index is the token index in the analysed stream.
	Index int
	// Pos is the source position (dead-code detection keys on Pos.Line).
	Pos ctoken.Pos
	// Kind classifies the site.
	Kind SiteKind
	// Class is the identifier class (identifier sites only).
	Class IdentClass
}

// Mutant is one single-token substitution.
type Mutant struct {
	// ID is the 0-based mutant number within the enumeration.
	ID int
	// SiteIndex indexes into the Sites slice of the Result.
	SiteIndex int
	// TokenIndex is the position of the replaced token.
	TokenIndex int
	// Replacement is the substituted token (same position, new content).
	Replacement ctoken.Token
	// Description is a human-readable summary.
	Description string
}

// Result is a full mutant enumeration for one driver source.
type Result struct {
	Tokens  []ctoken.Token
	Sites   []Site
	Mutants []Mutant
}

// Apply materialises a mutant's token stream (copy with one substitution).
func (r *Result) Apply(m Mutant) []ctoken.Token {
	out := make([]ctoken.Token, len(r.Tokens))
	copy(out, r.Tokens)
	out[m.TokenIndex] = m.Replacement
	return out
}

// Options configures enumeration.
type Options struct {
	// Interface is the Devil stub interface for CDevil sources; nil for
	// plain C sources.
	Interface *codegen.Interface
}

// declInfo is the symbol analysis the identifier rules need.
type declInfo struct {
	// declPositions marks token offsets that are declaration sites
	// (excluded from mutation: renaming a declaration only renames).
	declPositions map[int]bool
	macros        []string
	globals       []string
	funcs         []string
	// localsOf maps a function name to its parameter and local names.
	localsOf map[string][]string
	// funcRange maps a function to its [start, end) source-offset range.
	funcRange map[string][2]int
	funcOrder []string
}

// Enumerate analyses a driver token stream and generates every mutant the
// rules admit. The stream must parse cleanly (mutants are derived from
// correct programs).
func Enumerate(toks []ctoken.Token, opts Options) (*Result, error) {
	prog, perrs := cparser.ParseTokens(toks)
	if len(perrs) > 0 {
		return nil, fmt.Errorf("enumerate: source does not parse: %v", perrs[0])
	}
	info := analyse(prog, toks)
	res := &Result{Tokens: toks}

	for i, t := range toks {
		if !t.Tagged {
			continue
		}
		switch {
		case t.Kind.IsIntLiteral():
			res.literalSite(i, t)
		case OperatorClasses[t.Kind] != nil:
			res.operatorSite(i, t)
		case t.Kind == ctoken.Ident:
			res.identSite(i, t, info, opts)
		}
	}
	return res, nil
}

func (r *Result) addSite(s Site) int {
	r.Sites = append(r.Sites, s)
	return len(r.Sites) - 1
}

func (r *Result) addMutant(siteIdx, tokIdx int, repl ctoken.Token, desc string) {
	r.Mutants = append(r.Mutants, Mutant{
		ID:          len(r.Mutants),
		SiteIndex:   siteIdx,
		TokenIndex:  tokIdx,
		Replacement: repl,
		Description: desc,
	})
}

// literalSite expands the typo model over one integer literal.
func (r *Result) literalSite(i int, t ctoken.Token) {
	var prefix, digits, alphabet string
	var kind ctoken.Kind
	switch t.Kind {
	case ctoken.HexInt:
		prefix, digits, alphabet, kind = t.Lit[:2], strings.ToLower(t.Lit[2:]), mutation.AlphabetHex, ctoken.HexInt
	case ctoken.OctInt:
		prefix, digits, alphabet, kind = t.Lit[:1], t.Lit[1:], mutation.AlphabetOctal, ctoken.OctInt
	default:
		prefix, digits, alphabet, kind = "", t.Lit, mutation.AlphabetDecimal, ctoken.DecInt
	}
	edits := mutation.LiteralEdits(digits, alphabet)
	if len(edits) == 0 {
		return
	}
	site := r.addSite(Site{Index: i, Pos: t.Pos, Kind: SiteLiteral})
	orig := literalValue(t.Kind, prefix+digits)
	for _, e := range edits {
		lit := prefix + e.Text
		nk := kind
		if nk == ctoken.DecInt && len(e.Text) > 1 && e.Text[0] == '0' {
			// A decimal literal gaining a leading zero becomes octal — the
			// very confusion the error model is about. Reject texts with
			// non-octal digits (they would not lex).
			valid := true
			for j := 1; j < len(e.Text); j++ {
				if e.Text[j] > '7' {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			nk = ctoken.OctInt
		}
		// Mutants must change semantics: skip value-preserving edits.
		if literalValue(nk, lit) == orig {
			continue
		}
		repl := t
		repl.Kind = nk
		repl.Lit = lit
		r.addMutant(site, i, repl,
			fmt.Sprintf("%s literal %s -> %s at %s", e.Kind, t.Lit, lit, t.Pos))
	}
}

// literalValue evaluates a literal for the semantic-difference filter.
func literalValue(kind ctoken.Kind, lit string) int64 {
	var v int64
	switch kind {
	case ctoken.HexInt:
		for i := 2; i < len(lit); i++ {
			v = v*16 + int64(hexVal(lit[i]))
		}
	case ctoken.OctInt:
		for i := 1; i < len(lit); i++ {
			v = v*8 + int64(lit[i]-'0')
		}
	default:
		for i := 0; i < len(lit); i++ {
			v = v*10 + int64(lit[i]-'0')
		}
	}
	return v
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return 0
}

func (r *Result) operatorSite(i int, t ctoken.Token) {
	site := r.addSite(Site{Index: i, Pos: t.Pos, Kind: SiteOperator})
	for _, nk := range OperatorClasses[t.Kind] {
		repl := t
		repl.Kind = nk
		repl.Lit = nk.String()
		r.addMutant(site, i, repl,
			fmt.Sprintf("operator %s -> %s at %s", t.Kind, nk, t.Pos))
	}
}

func (r *Result) identSite(i int, t ctoken.Token, info *declInfo, opts Options) {
	if info.declPositions[t.Pos.Offset] {
		return // declaration site: renaming it is not an error model case
	}
	if strings.HasSuffix(t.Lit, "_t") {
		return // Devil type names are types, not value identifiers
	}
	class, pool := classify(t.Lit, info, opts, t.Pos.Offset)
	if len(pool) == 0 {
		return
	}
	var repls []string
	for _, name := range pool {
		if name != t.Lit {
			repls = append(repls, name)
		}
	}
	if len(repls) == 0 {
		return
	}
	site := r.addSite(Site{Index: i, Pos: t.Pos, Kind: SiteIdent, Class: class})
	for _, name := range repls {
		repl := t
		repl.Lit = name
		r.addMutant(site, i, repl,
			fmt.Sprintf("identifier %s -> %s at %s", t.Lit, name, t.Pos))
	}
}

// classify determines the identifier class of an occurrence and the
// replacement pool.
func classify(name string, info *declInfo, opts Options, off int) (IdentClass, []string) {
	if opts.Interface != nil {
		// CDevil: class-restricted pools.
		var getters, setters, consts []string
		for _, v := range opts.Interface.Vars {
			if v.Readable {
				getters = append(getters, "get_"+v.Name)
				if v.Block {
					getters = append(getters, "get_block_"+v.Name)
				}
			}
			if v.Writable {
				setters = append(setters, "set_"+v.Name)
				if v.Block {
					setters = append(setters, "set_block_"+v.Name)
				}
			}
		}
		for c := range opts.Interface.Consts {
			consts = append(consts, c)
		}
		sort.Strings(getters)
		sort.Strings(setters)
		sort.Strings(consts)
		if contains(getters, name) {
			return ClassGetter, getters
		}
		if contains(setters, name) {
			return ClassSetter, setters
		}
		if contains(consts, name) {
			return ClassConst, consts
		}
		if contains(info.macros, name) {
			return ClassMacro, info.macros
		}
		return ClassPlain, info.scopedPool(off)
	}
	// Plain C: the pre-processor has erased all distinctions.
	return ClassAny, info.scopedPool(off)
}

func contains(list []string, name string) bool {
	for _, x := range list {
		if x == name {
			return true
		}
	}
	return false
}

// scopedPool returns the identifiers visible at a source offset: macros,
// globals, function names, and the locals of the enclosing function.
func (d *declInfo) scopedPool(off int) []string {
	pool := make([]string, 0,
		len(d.macros)+len(d.globals)+len(d.funcs)+8)
	pool = append(pool, d.macros...)
	pool = append(pool, d.globals...)
	pool = append(pool, d.funcs...)
	for _, fn := range d.funcOrder {
		r := d.funcRange[fn]
		if off >= r[0] && off < r[1] {
			pool = append(pool, d.localsOf[fn]...)
			break
		}
	}
	sort.Strings(pool)
	return pool
}

// analyse walks the program collecting declarations, their positions and
// function extents.
func analyse(prog *cast.Program, toks []ctoken.Token) *declInfo {
	info := &declInfo{
		declPositions: make(map[int]bool),
		localsOf:      make(map[string][]string),
		funcRange:     make(map[string][2]int),
	}
	endOffset := 1 << 30
	if len(toks) > 0 {
		endOffset = toks[len(toks)-1].Pos.Offset + len(toks[len(toks)-1].Lit) + 1
	}
	for idx, d := range prog.Decls {
		switch d := d.(type) {
		case *cast.MacroDecl:
			info.macros = append(info.macros, d.Name)
			info.declPositions[d.NamePos.Offset] = true
		case *cast.VarDecl:
			info.globals = append(info.globals, d.Name)
			info.declPositions[d.NamePos.Offset] = true
		case *cast.FuncDecl:
			info.funcs = append(info.funcs, d.Name)
			info.funcOrder = append(info.funcOrder, d.Name)
			info.declPositions[d.NamePos.Offset] = true
			start := d.TypePos.Offset
			end := endOffset
			if idx+1 < len(prog.Decls) {
				end = prog.Decls[idx+1].Pos().Offset
			}
			info.funcRange[d.Name] = [2]int{start, end}
			var locals []string
			for _, p := range d.Params {
				locals = append(locals, p.Name)
				info.declPositions[p.NamePos.Offset] = true
			}
			collectLocals(d.Body, &locals, info.declPositions)
			info.localsOf[d.Name] = locals
		}
	}
	return info
}

// collectLocals gathers local declarations (and marks their positions) in
// a statement tree.
func collectLocals(s cast.Stmt, locals *[]string, declPos map[int]bool) {
	switch s := s.(type) {
	case *cast.Block:
		for _, st := range s.Stmts {
			collectLocals(st, locals, declPos)
		}
	case *cast.DeclStmt:
		*locals = append(*locals, s.Decl.Name)
		declPos[s.Decl.NamePos.Offset] = true
	case *cast.IfStmt:
		collectLocals(s.Then, locals, declPos)
		if s.Else != nil {
			collectLocals(s.Else, locals, declPos)
		}
	case *cast.WhileStmt:
		collectLocals(s.Body, locals, declPos)
	case *cast.DoWhileStmt:
		collectLocals(s.Body, locals, declPos)
	case *cast.ForStmt:
		if s.Init != nil {
			collectLocals(s.Init, locals, declPos)
		}
		collectLocals(s.Body, locals, declPos)
	case *cast.SwitchStmt:
		for _, cl := range s.Clauses {
			for _, st := range cl.Stmts {
				collectLocals(st, locals, declPos)
			}
		}
	}
}
