// Package cparser is the recursive-descent parser for hwC.
//
// It accepts either raw source text or a pre-lexed token stream; the
// mutation engine uses the latter so that mutated token streams never need
// to round-trip through text.
package cparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/clexer"
	"repro/internal/cdriver/ctoken"
)

// Error is a syntax diagnostic.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// ErrorList is the ordered diagnostics of one parse.
type ErrorList []*Error

// Error implements the error interface.
func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0].Error(), len(l)-1)
}

// Err returns the list as an error, or nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

type parser struct {
	toks   []ctoken.Token
	idx    int
	errors ErrorList
}

// Parse parses hwC source text.
func Parse(src string) (*cast.Program, ErrorList) {
	toks, lexErrs := clexer.Lex(src)
	p := &parser{toks: toks}
	for _, e := range lexErrs {
		p.errors = append(p.errors, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	return p.parseProgram(), p.errors
}

// ParseTokens parses a pre-lexed token stream.
func ParseTokens(toks []ctoken.Token) (*cast.Program, ErrorList) {
	p := &parser{toks: toks}
	return p.parseProgram(), p.errors
}

func (p *parser) cur() ctoken.Token {
	if p.idx >= len(p.toks) {
		var pos ctoken.Pos
		if len(p.toks) > 0 {
			pos = p.toks[len(p.toks)-1].Pos
		} else {
			pos = ctoken.Pos{Line: 1, Col: 1}
		}
		return ctoken.Token{Kind: ctoken.EOF, Pos: pos}
	}
	return p.toks[p.idx]
}

func (p *parser) peekKind(n int) ctoken.Kind {
	if p.idx+n >= len(p.toks) {
		return ctoken.EOF
	}
	return p.toks[p.idx+n].Kind
}

func (p *parser) peekTok(n int) ctoken.Token {
	if p.idx+n >= len(p.toks) {
		return ctoken.Token{Kind: ctoken.EOF}
	}
	return p.toks[p.idx+n]
}

func (p *parser) next() ctoken.Token {
	t := p.cur()
	if t.Kind != ctoken.EOF {
		p.idx++
	}
	return t
}

func (p *parser) at(k ctoken.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k ctoken.Kind) (ctoken.Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return ctoken.Token{}, false
}

func (p *parser) expect(k ctoken.Kind) ctoken.Token {
	if p.at(k) {
		return p.next()
	}
	t := p.cur()
	p.errorf(t.Pos, "expected %s, found %s", k, t)
	return ctoken.Token{Kind: k, Pos: t.Pos}
}

func (p *parser) errorf(pos ctoken.Pos, format string, args ...interface{}) {
	if len(p.errors) > 50 {
		return // cap the cascade on hopeless input
	}
	p.errors = append(p.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// sync skips to just past the next semicolon or to a brace boundary.
func (p *parser) sync() {
	depth := 0
	for {
		switch p.cur().Kind {
		case ctoken.EOF:
			return
		case ctoken.Semi:
			if depth == 0 {
				p.next()
				return
			}
			p.next()
		case ctoken.LBrace:
			depth++
			p.next()
		case ctoken.RBrace:
			if depth == 0 {
				return
			}
			depth--
			p.next()
		default:
			p.next()
		}
	}
}

// isDevilTypeName reports whether an identifier spelling denotes a Devil
// struct type by the generated-code convention (FooBar_t).
func isDevilTypeName(name string) bool {
	return strings.HasSuffix(name, "_t") && len(name) > 2
}

// atType reports whether the current token begins a type.
func (p *parser) atType() bool {
	t := p.cur()
	if t.Kind.IsTypeKeyword() {
		return true
	}
	return t.Kind == ctoken.Ident && isDevilTypeName(t.Lit)
}

func (p *parser) parseType() cast.CType {
	t := p.next()
	switch t.Kind {
	case ctoken.KwVoid:
		return cast.CType{Kind: cast.TypeVoid}
	case ctoken.KwInt:
		return cast.CType{Kind: cast.TypeInt}
	case ctoken.KwU8:
		return cast.CType{Kind: cast.TypeU8}
	case ctoken.KwU16:
		return cast.CType{Kind: cast.TypeU16}
	case ctoken.KwU32:
		return cast.CType{Kind: cast.TypeU32}
	case ctoken.KwS8:
		return cast.CType{Kind: cast.TypeS8}
	case ctoken.KwS16:
		return cast.CType{Kind: cast.TypeS16}
	case ctoken.KwS32:
		return cast.CType{Kind: cast.TypeS32}
	case ctoken.Ident:
		if isDevilTypeName(t.Lit) {
			return cast.CType{Kind: cast.TypeDevilStruct, Name: t.Lit}
		}
	}
	p.errorf(t.Pos, "expected type, found %s", t)
	return cast.CType{Kind: cast.TypeInt}
}

func (p *parser) parseProgram() *cast.Program {
	prog := &cast.Program{}
	for !p.at(ctoken.EOF) {
		before := p.idx
		switch {
		case p.at(ctoken.HashDefine):
			if d := p.parseDefine(); d != nil {
				prog.Decls = append(prog.Decls, d)
			}
		case p.at(ctoken.KwStatic) || p.at(ctoken.KwInline) || p.at(ctoken.KwConst) || p.atType():
			if d := p.parseTopDecl(); d != nil {
				prog.Decls = append(prog.Decls, d)
			}
		default:
			t := p.cur()
			p.errorf(t.Pos, "expected declaration, found %s", t)
			p.sync()
		}
		if p.idx == before {
			p.next()
		}
	}
	return prog
}

func (p *parser) parseDefine() cast.Decl {
	p.expect(ctoken.HashDefine)
	name := p.expect(ctoken.Ident)
	body := p.parseExpr()
	p.expect(ctoken.EndDefine)
	return &cast.MacroDecl{NamePos: name.Pos, Name: name.Lit, Body: body}
}

// parseTopDecl parses a global variable or function definition.
func (p *parser) parseTopDecl() cast.Decl {
	for p.at(ctoken.KwStatic) || p.at(ctoken.KwInline) || p.at(ctoken.KwConst) {
		p.next()
	}
	typePos := p.cur().Pos
	typ := p.parseType()
	name := p.expect(ctoken.Ident)
	if p.at(ctoken.LParen) {
		return p.parseFuncRest(typePos, typ, name)
	}
	d := &cast.VarDecl{TypePos: typePos, Type: typ, Name: name.Lit, NamePos: name.Pos}
	if _, ok := p.accept(ctoken.Assign); ok {
		d.Init = p.parseExpr()
	}
	p.expect(ctoken.Semi)
	return d
}

func (p *parser) parseFuncRest(typePos ctoken.Pos, result cast.CType, name ctoken.Token) cast.Decl {
	f := &cast.FuncDecl{TypePos: typePos, Result: result, Name: name.Lit, NamePos: name.Pos}
	p.expect(ctoken.LParen)
	if p.at(ctoken.KwVoid) && p.peekKind(1) == ctoken.RParen {
		p.next() // f(void)
	}
	for !p.at(ctoken.RParen) && !p.at(ctoken.EOF) {
		ptype := p.parseType()
		pname := p.expect(ctoken.Ident)
		f.Params = append(f.Params, cast.Param{Type: ptype, Name: pname.Lit, NamePos: pname.Pos})
		if _, ok := p.accept(ctoken.Comma); !ok {
			break
		}
	}
	p.expect(ctoken.RParen)
	f.Body = p.parseBlock()
	return f
}

func (p *parser) parseBlock() *cast.Block {
	lb := p.expect(ctoken.LBrace)
	b := &cast.Block{LBrace: lb.Pos}
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		before := p.idx
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.idx == before {
			p.next()
		}
	}
	p.expect(ctoken.RBrace)
	return b
}

func (p *parser) parseStmt() cast.Stmt {
	t := p.cur()
	switch {
	case t.Kind == ctoken.LBrace:
		return p.parseBlock()
	case t.Kind == ctoken.KwIf:
		return p.parseIf()
	case t.Kind == ctoken.KwWhile:
		p.next()
		p.expect(ctoken.LParen)
		cond := p.parseExpr()
		p.expect(ctoken.RParen)
		body := p.parseStmt()
		return &cast.WhileStmt{WhilePos: t.Pos, Cond: cond, Body: body}
	case t.Kind == ctoken.KwDo:
		p.next()
		body := p.parseStmt()
		p.expect(ctoken.KwWhile)
		p.expect(ctoken.LParen)
		cond := p.parseExpr()
		p.expect(ctoken.RParen)
		p.expect(ctoken.Semi)
		return &cast.DoWhileStmt{DoPos: t.Pos, Body: body, Cond: cond}
	case t.Kind == ctoken.KwFor:
		return p.parseFor()
	case t.Kind == ctoken.KwSwitch:
		return p.parseSwitch()
	case t.Kind == ctoken.KwBreak:
		p.next()
		p.expect(ctoken.Semi)
		return &cast.BreakStmt{KwPos: t.Pos}
	case t.Kind == ctoken.KwContinue:
		p.next()
		p.expect(ctoken.Semi)
		return &cast.ContinueStmt{KwPos: t.Pos}
	case t.Kind == ctoken.KwReturn:
		p.next()
		var x cast.Expr
		if !p.at(ctoken.Semi) {
			x = p.parseExpr()
		}
		p.expect(ctoken.Semi)
		return &cast.ReturnStmt{KwPos: t.Pos, X: x}
	case t.Kind == ctoken.Semi:
		p.next()
		return nil
	case p.atType():
		typePos := p.cur().Pos
		typ := p.parseType()
		name := p.expect(ctoken.Ident)
		d := &cast.VarDecl{TypePos: typePos, Type: typ, Name: name.Lit, NamePos: name.Pos}
		if _, ok := p.accept(ctoken.Assign); ok {
			d.Init = p.parseExpr()
		}
		p.expect(ctoken.Semi)
		return &cast.DeclStmt{Decl: d}
	default:
		return p.parseSimpleStmt(true)
	}
}

// parseSimpleStmt parses an assignment, inc/dec or expression statement.
// When wantSemi is false (for-clause contexts), the trailing semicolon is
// left for the caller.
func (p *parser) parseSimpleStmt(wantSemi bool) cast.Stmt {
	t := p.cur()
	// Assignment or inc/dec begins with an identifier followed by an
	// assignment-class operator.
	if t.Kind == ctoken.Ident {
		switch p.peekKind(1) {
		case ctoken.Assign, ctoken.OrAssign, ctoken.AndAssign, ctoken.XorAssign,
			ctoken.ShlAssign, ctoken.ShrAssign, ctoken.AddAssign, ctoken.SubAssign:
			name := p.next()
			op := p.next()
			rhs := p.parseExpr()
			if wantSemi {
				p.expect(ctoken.Semi)
			}
			return &cast.AssignStmt{
				LHS: &cast.Ident{NamePos: name.Pos, Name: name.Lit},
				Op:  op.Kind, RHS: rhs,
			}
		case ctoken.PlusPlus, ctoken.MinusMinus:
			name := p.next()
			op := p.next()
			if wantSemi {
				p.expect(ctoken.Semi)
			}
			return &cast.IncDecStmt{
				X:  &cast.Ident{NamePos: name.Pos, Name: name.Lit},
				Op: op.Kind,
			}
		}
	}
	x := p.parseExpr()
	if wantSemi {
		p.expect(ctoken.Semi)
	}
	return &cast.ExprStmt{X: x}
}

func (p *parser) parseIf() cast.Stmt {
	kw := p.expect(ctoken.KwIf)
	p.expect(ctoken.LParen)
	cond := p.parseExpr()
	p.expect(ctoken.RParen)
	then := p.parseStmt()
	var els cast.Stmt
	if _, ok := p.accept(ctoken.KwElse); ok {
		els = p.parseStmt()
	}
	return &cast.IfStmt{IfPos: kw.Pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseFor() cast.Stmt {
	kw := p.expect(ctoken.KwFor)
	p.expect(ctoken.LParen)
	f := &cast.ForStmt{ForPos: kw.Pos}
	if !p.at(ctoken.Semi) {
		if p.atType() {
			typePos := p.cur().Pos
			typ := p.parseType()
			name := p.expect(ctoken.Ident)
			d := &cast.VarDecl{TypePos: typePos, Type: typ, Name: name.Lit, NamePos: name.Pos}
			if _, ok := p.accept(ctoken.Assign); ok {
				d.Init = p.parseExpr()
			}
			f.Init = &cast.DeclStmt{Decl: d}
		} else {
			f.Init = p.parseSimpleStmt(false)
		}
	}
	p.expect(ctoken.Semi)
	if !p.at(ctoken.Semi) {
		f.Cond = p.parseExpr()
	}
	p.expect(ctoken.Semi)
	if !p.at(ctoken.RParen) {
		f.Post = p.parseSimpleStmt(false)
	}
	p.expect(ctoken.RParen)
	f.Body = p.parseStmt()
	return f
}

func (p *parser) parseSwitch() cast.Stmt {
	kw := p.expect(ctoken.KwSwitch)
	p.expect(ctoken.LParen)
	tag := p.parseExpr()
	p.expect(ctoken.RParen)
	p.expect(ctoken.LBrace)
	sw := &cast.SwitchStmt{SwitchPos: kw.Pos, Tag: tag}
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		t := p.cur()
		var clause *cast.CaseClause
		switch t.Kind {
		case ctoken.KwCase:
			p.next()
			clause = &cast.CaseClause{CasePos: t.Pos}
			clause.Values = append(clause.Values, p.parseExpr())
			p.expect(ctoken.Colon)
			// Adjacent case labels share a clause.
			for p.at(ctoken.KwCase) {
				p.next()
				clause.Values = append(clause.Values, p.parseExpr())
				p.expect(ctoken.Colon)
			}
		case ctoken.KwDefault:
			p.next()
			p.expect(ctoken.Colon)
			clause = &cast.CaseClause{CasePos: t.Pos}
		default:
			p.errorf(t.Pos, "expected case or default, found %s", t)
			p.sync()
			continue
		}
		for !p.at(ctoken.KwCase) && !p.at(ctoken.KwDefault) &&
			!p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
			before := p.idx
			if s := p.parseStmt(); s != nil {
				clause.Stmts = append(clause.Stmts, s)
			}
			if p.idx == before {
				p.next()
			}
		}
		sw.Clauses = append(sw.Clauses, clause)
	}
	p.expect(ctoken.RBrace)
	return sw
}

// Expression parsing: precedence climbing over the C operator grammar of
// the subset. The ternary conditional sits above everything else.
func (p *parser) parseExpr() cast.Expr {
	x := p.parseBinary(1)
	if _, ok := p.accept(ctoken.Question); ok {
		then := p.parseExpr()
		p.expect(ctoken.Colon)
		els := p.parseExpr()
		return &cast.CondExpr{Cond: x, Then: then, Else: els}
	}
	return x
}

// precedence returns the binding power of a binary operator, 0 for
// non-operators. Mirrors C.
func precedence(k ctoken.Kind) int {
	switch k {
	case ctoken.LOr:
		return 1
	case ctoken.LAnd:
		return 2
	case ctoken.Or:
		return 3
	case ctoken.Xor:
		return 4
	case ctoken.And:
		return 5
	case ctoken.Eq, ctoken.Ne:
		return 6
	case ctoken.Lt, ctoken.Gt, ctoken.Le, ctoken.Ge:
		return 7
	case ctoken.Shl, ctoken.Shr:
		return 8
	case ctoken.Add, ctoken.Sub:
		return 9
	case ctoken.Mul, ctoken.Div, ctoken.Mod:
		return 10
	}
	return 0
}

func (p *parser) parseBinary(minPrec int) cast.Expr {
	x := p.parseUnary()
	for {
		op := p.cur()
		prec := precedence(op.Kind)
		if prec < minPrec {
			return x
		}
		p.next()
		y := p.parseBinary(prec + 1)
		x = &cast.BinaryExpr{OpPos: op.Pos, Op: op.Kind, X: x, Y: y}
	}
}

func (p *parser) parseUnary() cast.Expr {
	t := p.cur()
	switch t.Kind {
	case ctoken.Not, ctoken.BitNot, ctoken.Sub:
		p.next()
		return &cast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: p.parseUnary()}
	case ctoken.LParen:
		// Cast: "(type) unary".
		nt := p.peekTok(1)
		isCast := nt.Kind.IsTypeKeyword() ||
			(nt.Kind == ctoken.Ident && isDevilTypeName(nt.Lit))
		if isCast && p.peekKind(2) == ctoken.RParen {
			p.next()
			to := p.parseType()
			p.expect(ctoken.RParen)
			return &cast.CastExpr{LParen: t.Pos, To: to, X: p.parseUnary()}
		}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() cast.Expr {
	t := p.cur()
	switch t.Kind {
	case ctoken.DecInt, ctoken.OctInt, ctoken.HexInt:
		p.next()
		v, err := parseCInt(t)
		if err != nil {
			p.errorf(t.Pos, "%v", err)
		}
		return &cast.IntLit{LitPos: t.Pos, Value: v, Base: t.Kind}
	case ctoken.CharLit:
		p.next()
		var v int64
		if len(t.Lit) > 0 {
			v = int64(t.Lit[0])
		}
		return &cast.IntLit{LitPos: t.Pos, Value: v, Base: ctoken.DecInt}
	case ctoken.String:
		p.next()
		return &cast.StringLit{LitPos: t.Pos, Value: t.Lit}
	case ctoken.Ident:
		p.next()
		if p.at(ctoken.LParen) {
			p.next()
			call := &cast.CallExpr{NamePos: t.Pos, Name: t.Lit}
			for !p.at(ctoken.RParen) && !p.at(ctoken.EOF) {
				call.Args = append(call.Args, p.parseExpr())
				if _, ok := p.accept(ctoken.Comma); !ok {
					break
				}
			}
			p.expect(ctoken.RParen)
			return call
		}
		return &cast.Ident{NamePos: t.Pos, Name: t.Lit}
	case ctoken.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(ctoken.RParen)
		return x
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	return &cast.IntLit{LitPos: t.Pos, Value: 0, Base: ctoken.DecInt}
}

// parseCInt evaluates a C integer literal token.
func parseCInt(t ctoken.Token) (int64, error) {
	lit := strings.TrimRight(t.Lit, "uUlL")
	switch t.Kind {
	case ctoken.HexInt:
		if len(lit) < 2 {
			return 0, fmt.Errorf("invalid hexadecimal literal %q", t.Lit)
		}
		v, err := strconv.ParseUint(lit[2:], 16, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid hexadecimal literal %q", t.Lit)
		}
		return int64(v), nil
	case ctoken.OctInt:
		if len(lit) < 1 {
			return 0, fmt.Errorf("invalid octal literal %q", t.Lit)
		}
		v, err := strconv.ParseUint(lit[1:], 8, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid octal literal %q", t.Lit)
		}
		return int64(v), nil
	default:
		v, err := strconv.ParseUint(lit, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid integer literal %q", t.Lit)
		}
		return int64(v), nil
	}
}
