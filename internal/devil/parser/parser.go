// Package parser implements a recursive-descent parser for the Devil
// interface definition language.
//
// The accepted grammar covers the published language fragment:
//
//	device      = "device" ident "(" param { "," param } ")" "{" { decl } "}"
//	param       = ident ":" "bit" "[" int "]" "port" "@" "{" int ".." int "}"
//	decl        = register | variable
//	register    = "register" ident "=" portspec { "," rattr } [ ":" "bit" "[" int "]" ] ";"
//	portspec    = [ "read" | "write" ] portref [ ( "read" | "write" ) portref ]
//	portref     = ident "@" int
//	rattr       = "mask" bitpattern | "pre" "{" preact { ";" preact } "}"
//	            | ( "read" | "write" ) portref
//	preact      = ident "=" int
//	variable    = [ "private" ] "variable" ident "=" frag { "#" frag }
//	              { "," vattr } ":" type ";"
//	frag        = ident [ "[" int [ ".." int ] "]" ]
//	vattr       = "volatile" | "write" "trigger"
//	type        = [ "signed" ] "int" "(" int ")"
//	            | "int" "{" intitem { "," intitem } "}"
//	            | "bool"
//	            | "{" enumcase { "," enumcase } "}"
//	intitem     = int [ ".." int ]
//	enumcase    = ident ( "=>" | "<=" | "<=>" ) bitstring
//
// Errors are accumulated rather than fatal; the parser recovers at the next
// semicolon so a mutated specification always yields a diagnostic rather
// than a panic.
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/devil/ast"
	"repro/internal/devil/scanner"
	"repro/internal/devil/token"
)

// Error is a syntax diagnostic.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// ErrorList is the ordered set of diagnostics from one parse.
type ErrorList []*Error

// Error implements the error interface, summarising the first diagnostic.
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
	toks   []token.Token
	idx    int
	errors ErrorList
}

// Parse parses a complete Devil specification.
func Parse(src string) (*ast.Device, ErrorList) {
	toks, lexErrs := scanner.ScanAll(src)
	p := &parser{toks: toks}
	for _, e := range lexErrs {
		p.errors = append(p.errors, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	dev := p.parseDevice()
	return dev, p.errors
}

func (p *parser) cur() token.Token {
	if p.idx >= len(p.toks) {
		var pos token.Pos
		if len(p.toks) > 0 {
			pos = p.toks[len(p.toks)-1].Pos
		} else {
			pos = token.Pos{Line: 1, Col: 1}
		}
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	return p.toks[p.idx]
}

func (p *parser) next() token.Token {
	t := p.cur()
	if t.Kind != token.EOF {
		p.idx++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) (token.Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return token.Token{}, false
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	t := p.cur()
	p.errorf(t.Pos, "expected %s, found %s", k, t)
	return token.Token{Kind: k, Pos: t.Pos}
}

func (p *parser) errorf(pos token.Pos, format string, args ...interface{}) {
	p.errors = append(p.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// syncDecl skips tokens until just past the next semicolon or to a closing
// brace / EOF, so one malformed declaration does not cascade.
func (p *parser) syncDecl() {
	for {
		switch p.cur().Kind {
		case token.EOF, token.RBrace:
			return
		case token.Semi:
			p.next()
			return
		}
		p.next()
	}
}

func (p *parser) parseInt() (int64, token.Pos) {
	t := p.cur()
	switch t.Kind {
	case token.Int:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return v, t.Pos
	case token.HexInt:
		p.next()
		v, err := strconv.ParseInt(t.Lit[2:], 16, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid hexadecimal literal %q", t.Lit)
		}
		return v, t.Pos
	default:
		p.errorf(t.Pos, "expected integer, found %s", t)
		p.next()
		return 0, t.Pos
	}
}

func (p *parser) parseDevice() *ast.Device {
	p.expect(token.KwDevice)
	name := p.expect(token.Ident)
	dev := &ast.Device{NamePos: name.Pos, Name: name.Lit}

	p.expect(token.LParen)
	if !p.at(token.RParen) {
		dev.Params = append(dev.Params, p.parsePortParam())
		for p.at(token.Comma) {
			p.next()
			dev.Params = append(dev.Params, p.parsePortParam())
		}
	}
	p.expect(token.RParen)

	p.expect(token.LBrace)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.idx
		switch p.cur().Kind {
		case token.KwRegister:
			if r := p.parseRegister(); r != nil {
				dev.Decls = append(dev.Decls, r)
			}
		case token.KwVariable, token.KwPrivate:
			if v := p.parseVariable(); v != nil {
				dev.Decls = append(dev.Decls, v)
			}
		default:
			t := p.cur()
			p.errorf(t.Pos, "expected declaration, found %s", t)
			p.syncDecl()
		}
		if p.idx == before { // no progress; avoid livelock on garbage
			p.next()
		}
	}
	p.expect(token.RBrace)
	if !p.at(token.EOF) {
		p.errorf(p.cur().Pos, "unexpected %s after device body", p.cur())
	}
	return dev
}

// parsePortParam parses "base : bit[8] port @ {0..3}".
func (p *parser) parsePortParam() *ast.PortParam {
	name := p.expect(token.Ident)
	param := &ast.PortParam{NamePos: name.Pos, Name: name.Lit}
	p.expect(token.Colon)
	p.expect(token.KwBit)
	p.expect(token.LBracket)
	bits, _ := p.parseInt()
	param.DataBits = int(bits)
	p.expect(token.RBracket)
	p.expect(token.KwPort)
	p.expect(token.At)
	p.expect(token.LBrace)
	lo, _ := p.parseInt()
	param.RangeLo = lo
	p.expect(token.DotDot)
	hi, _ := p.parseInt()
	param.RangeHi = hi
	p.expect(token.RBrace)
	return param
}

// parsePortRef parses "base @ 3".
func (p *parser) parsePortRef() *ast.PortRef {
	name := p.expect(token.Ident)
	p.expect(token.At)
	off, _ := p.parseInt()
	return &ast.PortRef{NamePos: name.Pos, Name: name.Lit, Offset: off}
}

// maxIntSet bounds the values an integer set type expands to. A Devil
// variable is at most 32 bits wide and a set lists the values it may hold;
// a larger range is a typo, and expanding it would exhaust memory.
const maxIntSet = 1 << 16

func (p *parser) parseRegister() *ast.Register {
	kw := p.expect(token.KwRegister)
	name := p.expect(token.Ident)
	reg := &ast.Register{DeclPos: kw.Pos, NamePos: name.Pos, Name: name.Lit, Size: 8}
	p.expect(token.Assign)

	// First port specification: optional read/write qualifier + portref.
	switch {
	case p.at(token.KwRead):
		p.next()
		reg.Mode = ast.ReadOnly
		reg.ReadPort = p.parsePortRef()
	case p.at(token.KwWrite):
		p.next()
		reg.Mode = ast.WriteOnly
		reg.WritePort = p.parsePortRef()
	default:
		reg.Mode = ast.ReadWrite
		pr := p.parsePortRef()
		reg.ReadPort = pr
		reg.WritePort = pr
	}

	// Attribute list.
	for p.at(token.Comma) {
		p.next()
		switch p.cur().Kind {
		case token.KwMask:
			m := p.next()
			pat := p.cur()
			if pat.Kind == token.BitPattern || pat.Kind == token.BitString {
				p.next()
				reg.Mask = pat.Lit
				reg.MaskPos = pat.Pos
			} else {
				p.errorf(pat.Pos, "expected bit pattern after mask, found %s", pat)
			}
			_ = m
		case token.KwPre:
			p.next()
			p.expect(token.LBrace)
			for {
				v := p.expect(token.Ident)
				p.expect(token.Assign)
				val, _ := p.parseInt()
				reg.Pre = append(reg.Pre, &ast.PreAction{VarPos: v.Pos, Var: v.Lit, Value: val})
				if _, ok := p.accept(token.Semi); ok && !p.at(token.RBrace) {
					continue
				}
				break
			}
			p.expect(token.RBrace)
		case token.KwRead:
			p.next()
			pr := p.parsePortRef()
			if reg.ReadPort != nil && reg.Mode != ast.WriteOnly {
				p.errorf(pr.NamePos, "register %s: duplicate read port", reg.Name)
			}
			reg.ReadPort = pr
			reg.Mode = combineMode(reg.Mode, ast.ReadOnly)
		case token.KwWrite:
			p.next()
			pr := p.parsePortRef()
			if reg.WritePort != nil && reg.Mode != ast.ReadOnly {
				p.errorf(pr.NamePos, "register %s: duplicate write port", reg.Name)
			}
			reg.WritePort = pr
			reg.Mode = combineMode(reg.Mode, ast.WriteOnly)
		default:
			t := p.cur()
			p.errorf(t.Pos, "expected register attribute, found %s", t)
			p.syncDecl()
			return reg
		}
	}

	// Optional size annotation ": bit[n]".
	if _, ok := p.accept(token.Colon); ok {
		p.expect(token.KwBit)
		p.expect(token.LBracket)
		bits, _ := p.parseInt()
		reg.Size = int(bits)
		p.expect(token.RBracket)
	} else if reg.Mask != "" {
		reg.Size = len(reg.Mask)
	}
	p.expect(token.Semi)
	return reg
}

// combineMode merges a second port qualifier into the register mode: a
// read-only register gaining a write port (or vice versa) becomes
// read/write through distinct ports.
func combineMode(have ast.Access, add ast.Access) ast.Access {
	if have == add {
		return have
	}
	return ast.ReadWrite
}

func (p *parser) parseVariable() *ast.Variable {
	start := p.cur()
	v := &ast.Variable{DeclPos: start.Pos}
	if _, ok := p.accept(token.KwPrivate); ok {
		v.Private = true
	}
	p.expect(token.KwVariable)
	name := p.expect(token.Ident)
	v.NamePos = name.Pos
	v.Name = name.Lit
	p.expect(token.Assign)

	v.Fragments = append(v.Fragments, p.parseFragment())
	for p.at(token.Hash) {
		p.next()
		v.Fragments = append(v.Fragments, p.parseFragment())
	}

	for p.at(token.Comma) {
		p.next()
		switch p.cur().Kind {
		case token.KwVolatile:
			p.next()
			v.Volatile = true
		case token.KwWrite:
			p.next()
			p.expect(token.KwTrigger)
			v.WriteTrigger = true
		default:
			t := p.cur()
			p.errorf(t.Pos, "expected variable attribute, found %s", t)
			p.syncDecl()
			return v
		}
	}

	p.expect(token.Colon)
	v.Type = p.parseType()
	p.expect(token.Semi)
	return v
}

// parseFragment parses "reg", "reg[i]" or "reg[hi..lo]".
func (p *parser) parseFragment() *ast.Fragment {
	name := p.expect(token.Ident)
	f := &ast.Fragment{RegPos: name.Pos, Reg: name.Lit, Hi: -1, Lo: -1}
	if _, ok := p.accept(token.LBracket); ok {
		hi, _ := p.parseInt()
		f.Hi = int(hi)
		f.Lo = int(hi)
		if _, ok := p.accept(token.DotDot); ok {
			lo, _ := p.parseInt()
			f.Lo = int(lo)
		}
		p.expect(token.RBracket)
	}
	return f
}

func (p *parser) parseType() *ast.TypeExpr {
	t := p.cur()
	switch t.Kind {
	case token.KwBool:
		p.next()
		return &ast.TypeExpr{TypePos: t.Pos, Kind: ast.TypeBool}
	case token.KwSigned:
		p.next()
		p.expect(token.KwInt)
		p.expect(token.LParen)
		bits, _ := p.parseInt()
		p.expect(token.RParen)
		return &ast.TypeExpr{TypePos: t.Pos, Kind: ast.TypeInt, Signed: true, Bits: int(bits)}
	case token.KwInt:
		p.next()
		if _, ok := p.accept(token.LParen); ok {
			bits, _ := p.parseInt()
			p.expect(token.RParen)
			return &ast.TypeExpr{TypePos: t.Pos, Kind: ast.TypeInt, Bits: int(bits)}
		}
		p.expect(token.LBrace)
		te := &ast.TypeExpr{TypePos: t.Pos, Kind: ast.TypeIntSet}
		for {
			lo, pos := p.parseInt()
			if _, ok := p.accept(token.DotDot); ok {
				hi, _ := p.parseInt()
				switch {
				case hi < lo:
					p.errorf(pos, "empty integer range %d..%d", lo, hi)
				case uint64(hi-lo) >= uint64(maxIntSet-len(te.Set)):
					p.errorf(pos, "integer set exceeds %d values at range %d..%d", maxIntSet, lo, hi)
				default:
					for n := hi - lo; n >= 0; n-- {
						te.Set = append(te.Set, hi-n)
					}
				}
			} else {
				te.Set = append(te.Set, lo)
			}
			if _, ok := p.accept(token.Comma); !ok {
				break
			}
		}
		p.expect(token.RBrace)
		return te
	case token.LBrace:
		p.next()
		te := &ast.TypeExpr{TypePos: t.Pos, Kind: ast.TypeEnum}
		for {
			name := p.expect(token.Ident)
			dir := p.cur()
			switch dir.Kind {
			case token.MapTo, token.MapFrom, token.MapBoth:
				p.next()
			default:
				p.errorf(dir.Pos, "expected =>, <= or <=> in enum case, found %s", dir)
			}
			pat := p.cur()
			var pattern string
			if pat.Kind == token.BitString || pat.Kind == token.BitPattern {
				p.next()
				pattern = pat.Lit
			} else {
				p.errorf(pat.Pos, "expected bit pattern in enum case, found %s", pat)
			}
			te.Cases = append(te.Cases, &ast.EnumCase{
				NamePos: name.Pos, Name: name.Lit, Dir: dir.Kind,
				Pattern: pattern, PatPos: pat.Pos,
			})
			if _, ok := p.accept(token.Comma); !ok {
				break
			}
		}
		p.expect(token.RBrace)
		return te
	default:
		p.errorf(t.Pos, "expected type expression, found %s", t)
		p.next()
		return &ast.TypeExpr{TypePos: t.Pos, Kind: ast.TypeInt, Bits: 8}
	}
}
