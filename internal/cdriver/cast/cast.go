// Package cast defines the abstract syntax tree of hwC driver sources.
package cast

import (
	"repro/internal/cdriver/ctoken"
)

// TypeKind enumerates the C types of the subset.
type TypeKind int

// C types. DevilStruct covers the distinct struct types that Devil debug
// stubs generate for enumerated device variables (e.g. Drive_t).
const (
	TypeVoid TypeKind = iota + 1
	TypeInt           // int (signed 32-bit)
	TypeU8
	TypeU16
	TypeU32
	TypeS8
	TypeS16
	TypeS32
	TypeDevilStruct
)

// CType is a (possibly Devil) C type.
type CType struct {
	Kind TypeKind
	// Name is set for DevilStruct types (e.g. "Drive_t").
	Name string
}

// String renders the type.
func (t CType) String() string {
	switch t.Kind {
	case TypeVoid:
		return "void"
	case TypeInt:
		return "int"
	case TypeU8:
		return "u8"
	case TypeU16:
		return "u16"
	case TypeU32:
		return "u32"
	case TypeS8:
		return "s8"
	case TypeS16:
		return "s16"
	case TypeS32:
		return "s32"
	case TypeDevilStruct:
		return t.Name
	}
	return "?"
}

// IsInteger reports whether the type is an arithmetic integer type.
func (t CType) IsInteger() bool {
	return t.Kind >= TypeInt && t.Kind <= TypeS32
}

// Node is implemented by all AST nodes.
type Node interface {
	Pos() ctoken.Pos
}

// Decl is a file-scope declaration.
type Decl interface {
	Node
	declNode()
}

// MacroDecl is an object-like #define. The body is kept both as raw tokens
// (the representation the mutation engine rewrites) and as a parsed
// constant expression.
type MacroDecl struct {
	NamePos ctoken.Pos
	Name    string
	Body    Expr
}

// Pos implements Node.
func (d *MacroDecl) Pos() ctoken.Pos { return d.NamePos }
func (d *MacroDecl) declNode()       {}

// VarDecl is a file-scope or local variable declaration.
type VarDecl struct {
	TypePos ctoken.Pos
	Type    CType
	Name    string
	NamePos ctoken.Pos
	Init    Expr // may be nil
}

// Pos implements Node.
func (d *VarDecl) Pos() ctoken.Pos { return d.TypePos }
func (d *VarDecl) declNode()       {}

// Param is one function parameter.
type Param struct {
	Type    CType
	Name    string
	NamePos ctoken.Pos
}

// FuncDecl is a function definition.
type FuncDecl struct {
	TypePos ctoken.Pos
	Result  CType
	Name    string
	NamePos ctoken.Pos
	Params  []Param
	Body    *Block
}

// Pos implements Node.
func (d *FuncDecl) Pos() ctoken.Pos { return d.TypePos }
func (d *FuncDecl) declNode()       {}

// Program is one parsed source file.
type Program struct {
	Decls []Decl
}

// Macros returns the macro declarations in order.
func (p *Program) Macros() []*MacroDecl {
	var out []*MacroDecl
	for _, d := range p.Decls {
		if m, ok := d.(*MacroDecl); ok {
			out = append(out, m)
		}
	}
	return out
}

// Funcs returns the function definitions in order.
func (p *Program) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range p.Decls {
		if f, ok := d.(*FuncDecl); ok {
			out = append(out, f)
		}
	}
	return out
}

// Func looks a function up by name.
func (p *Program) Func(name string) *FuncDecl {
	for _, d := range p.Decls {
		if f, ok := d.(*FuncDecl); ok && f.Name == name {
			return f
		}
	}
	return nil
}

// Stmt is a statement.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a brace-delimited statement list.
type Block struct {
	LBrace ctoken.Pos
	Stmts  []Stmt
}

// Pos implements Node.
func (s *Block) Pos() ctoken.Pos { return s.LBrace }
func (s *Block) stmtNode()       {}

// DeclStmt is a local variable declaration.
type DeclStmt struct {
	Decl *VarDecl
}

// Pos implements Node.
func (s *DeclStmt) Pos() ctoken.Pos { return s.Decl.TypePos }
func (s *DeclStmt) stmtNode()       {}

// ExprStmt is an expression evaluated for effect (a call).
type ExprStmt struct {
	X Expr
}

// Pos implements Node.
func (s *ExprStmt) Pos() ctoken.Pos { return s.X.Pos() }
func (s *ExprStmt) stmtNode()       {}

// AssignStmt is "lhs op rhs" for = |= &= ^= <<= >>= += -=.
type AssignStmt struct {
	LHS *Ident
	Op  ctoken.Kind
	RHS Expr
}

// Pos implements Node.
func (s *AssignStmt) Pos() ctoken.Pos { return s.LHS.NamePos }
func (s *AssignStmt) stmtNode()       {}

// IncDecStmt is "x++" or "x--".
type IncDecStmt struct {
	X  *Ident
	Op ctoken.Kind
}

// Pos implements Node.
func (s *IncDecStmt) Pos() ctoken.Pos { return s.X.NamePos }
func (s *IncDecStmt) stmtNode()       {}

// IfStmt is a conditional.
type IfStmt struct {
	IfPos ctoken.Pos
	Cond  Expr
	Then  Stmt
	Else  Stmt // may be nil
}

// Pos implements Node.
func (s *IfStmt) Pos() ctoken.Pos { return s.IfPos }
func (s *IfStmt) stmtNode()       {}

// WhileStmt is a while loop.
type WhileStmt struct {
	WhilePos ctoken.Pos
	Cond     Expr
	Body     Stmt
}

// Pos implements Node.
func (s *WhileStmt) Pos() ctoken.Pos { return s.WhilePos }
func (s *WhileStmt) stmtNode()       {}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	DoPos ctoken.Pos
	Body  Stmt
	Cond  Expr
}

// Pos implements Node.
func (s *DoWhileStmt) Pos() ctoken.Pos { return s.DoPos }
func (s *DoWhileStmt) stmtNode()       {}

// ForStmt is a for loop; any of Init, Cond, Post may be nil.
type ForStmt struct {
	ForPos ctoken.Pos
	Init   Stmt
	Cond   Expr
	Post   Stmt
	Body   Stmt
}

// Pos implements Node.
func (s *ForStmt) Pos() ctoken.Pos { return s.ForPos }
func (s *ForStmt) stmtNode()       {}

// CaseClause is one arm of a switch; Values is nil for default.
type CaseClause struct {
	CasePos ctoken.Pos
	Values  []Expr
	Stmts   []Stmt
}

// SwitchStmt is a switch with implicit break at clause end (the subset does
// not support fallthrough, which the driver corpus does not use).
type SwitchStmt struct {
	SwitchPos ctoken.Pos
	Tag       Expr
	Clauses   []*CaseClause
}

// Pos implements Node.
func (s *SwitchStmt) Pos() ctoken.Pos { return s.SwitchPos }
func (s *SwitchStmt) stmtNode()       {}

// BreakStmt exits the innermost loop or switch.
type BreakStmt struct {
	KwPos ctoken.Pos
}

// Pos implements Node.
func (s *BreakStmt) Pos() ctoken.Pos { return s.KwPos }
func (s *BreakStmt) stmtNode()       {}

// ContinueStmt restarts the innermost loop.
type ContinueStmt struct {
	KwPos ctoken.Pos
}

// Pos implements Node.
func (s *ContinueStmt) Pos() ctoken.Pos { return s.KwPos }
func (s *ContinueStmt) stmtNode()       {}

// ReturnStmt returns from the current function.
type ReturnStmt struct {
	KwPos ctoken.Pos
	X     Expr // may be nil
}

// Pos implements Node.
func (s *ReturnStmt) Pos() ctoken.Pos { return s.KwPos }
func (s *ReturnStmt) stmtNode()       {}

// Expr is an expression.
type Expr interface {
	Node
	exprNode()
}

// IntLit is an integer literal of any C base.
type IntLit struct {
	LitPos ctoken.Pos
	Value  int64
	// Base records the literal's base kind for diagnostics.
	Base ctoken.Kind
}

// Pos implements Node.
func (e *IntLit) Pos() ctoken.Pos { return e.LitPos }
func (e *IntLit) exprNode()       {}

// StringLit is a string literal (panic/printk arguments only).
type StringLit struct {
	LitPos ctoken.Pos
	Value  string
}

// Pos implements Node.
func (e *StringLit) Pos() ctoken.Pos { return e.LitPos }
func (e *StringLit) exprNode()       {}

// Ident references a macro, variable or enum constant.
type Ident struct {
	NamePos ctoken.Pos
	Name    string
}

// Pos implements Node.
func (e *Ident) Pos() ctoken.Pos { return e.NamePos }
func (e *Ident) exprNode()       {}

// CallExpr is a direct call to a named function, builtin or stub.
type CallExpr struct {
	NamePos ctoken.Pos
	Name    string
	Args    []Expr
}

// Pos implements Node.
func (e *CallExpr) Pos() ctoken.Pos { return e.NamePos }
func (e *CallExpr) exprNode()       {}

// UnaryExpr is !x, ~x or -x.
type UnaryExpr struct {
	OpPos ctoken.Pos
	Op    ctoken.Kind
	X     Expr
}

// Pos implements Node.
func (e *UnaryExpr) Pos() ctoken.Pos { return e.OpPos }
func (e *UnaryExpr) exprNode()       {}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	OpPos ctoken.Pos
	Op    ctoken.Kind
	X, Y  Expr
}

// Pos implements Node.
func (e *BinaryExpr) Pos() ctoken.Pos { return e.X.Pos() }
func (e *BinaryExpr) exprNode()       {}

// CondExpr is the ternary conditional.
type CondExpr struct {
	Cond, Then, Else Expr
}

// Pos implements Node.
func (e *CondExpr) Pos() ctoken.Pos { return e.Cond.Pos() }
func (e *CondExpr) exprNode()       {}

// CastExpr is "(type) x".
type CastExpr struct {
	LParen ctoken.Pos
	To     CType
	X      Expr
}

// Pos implements Node.
func (e *CastExpr) Pos() ctoken.Pos { return e.LParen }
func (e *CastExpr) exprNode()       {}
