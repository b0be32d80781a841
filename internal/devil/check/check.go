// Package check implements the consistency verification of Devil
// specifications described in §2.2 of the paper.
//
// Devil is layered — ports, registers, device variables — and each layer
// introduces information exactly once, so redundancy across layers opens
// verification opportunities. The checker enforces:
//
// Intra-layer properties:
//   - uniqueness of port parameters, registers, variables, and of symbolic
//     names and bit patterns within an enumerated type;
//   - size correctness: register size vs port data width, mask length vs
//     register size, fragment bit ranges vs register size, variable type
//     width vs assembled fragment width, enum pattern width vs variable
//     width, port offsets vs the declared port range;
//   - pre-action validity: the variable exists, is writable, and the value
//     is representable in its type.
//
// Inter-layer properties:
//   - read/write attribute consistency between a variable and the registers
//     it is assembled from, and between a variable and its type mappings;
//   - exhaustiveness of read mappings of enumerated types;
//   - no omission: every port parameter, every offset of a ranged port,
//     every register, and every relevant register bit must be used;
//   - no overlap: a port is touched by at most one register per direction
//     unless the registers carry disjoint pre-actions or masks, and no
//     register bit feeds two different variables.
package check

import (
	"fmt"

	"repro/internal/devil/ast"
	"repro/internal/devil/token"
)

// Error is a semantic diagnostic produced by the checker.
type Error struct {
	Pos  token.Pos
	Rule string // short rule identifier, e.g. "uniqueness", "no-overlap"
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Pos, e.Rule, e.Msg)
}

// ErrorList is the ordered set of diagnostics from one check.
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

// VarInfo is the resolved view of one device variable.
type VarInfo struct {
	Decl      *ast.Variable
	Width     int             // total width in bits of the assembled fragments
	Mode      ast.Access      // effective access mode (intersection over fragments)
	Fragments []*FragmentInfo // most-significant first
}

// FragmentInfo resolves one fragment of a variable to its register.
type FragmentInfo struct {
	Frag  *ast.Fragment
	Reg   *ast.Register
	Hi    int // resolved most-significant bit (inclusive)
	Lo    int // resolved least-significant bit (inclusive)
	Width int
}

// Info is the product of a successful check: symbol tables and resolved
// variable layouts that the code generator consumes.
type Info struct {
	Device    *ast.Device
	Params    map[string]*ast.PortParam
	Registers map[string]*ast.Register
	Variables map[string]*VarInfo
	// VarOrder lists variable names in declaration order.
	VarOrder []string
	// TypeIDs assigns each variable's type a specification-unique counter,
	// mirroring the "type" field of the paper's debug stub structures.
	TypeIDs map[string]int
}

type checker struct {
	dev    *ast.Device
	info   *Info
	errors ErrorList
}

// Check verifies dev and returns the resolved Info. Info is non-nil even on
// error (best-effort resolution) so tooling can still inspect partial
// results; callers must treat a non-empty ErrorList as failure.
func Check(dev *ast.Device) (*Info, ErrorList) {
	c := &checker{
		dev: dev,
		info: &Info{
			Device:    dev,
			Params:    make(map[string]*ast.PortParam),
			Registers: make(map[string]*ast.Register),
			Variables: make(map[string]*VarInfo),
			TypeIDs:   make(map[string]int),
		},
	}
	c.collect()
	c.checkRegisters()
	c.checkVariables()
	c.checkPreActions()
	c.checkNoOmission()
	c.checkNoOverlap()
	return c.info, c.errors
}

func (c *checker) errorf(pos token.Pos, rule, format string, args ...interface{}) {
	c.errors = append(c.errors, &Error{Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// collect builds symbol tables and enforces uniqueness.
func (c *checker) collect() {
	for _, p := range c.dev.Params {
		if prev, ok := c.info.Params[p.Name]; ok {
			c.errorf(p.NamePos, "uniqueness",
				"port parameter %s redeclared (first at %s)", p.Name, prev.NamePos)
			continue
		}
		c.info.Params[p.Name] = p
		if p.RangeHi < p.RangeLo {
			c.errorf(p.NamePos, "size",
				"port %s: empty offset range {%d..%d}", p.Name, p.RangeLo, p.RangeHi)
		} else if portRangeTooLarge(p) {
			c.errorf(p.NamePos, "size",
				"port %s: offset range {%d..%d} exceeds %d offsets", p.Name, p.RangeLo, p.RangeHi, maxPortRange)
		}
		switch p.DataBits {
		case 8, 16, 32:
		default:
			c.errorf(p.NamePos, "size",
				"port %s: unsupported data width bit[%d] (want 8, 16 or 32)", p.Name, p.DataBits)
		}
	}
	if len(c.dev.Params) == 0 {
		c.errorf(c.dev.NamePos, "no-omission", "device %s declares no port parameters", c.dev.Name)
	}
	for _, r := range c.dev.Registers() {
		if prev, ok := c.info.Registers[r.Name]; ok {
			c.errorf(r.NamePos, "uniqueness",
				"register %s redeclared (first at %s)", r.Name, prev.NamePos)
			continue
		}
		if _, clash := c.info.Params[r.Name]; clash {
			c.errorf(r.NamePos, "uniqueness", "register %s shadows a port parameter", r.Name)
		}
		c.info.Registers[r.Name] = r
	}
	typeID := 1
	for _, v := range c.dev.Variables() {
		if prev, ok := c.info.Variables[v.Name]; ok {
			c.errorf(v.NamePos, "uniqueness",
				"variable %s redeclared (first at %s)", v.Name, prev.Decl.NamePos)
			continue
		}
		if _, clash := c.info.Registers[v.Name]; clash {
			c.errorf(v.NamePos, "uniqueness", "variable %s shadows a register", v.Name)
		}
		c.info.Variables[v.Name] = &VarInfo{Decl: v}
		c.info.VarOrder = append(c.info.VarOrder, v.Name)
		c.info.TypeIDs[v.Name] = typeID
		typeID++
	}
}

// maxPortRange bounds a port parameter's offset range: the no-omission
// rule checks every offset, and a device's register window is small.
const maxPortRange = 1 << 16

func portRangeTooLarge(p *ast.PortParam) bool {
	return p.RangeHi >= p.RangeLo && uint64(p.RangeHi-p.RangeLo) >= maxPortRange
}

// checkPortRef validates that a port reference names a declared parameter
// with the offset inside the declared range, and returns the parameter.
func (c *checker) checkPortRef(ref *ast.PortRef, regName string) *ast.PortParam {
	p, ok := c.info.Params[ref.Name]
	if !ok {
		c.errorf(ref.NamePos, "type",
			"register %s: unknown port parameter %s", regName, ref.Name)
		return nil
	}
	if ref.Offset < p.RangeLo || ref.Offset > p.RangeHi {
		c.errorf(ref.NamePos, "size",
			"register %s: offset %d outside range {%d..%d} of port %s",
			regName, ref.Offset, p.RangeLo, p.RangeHi, ref.Name)
	}
	return p
}

func (c *checker) checkRegisters() {
	for _, r := range c.dev.Registers() {
		if r.Size <= 0 || r.Size > 32 {
			c.errorf(r.NamePos, "size",
				"register %s: invalid size bit[%d]", r.Name, r.Size)
			continue
		}
		if r.Mode.CanRead() && r.ReadPort != nil {
			if p := c.checkPortRef(r.ReadPort, r.Name); p != nil && p.DataBits != r.Size {
				c.errorf(r.NamePos, "size",
					"register %s: size bit[%d] does not match %d-bit data width of port %s",
					r.Name, r.Size, p.DataBits, p.Name)
			}
		}
		if r.Mode.CanWrite() && r.WritePort != nil {
			if p := c.checkPortRef(r.WritePort, r.Name); p != nil && p.DataBits != r.Size {
				// Avoid a duplicate diagnostic when read and write share a port.
				if !(r.Mode.CanRead() && r.ReadPort == r.WritePort) {
					c.errorf(r.NamePos, "size",
						"register %s: size bit[%d] does not match %d-bit data width of port %s",
						r.Name, r.Size, p.DataBits, p.Name)
				}
			}
		}
		if r.Mask != "" && len(r.Mask) != r.Size {
			c.errorf(r.MaskPos, "size",
				"register %s: mask %q has %d bits, register is bit[%d]",
				r.Name, r.Mask, len(r.Mask), r.Size)
		}
	}
}

// fragmentWidth resolves one fragment against its register.
func (c *checker) resolveFragment(v *ast.Variable, f *ast.Fragment) *FragmentInfo {
	r, ok := c.info.Registers[f.Reg]
	if !ok {
		c.errorf(f.RegPos, "type",
			"variable %s: unknown register %s", v.Name, f.Reg)
		return nil
	}
	hi, lo := f.Hi, f.Lo
	if f.Whole() {
		hi, lo = r.Size-1, 0
	}
	if lo > hi {
		c.errorf(f.RegPos, "size",
			"variable %s: reversed bit range %s[%d..%d]", v.Name, f.Reg, f.Hi, f.Lo)
		hi, lo = lo, hi
	}
	if hi >= r.Size {
		c.errorf(f.RegPos, "size",
			"variable %s: bit %d outside register %s (bit[%d])", v.Name, hi, f.Reg, r.Size)
		return nil
	}
	return &FragmentInfo{Frag: f, Reg: r, Hi: hi, Lo: lo, Width: hi - lo + 1}
}

func (c *checker) checkVariables() {
	for _, name := range c.info.VarOrder {
		vi := c.info.Variables[name]
		v := vi.Decl
		mode := ast.ReadWrite
		valid := true
		for _, f := range v.Fragments {
			fi := c.resolveFragment(v, f)
			if fi == nil {
				valid = false
				continue
			}
			vi.Fragments = append(vi.Fragments, fi)
			vi.Width += fi.Width
			mode = intersectMode(mode, fi.Reg.Mode)
		}
		if !valid {
			continue
		}
		if mode == 0 {
			c.errorf(v.NamePos, "attribute",
				"variable %s combines read-only and write-only registers; no access mode remains",
				v.Name)
			vi.Mode = ast.ReadWrite // keep resolving
		} else {
			vi.Mode = mode
		}
		c.checkMaskedBitsRelevant(vi)
		c.checkVariableType(vi)
	}
}

// intersectMode intersects access capabilities; 0 means the empty mode.
func intersectMode(a, b ast.Access) ast.Access {
	canRead := a.CanRead() && b.CanRead()
	canWrite := a.CanWrite() && b.CanWrite()
	switch {
	case canRead && canWrite:
		return ast.ReadWrite
	case canRead:
		return ast.ReadOnly
	case canWrite:
		return ast.WriteOnly
	default:
		return 0
	}
}

// maskAt returns the mask character governing bit i (LSB = 0) of register r;
// '.' (relevant) when the register has no mask.
func maskAt(r *ast.Register, bit int) byte {
	if r.Mask == "" {
		return '.'
	}
	idx := len(r.Mask) - 1 - bit
	if idx < 0 || idx >= len(r.Mask) {
		return '.'
	}
	return r.Mask[idx]
}

// checkMaskedBitsRelevant rejects variables built from bits the register
// mask declares irrelevant or fixed.
func (c *checker) checkMaskedBitsRelevant(vi *VarInfo) {
	for _, fi := range vi.Fragments {
		for b := fi.Lo; b <= fi.Hi; b++ {
			if m := maskAt(fi.Reg, b); m != '.' {
				c.errorf(fi.Frag.RegPos, "type",
					"variable %s uses bit %d of register %s, which the mask marks %q",
					vi.Decl.Name, b, fi.Reg.Name, string(m))
			}
		}
	}
}

func (c *checker) checkVariableType(vi *VarInfo) {
	v := vi.Decl
	t := v.Type
	if t == nil {
		c.errorf(v.NamePos, "type", "variable %s has no type", v.Name)
		return
	}
	switch t.Kind {
	case ast.TypeBool:
		if vi.Width != 1 {
			c.errorf(t.TypePos, "size",
				"variable %s: bool requires 1 bit, fragments supply %d", v.Name, vi.Width)
		}
	case ast.TypeInt:
		if t.Bits != vi.Width {
			c.errorf(t.TypePos, "size",
				"variable %s: type %s does not match fragment width %d",
				v.Name, t, vi.Width)
		}
		if t.Bits <= 0 || t.Bits > 32 {
			c.errorf(t.TypePos, "size", "variable %s: invalid int width %d", v.Name, t.Bits)
		}
	case ast.TypeIntSet:
		if len(t.Set) == 0 {
			c.errorf(t.TypePos, "type", "variable %s: empty integer set", v.Name)
		}
		seen := make(map[int64]bool, len(t.Set))
		var maxVal int64
		if vi.Width < 63 {
			maxVal = (1 << uint(vi.Width)) - 1
		} else {
			maxVal = 1<<62 - 1
		}
		for _, val := range t.Set {
			if seen[val] {
				c.errorf(t.TypePos, "uniqueness",
					"variable %s: duplicate value %d in integer set", v.Name, val)
			}
			seen[val] = true
			if val < 0 || val > maxVal {
				c.errorf(t.TypePos, "size",
					"variable %s: set value %d not representable in %d bit(s)",
					v.Name, val, vi.Width)
			}
		}
	case ast.TypeEnum:
		c.checkEnumType(vi)
	}
	// Type direction vs variable mode: a readable mapping requires a
	// readable variable, and symmetrically for writing (§2.2 inter-layer).
	if t.Kind == ast.TypeEnum {
		for _, cs := range t.Cases {
			if (cs.Dir == token.MapFrom || cs.Dir == token.MapBoth) && !vi.Mode.CanRead() {
				c.errorf(cs.NamePos, "attribute",
					"variable %s: read mapping %s on a %s variable",
					v.Name, cs.Name, vi.Mode)
			}
			if (cs.Dir == token.MapTo || cs.Dir == token.MapBoth) && !vi.Mode.CanWrite() {
				c.errorf(cs.NamePos, "attribute",
					"variable %s: write mapping %s on a %s variable",
					v.Name, cs.Name, vi.Mode)
			}
		}
	}
}

// patternMatches reports whether a concrete value matches an enum bit
// pattern ('*' is a wildcard; width is the variable width).
func patternMatches(pattern string, value uint32, width int) bool {
	for i := 0; i < width; i++ {
		bit := (value >> uint(width-1-i)) & 1
		switch pattern[i] {
		case '0':
			if bit != 0 {
				return false
			}
		case '1':
			if bit != 1 {
				return false
			}
		case '*':
		default:
			return false
		}
	}
	return true
}

func (c *checker) checkEnumType(vi *VarInfo) {
	v := vi.Decl
	t := v.Type
	if len(t.Cases) == 0 {
		c.errorf(t.TypePos, "type", "variable %s: empty enumerated type", v.Name)
		return
	}
	names := make(map[string]bool, len(t.Cases))
	for _, cs := range t.Cases {
		if names[cs.Name] {
			c.errorf(cs.NamePos, "uniqueness",
				"variable %s: duplicate enum name %s", v.Name, cs.Name)
		}
		names[cs.Name] = true
		if cs.Pattern == "" {
			continue // parse error already reported
		}
		if len(cs.Pattern) != vi.Width {
			c.errorf(cs.PatPos, "size",
				"variable %s: enum pattern %q has %d bits, variable has %d",
				v.Name, cs.Pattern, len(cs.Pattern), vi.Width)
		}
		for i := 0; i < len(cs.Pattern); i++ {
			if ch := cs.Pattern[i]; ch != '0' && ch != '1' && ch != '*' {
				c.errorf(cs.PatPos, "type",
					"variable %s: enum pattern %q contains %q", v.Name, cs.Pattern, string(ch))
			}
		}
	}
	// Distinct write patterns must not be ambiguous... distinct read
	// patterns must not overlap (a value decodable as two names).
	if vi.Width <= 0 || vi.Width > 16 {
		return // coverage enumeration only for small variables
	}
	total := uint32(1) << uint(vi.Width)
	readCases := make([]*ast.EnumCase, 0, len(t.Cases))
	for _, cs := range t.Cases {
		if len(cs.Pattern) != vi.Width {
			return // size error already reported; coverage meaningless
		}
		if cs.Dir == token.MapFrom || cs.Dir == token.MapBoth {
			readCases = append(readCases, cs)
		}
	}
	for val := uint32(0); val < total; val++ {
		var matches []*ast.EnumCase
		for _, cs := range readCases {
			if patternMatches(cs.Pattern, val, vi.Width) {
				matches = append(matches, cs)
			}
		}
		if len(matches) > 1 {
			c.errorf(matches[1].PatPos, "uniqueness",
				"variable %s: value %d matches both %s and %s when read",
				v.Name, val, matches[0].Name, matches[1].Name)
		}
		// §2.2: "Read elements of a type mapping must be exhaustive."
		if len(readCases) > 0 && len(matches) == 0 && vi.Mode.CanRead() {
			c.errorf(t.TypePos, "no-omission",
				"variable %s: read mapping is not exhaustive (value %d unmapped)",
				v.Name, val)
			return // one diagnostic suffices
		}
	}
	// A readable enum variable must have at least one read mapping.
	if vi.Mode == ast.ReadOnly && len(readCases) == 0 {
		c.errorf(t.TypePos, "attribute",
			"variable %s is read-only but its type has no read mapping", v.Name)
	}
}

func (c *checker) checkPreActions() {
	for _, r := range c.dev.Registers() {
		for _, pa := range r.Pre {
			vi, ok := c.info.Variables[pa.Var]
			if !ok {
				c.errorf(pa.VarPos, "type",
					"register %s: pre-action sets unknown variable %s", r.Name, pa.Var)
				continue
			}
			if !vi.Mode.CanWrite() {
				c.errorf(pa.VarPos, "attribute",
					"register %s: pre-action sets unwritable variable %s", r.Name, pa.Var)
			}
			if vi.Width > 0 && vi.Width < 32 {
				if pa.Value < 0 || pa.Value >= int64(1)<<uint(vi.Width) {
					c.errorf(pa.VarPos, "size",
						"register %s: pre-action value %d not representable in %s (int(%d))",
						r.Name, pa.Value, pa.Var, vi.Width)
				}
			}
			// Pre-actions must not set a variable derived from the register
			// they guard (that would recurse).
			for _, fi := range vi.Fragments {
				if fi.Reg == r {
					c.errorf(pa.VarPos, "type",
						"register %s: pre-action variable %s is derived from %s itself",
						r.Name, pa.Var, r.Name)
				}
			}
		}
	}
}

// checkNoOmission enforces the §2.2 no-omission constraints.
func (c *checker) checkNoOmission() {
	// Every port parameter (and every offset of its range) must be used.
	type portUse struct{ used map[int64]bool }
	uses := make(map[string]*portUse, len(c.info.Params))
	for name := range c.info.Params {
		uses[name] = &portUse{used: make(map[int64]bool)}
	}
	for _, r := range c.dev.Registers() {
		for _, ref := range []*ast.PortRef{r.ReadPort, r.WritePort} {
			if ref == nil {
				continue
			}
			if u, ok := uses[ref.Name]; ok {
				u.used[ref.Offset] = true
			}
		}
	}
	for _, p := range c.dev.Params {
		u := uses[p.Name]
		if len(u.used) == 0 {
			c.errorf(p.NamePos, "no-omission",
				"port parameter %s is never used by a register", p.Name)
			continue
		}
		if p.RangeHi < p.RangeLo || portRangeTooLarge(p) {
			continue // size error already reported
		}
		for n := p.RangeHi - p.RangeLo; n >= 0; n-- {
			if off := p.RangeHi - n; !u.used[off] {
				c.errorf(p.NamePos, "no-omission",
					"offset %d of port %s is not used by any register", off, p.Name)
			}
		}
	}

	// Every register must contribute to a variable, and every relevant bit
	// of every register must be used by some variable.
	used := make(map[string][]bool, len(c.info.Registers))
	for name, r := range c.info.Registers {
		if r.Size > 0 && r.Size <= 32 {
			used[name] = make([]bool, r.Size)
		}
	}
	for _, name := range c.info.VarOrder {
		for _, fi := range c.info.Variables[name].Fragments {
			bits, ok := used[fi.Reg.Name]
			if !ok {
				continue
			}
			for b := fi.Lo; b <= fi.Hi && b < len(bits); b++ {
				bits[b] = true
			}
		}
	}
	for _, r := range c.dev.Registers() {
		bits, ok := used[r.Name]
		if !ok {
			continue
		}
		anyUsed := false
		for _, u := range bits {
			if u {
				anyUsed = true
				break
			}
		}
		if !anyUsed {
			c.errorf(r.NamePos, "no-omission",
				"register %s is not used by any variable", r.Name)
			continue
		}
		for b, u := range bits {
			if !u && maskAt(r, b) == '.' {
				c.errorf(r.NamePos, "no-omission",
					"bit %d of register %s is relevant but unused", b, r.Name)
			}
		}
	}
}

// preActionsDisjoint reports whether two registers are distinguished by
// their pre-actions: some shared pre-variable is set to different values.
func preActionsDisjoint(a, b *ast.Register) bool {
	for _, pa := range a.Pre {
		for _, pb := range b.Pre {
			if pa.Var == pb.Var && pa.Value != pb.Value {
				return true
			}
		}
	}
	return false
}

// masksDisjoint reports whether two registers of equal size have masks whose
// relevant bits do not intersect.
func masksDisjoint(a, b *ast.Register) bool {
	if a.Size != b.Size || a.Mask == "" || b.Mask == "" {
		return false
	}
	for bit := 0; bit < a.Size; bit++ {
		if maskAt(a, bit) == '.' && maskAt(b, bit) == '.' {
			return false
		}
	}
	return true
}

// checkNoOverlap enforces the §2.2 no-overlap constraints.
func (c *checker) checkNoOverlap() {
	regs := c.dev.Registers()
	// Port overlap, per direction.
	for dir := 0; dir < 2; dir++ {
		type claim struct {
			reg *ast.Register
			ref *ast.PortRef
		}
		claims := make(map[string][]claim)
		for _, r := range regs {
			var ref *ast.PortRef
			if dir == 0 && r.Mode.CanRead() {
				ref = r.ReadPort
			} else if dir == 1 && r.Mode.CanWrite() {
				ref = r.WritePort
			}
			if ref == nil {
				continue
			}
			key := fmt.Sprintf("%s@%d", ref.Name, ref.Offset)
			for _, prev := range claims[key] {
				if preActionsDisjoint(prev.reg, r) || masksDisjoint(prev.reg, r) {
					continue
				}
				dirName := "reading"
				if dir == 1 {
					dirName = "writing"
				}
				c.errorf(ref.NamePos, "no-overlap",
					"registers %s and %s both use port %s for %s without disjoint pre-actions or masks",
					prev.reg.Name, r.Name, key, dirName)
			}
			claims[key] = append(claims[key], claim{reg: r, ref: ref})
		}
	}

	// Variable bit overlap: no register bit in two different variables.
	type bitOwner struct {
		varName string
		pos     token.Pos
	}
	owners := make(map[string]map[int]bitOwner)
	for _, name := range c.info.VarOrder {
		for _, fi := range c.info.Variables[name].Fragments {
			m, ok := owners[fi.Reg.Name]
			if !ok {
				m = make(map[int]bitOwner)
				owners[fi.Reg.Name] = m
			}
			for b := fi.Lo; b <= fi.Hi; b++ {
				if prev, taken := m[b]; taken && prev.varName != name {
					c.errorf(fi.Frag.RegPos, "no-overlap",
						"bit %d of register %s used by both %s and %s",
						b, fi.Reg.Name, prev.varName, name)
				} else {
					m[b] = bitOwner{varName: name, pos: fi.Frag.RegPos}
				}
			}
		}
	}
}
