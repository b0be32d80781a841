// Package codegen turns a checked Devil specification into executable stubs.
//
// The paper's compiler emits C: inline functions that perform the port I/O,
// masking, shifting and concatenation for each register and device variable,
// in either production mode (minimal checking, maximal speed) or debug mode
// (each Devil type becomes a distinct struct type so misuse is a
// compile-time error, and the stubs carry run-time assertions).
//
// Here the generated artefact is a Stubs object whose Get/Set/Eq methods
// implement exactly the semantics of those C functions against a simulated
// hw.Bus. Like the C stubs, whose ports, masks, shifts and pre-actions are
// constants of the generated text, every register and variable is compiled
// once into an access plan, so a stub call resolves nothing at run time.
// The same object also publishes the typed interface (signatures of
// every stub and enum constant) that the strict mini-C front end uses to
// reproduce the compile-time checking of debug mode, and the C emitter in
// this package renders the Figure-4 style source text for inspection.
package codegen

import (
	"fmt"
	"sort"

	"repro/internal/devil/ast"
	"repro/internal/devil/check"
	"repro/internal/devil/token"
	"repro/internal/hw"
)

// Mode selects production or debug stub generation.
type Mode int

// Generation modes.
const (
	// Production stubs perform the raw I/O with no checking.
	Production Mode = iota + 1
	// Debug stubs verify types, value ranges and device behaviour at run
	// time, and expose distinct types so misuse fails to compile.
	Debug
)

// String names the mode.
func (m Mode) String() string {
	if m == Debug {
		return "debug"
	}
	return "production"
}

// Config parameterises stub generation for a concrete hardware context.
type Config struct {
	// Bus is the I/O fabric the stubs operate on.
	Bus *hw.Bus
	// Bases binds each port parameter of the device declaration to a
	// physical base port.
	Bases map[string]hw.Port
	// Mode selects production or debug stubs.
	Mode Mode
}

// Value is a typed Devil value: the Go analogue of the per-type C structs
// the debug stubs generate (Figure 4's Drive_t_ with filename, type and
// val fields). Type 0 denotes an untyped C integer.
type Value struct {
	// File is the specification the type belongs to (the __FILE__ field).
	File string
	// Type is the specification-unique type counter; 0 = untyped integer.
	Type int
	// Val is the raw bit representation (two's complement for signed).
	Val uint32
	// Raw carries the full-precision integer for untyped values, used for
	// range checking when an untyped C int flows into a sized variable.
	Raw int64
}

// Untyped reports whether the value is a plain C integer.
func (v Value) Untyped() bool { return v.Type == 0 }

// UntypedInt builds an untyped integer value, as produced by C integer
// expressions in the CDevil glue.
func UntypedInt(x int64) Value {
	return Value{Val: uint32(x), Raw: x}
}

// AssertError is a Devil run-time assertion failure (the paper's
// dil_assert/panic path). The kernel classifies it as "Run-time check" —
// the best possible outcome for an injected error.
type AssertError struct {
	Variable string
	Msg      string
}

// Error implements the error interface.
func (e *AssertError) Error() string {
	return fmt.Sprintf("Devil assertion failed: %s: %s", e.Variable, e.Msg)
}

// VarKind classifies a variable's Devil type for interface publication.
type VarKind int

// Variable type kinds, mirrored from the AST for consumers that should not
// depend on the AST package.
const (
	KindInt VarKind = iota + 1
	KindSignedInt
	KindEnum
	KindIntSet
	KindBool
)

// VarSig describes one public device variable for the strict C front end.
type VarSig struct {
	Name     string
	TypeID   int
	Kind     VarKind
	Width    int
	Readable bool
	Writable bool
	// Block reports that the variable is a data FIFO (a volatile,
	// whole-register integer variable), for which the compiler also
	// generates block-transfer stubs (get_block_X / set_block_X) that move
	// a run of values between the device and the kernel transfer buffer —
	// Devil's answer to the hand-written insw/outsw loops of C drivers.
	Block bool
	// Consts lists the enum constant names of this variable's type.
	Consts []string
}

// Interface is the typed surface a generated stub set exposes to drivers.
type Interface struct {
	SpecFile string
	// Vars lists the public variables in declaration order.
	Vars []VarSig
	// Consts maps every enum constant name to its variable.
	Consts map[string]string
}

// Stubs is the generated, executable stub set for one device instance.
type Stubs struct {
	filename string
	mode     Mode
	bus      *hw.Bus
	// cache holds the last value written to each register, indexed by the
	// register plan's slot and seeded with the mask-fixed bits — the
	// generated C keeps the same cache struct so that read-modify-write of
	// write-only registers is possible.
	cache []uint32
	// seed is the power-on cache contents Reset restores.
	seed []uint32
	// regs holds the register plans in slot (register name) order.
	regs []regPlan
	// vars maps every variable, private ones included, to its access plan.
	vars map[string]*Accessor
	// preDepth counts the pre-action chains in progress; it bounds the
	// cycles the checker does not reject (a pre-action variable living in
	// a register whose own pre-actions lead back).
	preDepth int
	// consts maps enum constant names to their typed values.
	consts map[string]Value
	// constVar maps enum constant names to their variable.
	constVar map[string]string
	iface    *Interface
}

// regPlan is one register's access plan, fixed at generation time.
type regPlan struct {
	name string
	// slot indexes the register in the stub set's cache.
	slot                int
	readPort, writePort hw.Port
	width               hw.AccessWidth
	// set and clear are the mask's write semantics: '1' bits are forced
	// set, '0' and '*' bits forced clear, '.' bits kept.
	set, clear uint32
	pre        []preAction
}

// preAction is a resolved register pre-action: store val into target
// before the register's port is touched.
type preAction struct {
	target *Accessor
	val    uint32
}

// fragPlan is one fragment of a variable: a bit field of a register.
type fragPlan struct {
	reg *regPlan
	// lo is the field's least-significant register bit, mask its width
	// mask, and width its width in bits.
	lo, width uint
	mask      uint32
	// shift places the field within the assembled variable value.
	shift uint
}

// readPattern is an enum read mapping compiled to bit masks: a value
// matches when value&care == want.
type readPattern struct {
	care, want uint32
}

// Generate builds the stub set for a checked specification, compiling every
// register and variable to its access plan.
func Generate(filename string, info *check.Info, cfg Config) (*Stubs, error) {
	if cfg.Bus == nil {
		return nil, fmt.Errorf("generate %s: no bus", filename)
	}
	if cfg.Mode != Production && cfg.Mode != Debug {
		return nil, fmt.Errorf("generate %s: invalid mode %d", filename, int(cfg.Mode))
	}
	for _, p := range info.Device.Params {
		if _, ok := cfg.Bases[p.Name]; !ok {
			return nil, fmt.Errorf("generate %s: port parameter %s not bound to a base address",
				filename, p.Name)
		}
	}
	s := &Stubs{
		filename: filename,
		mode:     cfg.Mode,
		bus:      cfg.Bus,
		vars:     make(map[string]*Accessor, len(info.Variables)),
		consts:   make(map[string]Value),
		constVar: make(map[string]string),
	}
	regs := s.planRegisters(info, cfg.Bases)
	for name, vi := range info.Variables {
		s.vars[name] = s.planVariable(vi, info.TypeIDs[name], regs)
	}
	for _, r := range info.Registers {
		rp := regs[r]
		for _, pa := range r.Pre {
			// The checker guarantees the pre-action variable exists.
			rp.pre = append(rp.pre, preAction{target: s.vars[pa.Var], val: uint32(pa.Value)})
		}
	}
	iface := &Interface{SpecFile: filename, Consts: make(map[string]string)}
	for _, name := range info.VarOrder {
		vi := info.Variables[name]
		if vi.Decl.Private {
			continue
		}
		sig := VarSig{
			Name:     name,
			TypeID:   info.TypeIDs[name],
			Kind:     kindOf(vi.Decl.Type),
			Width:    vi.Width,
			Readable: vi.Mode.CanRead(),
			Writable: vi.Mode.CanWrite(),
			Block: vi.Decl.Volatile && len(vi.Fragments) == 1 &&
				vi.Fragments[0].Frag.Whole() &&
				vi.Decl.Type.Kind == ast.TypeInt && !vi.Decl.Type.Signed &&
				(vi.Width == 16 || vi.Width == 32),
		}
		if vi.Decl.Type.Kind == ast.TypeEnum {
			for _, cs := range vi.Decl.Type.Cases {
				if prev, dup := s.constVar[cs.Name]; dup {
					return nil, fmt.Errorf("generate %s: enum constant %s defined by both %s and %s",
						filename, cs.Name, prev, name)
				}
				s.constVar[cs.Name] = name
				s.consts[cs.Name] = Value{
					File: filename,
					Type: sig.TypeID,
					Val:  encodePattern(cs.Pattern),
				}
				sig.Consts = append(sig.Consts, cs.Name)
				iface.Consts[cs.Name] = name
			}
		}
		iface.Vars = append(iface.Vars, sig)
	}
	s.iface = iface
	return s, nil
}

// planRegisters gives every register a cache slot, in name order, and
// resolves its ports, access width and write mask.
func (s *Stubs) planRegisters(info *check.Info, bases map[string]hw.Port) map[*ast.Register]*regPlan {
	names := make([]string, 0, len(info.Registers))
	for name := range info.Registers {
		names = append(names, name)
	}
	sort.Strings(names)
	s.regs = make([]regPlan, len(names))
	s.seed = make([]uint32, len(names))
	byReg := make(map[*ast.Register]*regPlan, len(names))
	for i, name := range names {
		r := info.Registers[name]
		rp := &s.regs[i]
		*rp = regPlan{
			name:      name,
			slot:      i,
			width:     accessWidth(r.Size),
			readPort:  port(bases, r.ReadPort),
			writePort: port(bases, r.WritePort),
		}
		for j := 0; j < len(r.Mask); j++ {
			bit := uint32(1) << uint(len(r.Mask)-1-j)
			switch r.Mask[j] {
			case '1':
				rp.set |= bit
			case '0', '*':
				rp.clear |= bit
			}
		}
		s.seed[i] = rp.set
		byReg[r] = rp
	}
	s.cache = append([]uint32(nil), s.seed...)
	return byReg
}

// port resolves a register's port reference to an absolute port; a nil
// reference (the unused side of a read- or write-only register) is 0. The
// checker guarantees the reference names a port parameter, and Generate
// that every parameter is bound.
func port(bases map[string]hw.Port, ref *ast.PortRef) hw.Port {
	if ref == nil {
		return 0
	}
	return bases[ref.Name] + hw.Port(ref.Offset)
}

// planVariable lays out a variable's fragments over the register plans and
// compiles its enum read mappings.
func (s *Stubs) planVariable(vi *check.VarInfo, typeID int, regs map[*ast.Register]*regPlan) *Accessor {
	a := &Accessor{
		s:      s,
		vi:     vi,
		typeID: typeID,
		frags:  make([]fragPlan, len(vi.Fragments)),
	}
	remaining := vi.Width
	for i, fi := range vi.Fragments {
		remaining -= fi.Width
		a.frags[i] = fragPlan{
			reg:   regs[fi.Reg],
			lo:    uint(fi.Lo),
			width: uint(fi.Width),
			mask:  loMask(fi.Width),
			shift: uint(remaining),
		}
	}
	if t := vi.Decl.Type; t.Kind == ast.TypeEnum {
		for _, cs := range t.Cases {
			if cs.Dir == token.MapTo {
				continue // write-only mapping
			}
			if p, ok := compilePattern(cs.Pattern, vi.Width); ok {
				a.reads = append(a.reads, p)
			}
		}
	}
	return a
}

// compilePattern turns an enum bit pattern over a width-bit value into its
// (care, want) masks; '*' bits are wildcards. ok is false for a pattern no
// value can match: one of the wrong length, or demanding a set bit above
// bit 31.
func compilePattern(pattern string, width int) (readPattern, bool) {
	var p readPattern
	if len(pattern) != width {
		return p, false
	}
	for i := 0; i < width; i++ {
		bit := width - 1 - i
		switch pattern[i] {
		case '0':
			if bit < 32 {
				p.care |= 1 << uint(bit)
			}
		case '1':
			if bit >= 32 {
				return p, false
			}
			p.care |= 1 << uint(bit)
			p.want |= 1 << uint(bit)
		}
	}
	return p, true
}

func kindOf(t *ast.TypeExpr) VarKind {
	switch t.Kind {
	case ast.TypeEnum:
		return KindEnum
	case ast.TypeIntSet:
		return KindIntSet
	case ast.TypeBool:
		return KindBool
	case ast.TypeInt:
		if t.Signed {
			return KindSignedInt
		}
		return KindInt
	}
	return KindInt
}

// encodePattern encodes an enum bit pattern as a concrete value, treating
// wildcard bits as zero (the generated C does the same when writing).
func encodePattern(pattern string) uint32 {
	var v uint32
	for i := 0; i < len(pattern); i++ {
		v <<= 1
		if pattern[i] == '1' {
			v |= 1
		}
	}
	return v
}

// fixedBits seeds a register cache with its mask's fixed write bits.
func fixedBits(r *ast.Register) uint32 {
	if r.Mask == "" {
		return 0
	}
	var v uint32
	for i := 0; i < len(r.Mask); i++ {
		v <<= 1
		if r.Mask[i] == '1' {
			v |= 1
		}
	}
	return v
}

// Interface returns the typed stub surface for the strict C front end.
func (s *Stubs) Interface() *Interface { return s.iface }

// Reset returns the register cache to its power-on seed — the state a
// freshly generated stub set starts from — so one generated stub set can
// be reused across boots instead of being regenerated per mutant.
func (s *Stubs) Reset() {
	copy(s.cache, s.seed)
	s.preDepth = 0
}

// Accessor is one device variable's access plan: its fragments over the
// register plans, its type and its compiled read mappings. Generate builds
// one per variable; Stubs.Get/Set run the same plan after a name lookup,
// and a compiled driver resolves each get_X/set_X call site to the handle
// once and then dispatches through it.
type Accessor struct {
	s      *Stubs
	vi     *check.VarInfo
	typeID int
	frags  []fragPlan // most-significant first
	// reads lists the enum read mappings a debug-mode read must match.
	reads []readPattern
}

// Accessor returns a public device variable's dispatch handle; ok is false
// for unknown or private variables (for which the compiler keeps the
// interpreter's undefined-call behaviour).
func (s *Stubs) Accessor(name string) (*Accessor, bool) {
	a, ok := s.vars[name]
	if !ok || a.vi.Decl.Private {
		return nil, false
	}
	return a, true
}

// Readable reports whether the variable can be read.
func (a *Accessor) Readable() bool { return a.vi.Mode.CanRead() }

// Writable reports whether the variable can be written.
func (a *Accessor) Writable() bool { return a.vi.Mode.CanWrite() }

// ModeString renders the variable's access mode (for error messages that
// must match the unresolved Get/Set paths byte for byte).
func (a *Accessor) ModeString() string { return fmt.Sprintf("%s", a.vi.Mode) }

// Get reads the variable: pre-actions, port reads, bit extraction and
// fragment concatenation. In debug mode the value is verified against the
// variable's type before being returned. The caller must have checked
// Readable.
func (a *Accessor) Get() (Value, error) {
	s := a.s
	var assembled uint32
	for i := range a.frags {
		f := &a.frags[i]
		raw, err := s.readReg(f.reg)
		if err != nil {
			return Value{}, err
		}
		assembled = assembled<<f.width | (raw>>f.lo)&f.mask
	}
	if s.mode == Debug {
		if err := a.assertRead(assembled); err != nil {
			return Value{}, err
		}
	}
	return Value{File: s.filename, Type: a.typeID, Val: assembled}, nil
}

// Steady predicts Get without making it (see hw.Bus.Steady): Get would
// return v now and at every clock time before until, with no side
// effect. ok is false on a bus with a fault injector, when a fragment's
// register has pre-actions, when the bus cannot predict a fragment's
// port, and in debug mode when v fails the read assertion, so that the
// Get that raises it is made. The caller accounts the Gets it skips
// with Skip.
func (a *Accessor) Steady() (v Value, until uint64, ok bool) {
	s := a.s
	if s.bus.Injector() != nil { // a Get's fragments roll separately
		return Value{}, 0, false
	}
	until = hw.Forever
	var assembled uint32
	for i := range a.frags {
		f := &a.frags[i]
		if len(f.reg.pre) > 0 {
			return Value{}, 0, false
		}
		raw, u, ok := s.bus.Steady(f.reg.readPort, f.reg.width)
		if !ok {
			return Value{}, 0, false
		}
		until = min(until, u)
		assembled = assembled<<f.width | (raw>>f.lo)&f.mask
	}
	if s.mode == Debug && a.assertRead(assembled) != nil {
		return Value{}, 0, false
	}
	return Value{File: s.filename, Type: a.typeID, Val: assembled}, until, true
}

// Skip accounts the Gets that Steady predicted before until, issued at
// first, first+per, …, at most max of them, as Get would, and returns
// how many: hw.Bus.Skip accounts that many reads of each fragment's
// port. Steady answers only on a bus without an injector, where every
// fragment skips the same count and a skipped read latches no value,
// so Skip passes none.
func (a *Accessor) Skip(max, first, per, until uint64) uint64 {
	for i := range a.frags {
		max = a.s.bus.Skip(a.frags[i].reg.readPort, 0, max, first, per, until)
	}
	return max
}

// Burst makes up to len(dst) Gets that do not depend on the clock (see
// hw.Bus.Burst), stores their values in dst and returns how many it
// made. Only a variable of one fragment whose register has no
// pre-actions bursts, and in debug mode only one whose read assertion
// no value can fail.
func (a *Accessor) Burst(dst []uint32) int {
	if len(a.frags) != 1 || len(a.frags[0].reg.pre) > 0 {
		return 0
	}
	if k := a.vi.Decl.Type.Kind; a.s.mode == Debug && (k == ast.TypeEnum || k == ast.TypeIntSet) {
		return 0
	}
	f := &a.frags[0]
	n := a.s.bus.Burst(f.reg.readPort, f.reg.width, dst)
	if f.lo != 0 || f.width < uint(f.reg.width) {
		// The field is not the whole bus-masked read.
		for i := range dst[:n] {
			dst[i] = (dst[i] >> f.lo) & f.mask
		}
	}
	return n
}

// Set writes the variable: the value is type-checked (debug mode), split
// into fragments, merged into each target register via the register
// cache, mask-fixed and written out. The caller must have checked Writable.
func (a *Accessor) Set(v Value) error {
	if a.s.mode == Debug {
		if err := a.assertWrite(v); err != nil {
			return err
		}
	}
	return a.store(v.Val)
}

// store distributes a raw value over the fragments, most-significant
// fragment first; bits above the variable's width fall outside every
// fragment. Each fragment merges against the cached register value before
// the register's pre-actions run.
func (a *Accessor) store(val uint32) error {
	s := a.s
	for i := range a.frags {
		f := &a.frags[i]
		field := (val >> f.shift) & f.mask
		merged := s.cache[f.reg.slot]&^(f.mask<<f.lo) | field<<f.lo
		if err := s.writeReg(f.reg, merged); err != nil {
			return err
		}
	}
	return nil
}

// Mode returns the generation mode.
func (s *Stubs) Mode() Mode { return s.mode }

// SpecFile returns the specification filename.
func (s *Stubs) SpecFile() string { return s.filename }

// Const returns the typed value of an enum constant.
func (s *Stubs) Const(name string) (Value, bool) {
	v, ok := s.consts[name]
	return v, ok
}

// ConstNames returns the enum constant names in no particular order.
func (s *Stubs) ConstNames() []string {
	out := make([]string, 0, len(s.consts))
	for name := range s.consts {
		out = append(out, name)
	}
	return out
}

// TypeID returns the specification-unique type counter of a variable.
func (s *Stubs) TypeID(varName string) (int, bool) {
	a, ok := s.vars[varName]
	if !ok {
		return 0, false
	}
	return a.typeID, true
}

// lookupVar fetches a public variable's plan, rejecting private ones.
func (s *Stubs) lookupVar(name string) (*Accessor, error) {
	a, ok := s.vars[name]
	if !ok {
		return nil, fmt.Errorf("no device variable %s in %s", name, s.filename)
	}
	if a.vi.Decl.Private {
		return nil, fmt.Errorf("device variable %s is private to %s", name, s.filename)
	}
	return a, nil
}

// width returns the hw access width for a register size.
func accessWidth(size int) hw.AccessWidth {
	switch {
	case size <= 8:
		return hw.Width8
	case size <= 16:
		return hw.Width16
	default:
		return hw.Width32
	}
}

// runPre executes the pre-actions of a register: each sets a (usually
// private) variable to a constant before the guarded port is touched.
func (s *Stubs) runPre(r *regPlan) error {
	if s.preDepth >= len(s.cache) {
		return fmt.Errorf("pre-action of %s: cyclic pre-actions", r.name)
	}
	s.preDepth++
	for _, pa := range r.pre {
		if err := pa.target.store(pa.val); err != nil {
			s.preDepth--
			return err
		}
	}
	s.preDepth--
	return nil
}

// readReg performs the port read for a register, including pre-actions.
func (s *Stubs) readReg(r *regPlan) (uint32, error) {
	if len(r.pre) > 0 {
		if err := s.runPre(r); err != nil {
			return 0, err
		}
	}
	return s.bus.Read(r.readPort, r.width)
}

// writeReg performs the port write for a register, including pre-actions,
// mask fixing and cache maintenance.
func (s *Stubs) writeReg(r *regPlan, v uint32) error {
	if len(r.pre) > 0 {
		if err := s.runPre(r); err != nil {
			return err
		}
	}
	v = (v | r.set) &^ r.clear
	if err := s.bus.Write(r.writePort, r.width, v); err != nil {
		return err
	}
	s.cache[r.slot] = v
	return nil
}

// Get reads a device variable through its stub.
func (s *Stubs) Get(name string) (Value, error) {
	a, err := s.lookupVar(name)
	if err != nil {
		return Value{}, err
	}
	if !a.Readable() {
		return Value{}, fmt.Errorf("device variable %s is %s", name, a.vi.Mode)
	}
	return a.Get()
}

// assertRead implements the debug-mode assertion that a value read from
// the device matches the variable's declared type: an out-of-set integer
// or an enum value no read pattern covers means either the specification
// is wrong or the device misbehaves (§2.3).
func (a *Accessor) assertRead(val uint32) error {
	t := a.vi.Decl.Type
	switch t.Kind {
	case ast.TypeIntSet:
		for _, allowed := range t.Set {
			if uint32(allowed) == val {
				return nil
			}
		}
		return &AssertError{Variable: a.vi.Decl.Name,
			Msg: fmt.Sprintf("read value %d outside declared set %s", val, t)}
	case ast.TypeEnum:
		for _, p := range a.reads {
			if val&p.care == p.want {
				return nil
			}
		}
		return &AssertError{Variable: a.vi.Decl.Name,
			Msg: fmt.Sprintf("read value %d matches no read mapping of %s", val, t)}
	}
	return nil
}

// Set writes a device variable through its stub.
func (s *Stubs) Set(name string, v Value) error {
	a, err := s.lookupVar(name)
	if err != nil {
		return err
	}
	if !a.Writable() {
		return fmt.Errorf("device variable %s is %s", name, a.vi.Mode)
	}
	return a.Set(v)
}

// assertWrite implements the debug-mode write assertions: type identity
// for enum-typed variables (the dil struct check) and value-range
// membership for integer-typed ones.
func (a *Accessor) assertWrite(v Value) error {
	vi := a.vi
	t := vi.Decl.Type
	name := vi.Decl.Name
	if !v.Untyped() {
		if v.File != a.s.filename || v.Type != a.typeID {
			return &AssertError{Variable: name,
				Msg: fmt.Sprintf("type mismatch: value has type #%d (%s), variable requires #%d (%s)",
					v.Type, v.File, a.typeID, a.s.filename)}
		}
		return nil
	}
	// Untyped C integer flowing into a sized variable: range check.
	switch t.Kind {
	case ast.TypeEnum:
		return &AssertError{Variable: name,
			Msg: fmt.Sprintf("untyped integer %d written to enumerated variable", v.Raw)}
	case ast.TypeIntSet:
		for _, allowed := range t.Set {
			if allowed == v.Raw {
				return nil
			}
		}
		return &AssertError{Variable: name,
			Msg: fmt.Sprintf("value %d outside declared set %s", v.Raw, t)}
	case ast.TypeBool:
		if v.Raw == 0 || v.Raw == 1 {
			return nil
		}
		return &AssertError{Variable: name,
			Msg: fmt.Sprintf("value %d written to bool variable", v.Raw)}
	case ast.TypeInt:
		if t.Signed {
			lo := -(int64(1) << uint(vi.Width-1))
			hi := int64(1)<<uint(vi.Width-1) - 1
			if v.Raw < lo || v.Raw > hi {
				return &AssertError{Variable: name,
					Msg: fmt.Sprintf("value %d outside signed int(%d) range [%d..%d]",
						v.Raw, vi.Width, lo, hi)}
			}
			return nil
		}
		if v.Raw < 0 || v.Raw >= int64(1)<<uint(vi.Width) {
			return &AssertError{Variable: name,
				Msg: fmt.Sprintf("value %d outside int(%d) range [0..%d]",
					v.Raw, vi.Width, int64(1)<<uint(vi.Width)-1)}
		}
	}
	return nil
}

// Eq implements the paper's dil_eq macro: in debug mode it asserts that the
// two values carry the same Devil type before comparing representations; in
// production mode it compares raw values only.
func (s *Stubs) Eq(a, b Value) (bool, error) {
	if s.mode == Debug && !a.Untyped() && !b.Untyped() {
		if a.File != b.File || a.Type != b.Type {
			return false, &AssertError{Variable: "dil_eq",
				Msg: fmt.Sprintf("comparing values of different Devil types #%d (%s) and #%d (%s)",
					a.Type, a.File, b.Type, b.File)}
		}
	}
	return a.Val == b.Val, nil
}

func loMask(width int) uint32 {
	if width >= 32 {
		return 0xffffffff
	}
	return 1<<uint(width) - 1
}
