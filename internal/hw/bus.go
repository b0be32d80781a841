package hw

import (
	"fmt"
	"sort"
	"sync"
)

// Port is a port-space address (the argument of inb/outb).
type Port uint32

// AccessWidth is the size of a single I/O operation in bits.
type AccessWidth int

// Supported I/O operation widths.
const (
	Width8 AccessWidth = 8 + iota*8
	Width16
	Width32
)

// String returns the conventional name of the width ("8-bit", ...).
func (w AccessWidth) String() string {
	return fmt.Sprintf("%d-bit", int(w))
}

// BusFaultError reports an I/O access that no device could satisfy.
type BusFaultError struct {
	Port  Port
	Width AccessWidth
	Write bool
}

// Error implements the error interface.
func (e *BusFaultError) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("bus fault: %s %s at port %#x (unmapped)", w(e.Width), dir, uint32(e.Port))
}

func w(width AccessWidth) string { return width.String() }

// Device is the handler side of the bus: a device claims a contiguous port
// range and services reads and writes within it. Offsets passed to Read and
// Write are relative to the claimed base.
type Device interface {
	// Name identifies the device in traces and error messages.
	Name() string
	// Read services an input operation at the given relative offset.
	Read(offset Port, width AccessWidth) (uint32, error)
	// Write services an output operation at the given relative offset.
	Write(offset Port, width AccessWidth, value uint32) error
}

// SteadyReader is an optional Device interface: a device that can tell
// how long a register will keep reading the same value. Steady reports
// that a read at offset, at the clock's current time, returns v, has no
// side effect, and keeps returning v at every clock time before until
// (Forever when nothing but a write can change it). ok is false when the
// device cannot promise that, for instance for a read that consumes
// data, clears a latch or fails. Steady itself must not change the
// device's state.
type SteadyReader interface {
	Steady(offset Port, width AccessWidth) (v uint32, until uint64, ok bool)
}

// BurstReader is an optional Device interface for data ports. Burst
// makes up to len(dst) back-to-back reads at offset into dst and
// returns how many it made. It makes only reads whose values and
// effects do not depend on the clock: the same reads issued one at a
// time, with any clock ticks between them, return the same values and
// leave the device in the same state.
type BurstReader interface {
	Burst(offset Port, width AccessWidth, dst []uint32) int
}

// Forever is the until of a Steady answer that no passage of time ends.
const Forever = ^uint64(0)

// Access records one bus transaction, for the trace consumed by tests and by
// the experiment harness (dead-code detection and damage forensics).
type Access struct {
	Port  Port
	Width AccessWidth
	Write bool
	Value uint32
	Fault bool
}

// mapping binds a device to its claimed range [base, base+size). Map
// discovers the device's optional prediction interfaces once.
type mapping struct {
	base   Port
	size   Port
	dev    Device
	steady SteadyReader
	burst  BurstReader
	// latch holds an attached injector's stale-read latch per port of
	// the range, allocated on the first injected read of the range.
	latch []latch
}

// latch is the value a port last read, live while gen is the attached
// injector's.
type latch struct {
	v   uint32
	gen uint64
}

// latchAt is port's latch entry.
func (m *mapping) latchAt(port Port) *latch {
	if m.latch == nil {
		m.latch = make([]latch, m.size)
	}
	return &m.latch[port-m.base]
}

// Bus is a port-mapped I/O space. The zero value is unusable; construct with
// NewBus.
//
// Like the rest of a simulated machine (kernel, devices, stubs), a Bus
// belongs to one worker goroutine: the Read/Write data path is
// lock-free and caches the last-hit mapping, because a port access sits
// on the innermost loop of every driver poll. Configuration (Map,
// Unmap, SetTracing, SetFloating) happens during machine assembly,
// before execution starts, and stays internally locked.
type Bus struct {
	mu       sync.Mutex
	mappings []mapping
	last     *mapping // last-hit cache: polls hammer one register block
	inj      *Injector
	trace    []Access
	tracing  bool
	floating bool
	accesses uint64
	faults   uint64
}

// NewBus returns an empty I/O space with tracing disabled. Accesses to
// unmapped ports fault; call SetFloating for ISA semantics.
func NewBus() *Bus {
	return &Bus{}
}

// SetFloating selects what an access to an unmapped port does. A strict
// bus (the default) returns a BusFaultError; a floating bus behaves like
// the ISA bus of the paper's test machine — reads see the floating data
// lines (all ones) and writes vanish, so a typo'd port number does not by
// itself crash the machine.
func (b *Bus) SetFloating(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.floating = on
}

// SetInjector attaches (or, with nil, detaches) a fault injector to the
// mapped-device data path and drops every latch an earlier injector
// left. Like Map, it is a machine-assembly call: the data path reads
// the field without locking, so it must not race with execution. A bus
// without an injector pays one nil check per access.
func (b *Bus) SetInjector(inj *Injector) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inj = inj
	for i := range b.mappings {
		b.mappings[i].latch = nil
	}
}

// Injector returns the attached fault injector, if any. Like the data
// path, it reads the field without locking.
func (b *Bus) Injector() *Injector { return b.inj }

// Map claims the port range [base, base+size) for dev. Overlapping claims are
// rejected, mirroring resource conflicts on a real bus.
func (b *Bus) Map(base Port, size Port, dev Device) error {
	if size == 0 {
		return fmt.Errorf("map %s: empty port range at %#x", dev.Name(), uint32(base))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.mappings {
		if base < m.base+m.size && m.base < base+size {
			return fmt.Errorf("map %s: ports %#x..%#x overlap %s at %#x..%#x",
				dev.Name(), uint32(base), uint32(base+size-1),
				m.dev.Name(), uint32(m.base), uint32(m.base+m.size-1))
		}
	}
	m := mapping{base: base, size: size, dev: dev}
	m.steady, _ = dev.(SteadyReader)
	m.burst, _ = dev.(BurstReader)
	b.mappings = append(b.mappings, m)
	sort.Slice(b.mappings, func(i, j int) bool { return b.mappings[i].base < b.mappings[j].base })
	b.last = nil // the append/sort may have moved every mapping
	return nil
}

// Unmap releases every range claimed by dev.
func (b *Bus) Unmap(dev Device) {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := b.mappings[:0]
	for _, m := range b.mappings {
		if m.dev != dev {
			kept = append(kept, m)
		}
	}
	b.mappings = kept
	b.last = nil
}

// SetTracing enables or disables transaction tracing.
func (b *Bus) SetTracing(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tracing = on
	if !on {
		b.trace = nil
	}
}

// Trace returns a copy of the recorded transactions.
func (b *Bus) Trace() []Access {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Access, len(b.trace))
	copy(out, b.trace)
	return out
}

// Stats reports the total number of accesses and the number that faulted.
func (b *Bus) Stats() (accesses, faults uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.accesses, b.faults
}

// Mappings calls yield with every claimed range and its device, in port
// order, until yield returns false.
func (b *Bus) Mappings(yield func(base, size Port, dev Device) bool) {
	b.mu.Lock()
	ms := append([]mapping(nil), b.mappings...)
	b.mu.Unlock()
	for _, m := range ms {
		if !yield(m.base, m.size, m.dev) {
			return
		}
	}
}

// find locates the mapping that covers port, or nil. The one-entry
// cache makes the typical poll loop — thousands of reads of the same
// status register — a single range test.
func (b *Bus) find(port Port) *mapping {
	if m := b.last; m != nil && port >= m.base && port < m.base+m.size {
		return m
	}
	for i := range b.mappings {
		m := &b.mappings[i]
		if port >= m.base && port < m.base+m.size {
			b.last = m
			return m
		}
	}
	return nil
}

func (b *Bus) record(a Access) {
	b.accesses++
	if a.Fault {
		b.faults++
	}
	if b.tracing {
		b.trace = append(b.trace, a)
	}
}

// Read performs an input operation of the given width at port.
func (b *Bus) Read(port Port, width AccessWidth) (uint32, error) {
	m := b.find(port)
	if m == nil {
		if b.floating {
			b.record(Access{Port: port, Width: width, Value: widthMask(width)})
			return widthMask(width), nil
		}
		b.record(Access{Port: port, Width: width, Fault: true})
		return 0, &BusFaultError{Port: port, Width: width}
	}
	if b.inj != nil {
		return b.inj.read(b, m, port, width)
	}
	v, err := m.dev.Read(port-m.base, width)
	v &= widthMask(width)
	b.record(Access{Port: port, Width: width, Value: v, Fault: err != nil})
	if err != nil {
		return 0, deviceError(m, err)
	}
	return v, nil
}

// deviceError wraps a device-level access error with the device name.
func deviceError(m *mapping, err error) error {
	return fmt.Errorf("%s: %w", m.dev.Name(), err)
}

// Write performs an output operation of the given width at port.
func (b *Bus) Write(port Port, width AccessWidth, value uint32) error {
	value &= widthMask(width)
	m := b.find(port)
	if m == nil {
		if b.floating {
			b.record(Access{Port: port, Width: width, Write: true, Value: value})
			return nil
		}
		b.record(Access{Port: port, Width: width, Write: true, Value: value, Fault: true})
		return &BusFaultError{Port: port, Width: width, Write: true}
	}
	if b.inj != nil {
		b.inj.write()
	}
	err := m.dev.Write(port-m.base, width, value)
	b.record(Access{Port: port, Width: width, Write: true, Value: value, Fault: err != nil})
	if err != nil {
		return deviceError(m, err)
	}
	return nil
}

// Predictable reports whether reads may be predicted: tracing is off,
// so no trace expects every read. Steady and Burst answer only then. On
// a bus with a fault injector a caller also keeps the reads it predicts
// within what CleanReads leaves clean, each landing its latency later.
func (b *Bus) Predictable() bool { return !b.tracing }

// Steady predicts a read of port (see SteadyReader) without making it.
// A floating bus answers for unmapped ports itself: they read all ones
// Forever. The caller accounts each read it skips with SkipReads.
func (b *Bus) Steady(port Port, width AccessWidth) (v uint32, until uint64, ok bool) {
	if !b.Predictable() {
		return 0, 0, false
	}
	m := b.find(port)
	if m == nil {
		if b.floating {
			return widthMask(width), Forever, true
		}
		return 0, 0, false
	}
	if m.steady == nil {
		return 0, 0, false
	}
	v, until, ok = m.steady.Steady(port-m.base, width)
	return v & widthMask(width), until, ok
}

// SkipReads accounts n reads of port that Steady predicted would return
// v, exactly as Read would account them: the bus counts them, and on a
// mapped port an attached injector consumes their ordinals, charges
// their latency and latches v. The caller keeps n within the injector's
// Clean.
func (b *Bus) SkipReads(port Port, v uint32, n uint64) {
	b.accesses += n
	if b.inj == nil || n == 0 {
		return
	}
	if m := b.find(port); m != nil {
		b.inj.skip(m, port, v, n)
	}
}

// CleanReads reports what an attached injector does to reads of port:
// how many of the next max roll no fault (see Injector.Clean), and the
// latency ticks each charges. Without an injector, and on an unmapped
// port, all max are clean and cost nothing.
func (b *Bus) CleanReads(port Port, max uint64) (clean, latency uint64) {
	if b.inj == nil || b.find(port) == nil {
		return max, 0
	}
	return b.inj.Clean(max), b.inj.latency()
}

// Latched reports the value an attached injector's stale reads of port
// would return, if one is latched.
func (b *Bus) Latched(port Port) (v uint32, ok bool) {
	m := b.find(port)
	if b.inj == nil || m == nil || m.latch == nil {
		return 0, false
	}
	l := m.latch[port-m.base]
	return l.v, l.gen == b.inj.gen
}

// Burst makes up to len(dst) reads of port that do not depend on the
// clock (see BurstReader), stores their masked values in dst, accounts
// them as Read would, and returns how many it made. Unmapped ports on a
// floating bus always burst. On a mapped port an attached injector
// bounds the burst by its Clean.
func (b *Bus) Burst(port Port, width AccessWidth, dst []uint32) int {
	if !b.Predictable() {
		return 0
	}
	m := b.find(port)
	switch {
	case m == nil && b.floating:
		for i := range dst {
			dst[i] = widthMask(width)
		}
		b.accesses += uint64(len(dst))
		return len(dst)
	case m == nil || m.burst == nil:
		return 0
	}
	if b.inj != nil {
		dst = dst[:b.inj.Clean(uint64(len(dst)))]
	}
	n := m.burst.Burst(port-m.base, width, dst)
	for i := range dst[:n] {
		dst[i] &= widthMask(width)
	}
	if n > 0 {
		b.SkipReads(port, dst[n-1], uint64(n))
	}
	return n
}

// In8 is the inb(2) convenience wrapper.
func (b *Bus) In8(port Port) (uint8, error) {
	v, err := b.Read(port, Width8)
	return uint8(v), err
}

// Out8 is the outb(2) convenience wrapper.
func (b *Bus) Out8(port Port, v uint8) error {
	return b.Write(port, Width8, uint32(v))
}

// In16 is the inw(2) convenience wrapper.
func (b *Bus) In16(port Port) (uint16, error) {
	v, err := b.Read(port, Width16)
	return uint16(v), err
}

// Out16 is the outw(2) convenience wrapper.
func (b *Bus) Out16(port Port, v uint16) error {
	return b.Write(port, Width16, uint32(v))
}

// In32 is the inl(2) convenience wrapper.
func (b *Bus) In32(port Port) (uint32, error) {
	return b.Read(port, Width32)
}

// Out32 is the outl(2) convenience wrapper.
func (b *Bus) Out32(port Port, v uint32) error {
	return b.Write(port, Width32, v)
}

func widthMask(width AccessWidth) uint32 {
	switch width {
	case Width8:
		return 0xff
	case Width16:
		return 0xffff
	default:
		return 0xffffffff
	}
}
