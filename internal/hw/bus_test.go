package hw_test

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/hw/ne2000"
)

// ram is a trivial byte-addressed test device.
type ram struct {
	name  string
	cells [16]uint32
}

func (r *ram) Name() string { return r.name }

func (r *ram) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	return r.cells[off], nil
}

func (r *ram) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	r.cells[off] = v
	return nil
}

func TestBusMapAndAccess(t *testing.T) {
	bus := hw.NewBus()
	dev := &ram{name: "ram0"}
	if err := bus.Map(0x100, 16, dev); err != nil {
		t.Fatalf("map: %v", err)
	}
	if err := bus.Out8(0x104, 0xab); err != nil {
		t.Fatalf("out8: %v", err)
	}
	v, err := bus.In8(0x104)
	if err != nil {
		t.Fatalf("in8: %v", err)
	}
	if v != 0xab {
		t.Errorf("read back %#x, want 0xab", v)
	}
	if dev.cells[4] != 0xab {
		t.Errorf("device saw offset-relative write at %v", dev.cells)
	}
}

func TestBusRejectsOverlap(t *testing.T) {
	bus := hw.NewBus()
	if err := bus.Map(0x100, 16, &ram{name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Map(0x108, 16, &ram{name: "b"}); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := bus.Map(0x110, 16, &ram{name: "c"}); err != nil {
		t.Errorf("adjacent map rejected: %v", err)
	}
	if err := bus.Map(0x200, 0, &ram{name: "d"}); err == nil {
		t.Error("empty map accepted")
	}
}

func TestBusFaultStrictVsFloating(t *testing.T) {
	bus := hw.NewBus()
	_, err := bus.In8(0x999)
	var fault *hw.BusFaultError
	if !errors.As(err, &fault) {
		t.Fatalf("strict bus: got %v, want BusFaultError", err)
	}
	if fault.Port != 0x999 || fault.Write {
		t.Errorf("fault details wrong: %+v", fault)
	}

	bus.SetFloating(true)
	v, err := bus.In8(0x999)
	if err != nil {
		t.Fatalf("floating read errored: %v", err)
	}
	if v != 0xff {
		t.Errorf("floating 8-bit read = %#x, want 0xff", v)
	}
	w, err := bus.In16(0x999)
	if err != nil || w != 0xffff {
		t.Errorf("floating 16-bit read = %#x, %v; want 0xffff", w, err)
	}
	if err := bus.Out8(0x999, 1); err != nil {
		t.Errorf("floating write errored: %v", err)
	}
}

func TestBusUnmap(t *testing.T) {
	bus := hw.NewBus()
	dev := &ram{name: "a"}
	if err := bus.Map(0x10, 16, dev); err != nil {
		t.Fatal(err)
	}
	bus.Unmap(dev)
	if _, err := bus.In8(0x10); err == nil {
		t.Error("read of unmapped device succeeded")
	}
	if err := bus.Map(0x10, 16, &ram{name: "b"}); err != nil {
		t.Errorf("remap after unmap rejected: %v", err)
	}
}

// TestBusLastHitCache pins the invalidation of Bus's one-entry
// last-hit cache. The cache is primed with a read in a mapping that sits
// above another one, so after Unmap the compacted mapping slice still
// holds a stale copy of it past its length.
func TestBusLastHitCache(t *testing.T) {
	for _, floating := range []bool{false, true} {
		bus := hw.NewBus()
		bus.SetFloating(floating)
		bus.SetTracing(true)
		low, a, b := &ram{name: "low"}, &ram{name: "a"}, &ram{name: "b"}
		low.cells[2], a.cells[2], b.cells[2] = 0x5a, 0xa1, 0xb2
		if err := bus.Map(0x00, 16, low); err != nil {
			t.Fatal(err)
		}
		if err := bus.Map(0x10, 16, a); err != nil {
			t.Fatal(err)
		}
		var want []hw.Access
		faults := uint64(0)
		read := func(port hw.Port, wantV uint32, mapped bool) {
			t.Helper()
			v, err := bus.In8(port)
			switch {
			case mapped || floating:
				if err != nil || uint32(v) != wantV {
					t.Errorf("floating=%v: read %#x = %#x, %v; want %#x", floating, port, v, err, wantV)
				}
				want = append(want, hw.Access{Port: port, Width: hw.Width8, Value: wantV})
			default:
				var fault *hw.BusFaultError
				if !errors.As(err, &fault) || fault.Port != port {
					t.Errorf("strict read %#x = %#x, %v; want a bus fault", port, v, err)
				}
				want = append(want, hw.Access{Port: port, Width: hw.Width8, Fault: true})
				faults++
			}
		}
		read(0x12, 0xa1, true) // primes the cache with a
		bus.Unmap(a)
		read(0x12, 0xff, false)
		if err := bus.Map(0x20, 16, b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			read(0x02, 0x5a, true)
			read(0x22, 0xb2, true)
			read(0x12, 0xff, false)
		}
		acc, gotFaults := bus.Stats()
		if acc != uint64(len(want)) || gotFaults != faults {
			t.Errorf("floating=%v: stats = %d/%d, want %d/%d", floating, acc, gotFaults, len(want), faults)
		}
		if got := bus.Trace(); !reflect.DeepEqual(got, want) {
			t.Errorf("floating=%v: trace\n got %+v\nwant %+v", floating, got, want)
		}
	}
}

func TestBusTraceAndStats(t *testing.T) {
	bus := hw.NewBus()
	if err := bus.Map(0, 16, &ram{name: "a"}); err != nil {
		t.Fatal(err)
	}
	bus.SetTracing(true)
	_ = bus.Out8(3, 7)
	_, _ = bus.In8(3)
	_, _ = bus.In8(0x999) // fault
	trace := bus.Trace()
	if len(trace) != 3 {
		t.Fatalf("trace has %d entries, want 3", len(trace))
	}
	if !trace[0].Write || trace[0].Value != 7 {
		t.Errorf("first access should be the write of 7: %+v", trace[0])
	}
	if !trace[2].Fault {
		t.Errorf("third access should fault: %+v", trace[2])
	}
	acc, faults := bus.Stats()
	if acc != 3 || faults != 1 {
		t.Errorf("stats = %d/%d, want 3/1", acc, faults)
	}
	bus.SetTracing(false)
	if len(bus.Trace()) != 0 {
		t.Error("disabling tracing should clear the trace")
	}
}

// TestBusWidthMasking property: values written through the bus are always
// truncated to the access width before reaching the device.
func TestBusWidthMasking(t *testing.T) {
	bus := hw.NewBus()
	dev := &ram{name: "a"}
	if err := bus.Map(0, 16, dev); err != nil {
		t.Fatal(err)
	}
	prop := func(v uint32) bool {
		if err := bus.Write(1, hw.Width8, v); err != nil {
			return false
		}
		if dev.cells[1] != v&0xff {
			return false
		}
		if err := bus.Write(2, hw.Width16, v); err != nil {
			return false
		}
		return dev.cells[2] == v&0xffff
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestClock(t *testing.T) {
	var c hw.Clock
	if c.Now() != 0 {
		t.Errorf("zero clock at %d", c.Now())
	}
	c.Tick(1)
	c.Tick(0) // no-op
	c.Tick(5)
	if c.Now() != 6 {
		t.Errorf("clock at %d, want 6", c.Now())
	}
}

// TestBusTraceRecordsMaskedValues: the trace records the value the
// driver saw or the device was given, masked to the access width, on
// every read and write path.
func TestBusTraceRecordsMaskedValues(t *testing.T) {
	nic := ne2000.New()
	dev := &ram{name: "a"}
	dev.cells[1] = 0x1234
	for _, floating := range []bool{false, true} {
		for _, inj := range []*hw.Injector{nil, hw.NewInjector(hw.InjectorConfig{StalePerMyriad: 9_999}, nil)} {
			bus := hw.NewBus()
			bus.SetFloating(floating)
			bus.SetInjector(inj)
			if err := bus.Map(0, 16, dev); err != nil {
				t.Fatal(err)
			}
			if err := bus.Map(0x310, 1, nic.DataPort()); err != nil {
				t.Fatal(err)
			}
			bus.SetTracing(true)
			var got []uint32
			for _, port := range []hw.Port{0x310, 1, 1} { // idle NIC data port, then a fresh and a stale latch
				v, err := bus.In8(port)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, uint32(v))
			}
			_ = bus.Write(2, hw.Width8, 0x5678)
			_ = bus.Write(0x40, hw.Width16, 0xabcdef) // unmapped: vanishes or faults
			want := []uint32{0xff, 0x34, 0x34, 0x78, 0xcdef}
			for i, a := range bus.Trace() {
				if i < len(got) && got[i] != want[i] {
					t.Errorf("floating=%v injector=%v: read %d returned %#x, want %#x", floating, inj != nil, i, got[i], want[i])
				}
				if a.Value != want[i] {
					t.Errorf("floating=%v injector=%v: access %d traced %#x, want %#x", floating, inj != nil, i, a.Value, want[i])
				}
			}
			if dev.cells[2] != 0x78 {
				t.Errorf("device was written %#x, want 0x78", dev.cells[2])
			}
		}
	}
}

// steadyRAM is a ram whose cells read steadily until a fixed time and
// whose last cell bursts.
type steadyRAM struct {
	ram
	until uint64
	burst int
}

func (r *steadyRAM) Steady(off hw.Port, w hw.AccessWidth) (uint32, uint64, bool) {
	return r.cells[off], r.until, off < 15
}

func (r *steadyRAM) Burst(off hw.Port, w hw.AccessWidth, dst []uint32) int {
	n := min(len(dst), r.burst)
	for i := range dst[:n] {
		dst[i] = r.cells[off] + uint32(i)
	}
	return n
}

// fifoRAM is a steadyRAM whose last cell is a FIFO head: each read
// strobe, one at a time or in a burst, returns the next count.
type fifoRAM struct {
	steadyRAM
	n uint32
}

func (r *fifoRAM) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	if off == 15 {
		r.n++
		return r.n, nil
	}
	return r.steadyRAM.Read(off, w)
}

func (r *fifoRAM) Burst(off hw.Port, w hw.AccessWidth, dst []uint32) int {
	for i := range dst {
		r.n++
		dst[i] = r.n
	}
	return len(dst)
}

// TestBusPredictions pins the bus side of read prediction: what it
// answers for unmapped ports, devices without the interfaces, and
// devices with them; the masking and accounting of predicted reads; the
// silence of a bus with tracing on; and predictions through an injector.
func TestBusPredictions(t *testing.T) {
	dev := &steadyRAM{ram: ram{name: "s"}, until: 77, burst: 3}
	dev.cells[2] = 0x1ff
	dev.cells[15] = 0x2f0
	plain := &ram{name: "p"}
	newBus := func(floating bool) *hw.Bus {
		bus := hw.NewBus()
		bus.SetFloating(floating)
		if err := bus.Map(0, 16, dev); err != nil {
			t.Fatal(err)
		}
		if err := bus.Map(16, 16, plain); err != nil {
			t.Fatal(err)
		}
		return bus
	}
	bus := newBus(true)
	if !bus.Predictable() {
		t.Fatal("a plain bus is not predictable")
	}
	type steady struct {
		v     uint32
		until uint64
		ok    bool
	}
	for _, c := range []struct {
		port  hw.Port
		width hw.AccessWidth
		want  steady
	}{
		{2, hw.Width8, steady{0xff, 77, true}},
		{2, hw.Width16, steady{0x1ff, 77, true}},
		{15, hw.Width8, steady{}},                            // the device declines
		{17, hw.Width8, steady{}},                            // no SteadyReader
		{0x80, hw.Width16, steady{0xffff, hw.Forever, true}}, // floating
	} {
		v, until, ok := bus.Steady(c.port, c.width)
		if got := (steady{v, until, ok}); ok != c.want.ok || ok && got != c.want {
			t.Errorf("Steady(%#x, %v) = %+v, want %+v", c.port, c.width, got, c.want)
		}
	}
	if _, _, ok := newBus(false).Steady(0x80, hw.Width8); ok {
		t.Error("a strict bus predicted an unmapped read")
	}
	dst := make([]uint32, 5)
	if n := bus.Burst(15, hw.Width8, dst); n != 3 || !reflect.DeepEqual(dst[:3], []uint32{0xf0, 0xf1, 0xf2}) {
		t.Errorf("Burst of the device = %d %#x, want 3 [0xf0 0xf1 0xf2]", n, dst[:n])
	}
	if n := bus.Burst(17, hw.Width8, dst); n != 0 {
		t.Errorf("Burst of a device without BurstReader = %d, want 0", n)
	}
	if n := bus.Burst(0x80, hw.Width16, dst); n != 5 || dst[4] != 0xffff {
		t.Errorf("Burst of a floating port = %d %#x, want 5 all 0xffff", n, dst)
	}
	bus.SkipReads(2, 0xff, 4)
	if acc, faults := bus.Stats(); acc != 3+5+4 || faults != 0 {
		t.Errorf("stats = %d/%d, want %d/0", acc, faults, 3+5+4)
	}
	if n := newBus(false).Burst(0x80, hw.Width8, dst); n != 0 {
		t.Errorf("a strict bus burst %d unmapped reads", n)
	}

	traced := newBus(true)
	traced.SetTracing(true)
	if _, _, ok := traced.Steady(2, hw.Width8); traced.Predictable() || ok ||
		traced.Burst(15, hw.Width8, dst) != 0 || traced.Burst(0x80, hw.Width8, dst) != 0 {
		t.Error("a bus with tracing on predicted a read")
	}

	// A bus with an injector predicts the reads the injector leaves
	// clean: a burst stops before the first read that rolls a fault, and
	// the reads it makes or SkipReads skips advance the injector's
	// ordinal, the clock and the port's latch exactly as Read would.
	cfg := hw.InjectorConfig{DropPerMyriad: 400, DupPerMyriad: 400, StalePerMyriad: 400, LatencyTicks: 3}
	for seed := uint64(1); seed <= 40; seed++ {
		var buses [2]*hw.Bus
		var injs [2]*hw.Injector
		var clocks [2]*hw.Clock
		for i := range buses {
			buses[i], clocks[i] = hw.NewBus(), &hw.Clock{}
			fifo := &fifoRAM{steadyRAM: steadyRAM{ram: ram{name: "f"}, until: hw.Forever}}
			fifo.cells[2] = 0x42
			if err := buses[i].Map(0, 16, fifo); err != nil {
				t.Fatal(err)
			}
			injs[i] = hw.NewInjector(cfg, clocks[i])
			buses[i].SetInjector(injs[i])
			injs[i].Reseed(seed)
		}
		pred, read := buses[0], buses[1]
		// A stale roll stops Clean even before a port latches, where
		// Read strobes the device anyway: latch both ports first.
		for _, port := range []hw.Port{2, 15} {
			for {
				if _, ok := read.Latched(port); ok {
					break
				}
				for _, b := range buses {
					if _, err := b.Read(port, hw.Width8); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// faulted reports whether read's next read of port rolls a fault.
		faulted := func(port hw.Port) bool {
			d, u, s := injs[1].Stats()
			if _, err := read.Read(port, hw.Width8); err != nil {
				t.Fatal(err)
			}
			d2, u2, s2 := injs[1].Stats()
			return d+u+s != d2+u2+s2
		}
		same := func(what string, port hw.Port) {
			t.Helper()
			pv, pok := pred.Latched(port)
			rv, rok := read.Latched(port)
			pa, _ := pred.Stats()
			ra, _ := read.Stats()
			var ps, rs [3]uint64
			ps[0], ps[1], ps[2] = injs[0].Stats()
			rs[0], rs[1], rs[2] = injs[1].Stats()
			if injs[0].Ordinal() != injs[1].Ordinal() || clocks[0].Now() != clocks[1].Now() ||
				pv != rv || pok != rok || pa != ra || ps != rs {
				t.Errorf("seed %d: %s: ordinal %d, clock %d, latch %#x/%v, accesses %d, faults %v; reading: %d, %d, %#x/%v, %d, %v",
					seed, what, injs[0].Ordinal(), clocks[0].Now(), pv, pok, pa, ps,
					injs[1].Ordinal(), clocks[1].Now(), rv, rok, ra, rs)
			}
		}

		burst := make([]uint32, 64)
		n := pred.Burst(15, hw.Width8, burst)
		for i, want := range burst[:n] {
			if got, err := read.Read(15, hw.Width8); err != nil || got != want {
				t.Fatalf("seed %d: burst read %d = %#x, a read returned %#x (%v)", seed, i, want, got, err)
			}
		}
		same("after a burst", 15)
		if n < len(burst) && !faulted(15) {
			t.Errorf("seed %d: burst stopped after %d reads, before a clean one", seed, n)
		}
		if n < len(burst) {
			_, _ = pred.Read(15, hw.Width8) // the faulted read, on both sides
		}

		v, _, ok := pred.Steady(2, hw.Width8)
		clean, lat := pred.CleanReads(2, 20)
		if !ok || lat != 3 {
			t.Fatalf("seed %d: Steady ok=%v, latency %d", seed, ok, lat)
		}
		pred.SkipReads(2, v, clean)
		for range clean {
			if got, err := read.Read(2, hw.Width8); err != nil || got != v {
				t.Fatalf("seed %d: a skipped read returned %#x (%v), predicted %#x", seed, got, err, v)
			}
		}
		same("after skipped reads", 2)
		if clean < 20 && !faulted(2) {
			t.Errorf("seed %d: Clean stopped after %d reads, before a clean one", seed, clean)
		}
	}

	var got []string
	bus.Mappings(func(base, size hw.Port, dev hw.Device) bool {
		got = append(got, dev.Name())
		return true
	})
	if !reflect.DeepEqual(got, []string{"s", "p"}) {
		t.Errorf("Mappings yielded %v, want [s p]", got)
	}
}
