package hw_test

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hw"
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
