package codegen_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/devil"
	"repro/internal/devil/ast"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/specs"
)

// clockDevice backs one port parameter with registers that predict their
// reads. An offset o with o%3 == 0 is a FIFO: each read returns the next
// value of its sequence, Steady refuses it and Burst reads it. Any other
// offset holds a pseudo-random value for a period of 40+23·o ticks, with
// no side effect on reads, and Steady answers until the period ends. The
// values make enum and set read assertions both pass and fail.
type clockDevice struct {
	base   hw.Port
	clock  *hw.Clock
	fifo   [16]uint32
	writes uint64
}

func (d *clockDevice) Name() string { return "clocked" }

func (d *clockDevice) held(off hw.Port) (uint32, uint64) {
	period := uint64(40 + 23*off)
	epoch := d.clock.Now() / period
	x := uint32(epoch)*2654435761 ^ uint32(d.base+off)*40503
	return x ^ x>>13, (epoch + 1) * period
}

func (d *clockDevice) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	if off%3 == 0 {
		d.fifo[off%16]++
		return d.fifo[off%16]*0x9e3779b9 + uint32(off), nil
	}
	v, _ := d.held(off)
	return v, nil
}

func (d *clockDevice) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	d.writes = d.writes*1000003 + uint64(off)<<32 + uint64(v)
	return nil
}

func (d *clockDevice) Steady(off hw.Port, w hw.AccessWidth) (uint32, uint64, bool) {
	if off%3 == 0 {
		return 0, 0, false
	}
	v, until := d.held(off)
	return v, until, true
}

func (d *clockDevice) Burst(off hw.Port, w hw.AccessWidth, dst []uint32) int {
	if off%3 != 0 {
		return 0
	}
	for i := range dst {
		dst[i], _ = d.Read(off, w)
	}
	return len(dst)
}

// twin is one stub set over clockDevices on its own bus and clock.
type twin struct {
	stubs *devil.Stubs
	bus   *hw.Bus
	clock *hw.Clock
	devs  []*clockDevice
}

func newTwin(t *testing.T, spec *devil.Spec, mode codegen.Mode) *twin {
	t.Helper()
	tw := &twin{bus: hw.NewBus(), clock: &hw.Clock{}}
	bases := make(map[string]hw.Port)
	for i, p := range spec.Info.Device.Params {
		base := hw.Port(0x100 * (i + 1))
		bases[p.Name] = base
		dev := &clockDevice{base: base, clock: tw.clock}
		if err := tw.bus.Map(base, hw.Port(p.RangeHi+1), dev); err != nil {
			t.Fatal(err)
		}
		tw.devs = append(tw.devs, dev)
	}
	stubs, err := spec.Generate(devil.Config{Bus: tw.bus, Bases: bases, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	tw.stubs = stubs
	return tw
}

// same reports where two twins differ: clock, bus accounting, device
// state or register cache.
func (a *twin) same(b *twin) error {
	if an, bn := a.clock.Now(), b.clock.Now(); an != bn {
		return fmt.Errorf("clocks at %d and %d", an, bn)
	}
	aa, af := a.bus.Stats()
	ba, bf := b.bus.Stats()
	if aa != ba || af != bf {
		return fmt.Errorf("bus stats %d/%d and %d/%d", aa, af, ba, bf)
	}
	for i := range a.devs {
		if da, db := a.devs[i], b.devs[i]; da.fifo != db.fifo || da.writes != db.writes {
			return fmt.Errorf("device %d FIFOs %v and %v, writes %#x and %#x", i, da.fifo, db.fifo, da.writes, db.writes)
		}
	}
	if ac, bc := fmt.Sprint(codegen.CacheDump(a.stubs)), fmt.Sprint(codegen.CacheDump(b.stubs)); ac != bc {
		return fmt.Errorf("register caches %s and %s", ac, bc)
	}
	return nil
}

// splitSpec has a variable of two fragments whose registers predict:
// no embedded specification has one.
const splitSpec = `
device splitdev (base : bit[8] port @ {1..2})
{
    register lo = read base @ 1 : bit[8];
    register hi = read base @ 2 : bit[8];
    variable Word = hi # lo, volatile : int(16);
}
`

// TestAccessorPredictions checks Accessor.Steady and Accessor.Burst
// against Get, in the style of hwtest.Check, for every readable variable
// of every embedded specification and testSpec in both modes. Two twin
// stub sets stay in step: whenever Steady answers on the first, Gets at
// random times before until return its value and leave the first twin in
// the state of the second, whose clock only moved and whose bus counted
// Fragments reads per Get; a Burst on the first returns what Gets on the
// second, with random ticks between them, return. Variables with a
// pre-action register must not predict, nor burst with more than one
// fragment or, in debug mode, with a read assertion a value can fail; a
// debug-mode variable on predicting ports must not predict a value that
// fails its read assertion.
func TestAccessorPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	var steadyOK, assertRefused, bursts, multiSkips int
	sources := append(specs.All(), specs.Spec{Filename: "testdev.dil", Source: testSpec},
		specs.Spec{Filename: "splitdev.dil", Source: splitSpec})
	for _, sp := range sources {
		spec, err := devil.Compile(sp.Filename, sp.Source)
		if err != nil {
			t.Fatalf("%s: %v", sp.Filename, err)
		}
		for _, mode := range []codegen.Mode{codegen.Debug, codegen.Production} {
			a, b := newTwin(t, spec, mode), newTwin(t, spec, mode)
			for _, sig := range a.stubs.Interface().Vars {
				if !sig.Readable {
					continue
				}
				vi := spec.Info.Variables[sig.Name]
				pre, fifo := false, false
				for _, f := range vi.Fragments {
					pre = pre || len(f.Reg.Pre) > 0
					fifo = fifo || f.Reg.ReadPort.Offset%3 == 0
				}
				kind := vi.Decl.Type.Kind
				canBurst := !pre && len(vi.Fragments) == 1 &&
					(mode == codegen.Production || kind != ast.TypeEnum && kind != ast.TypeIntSet)
				accA, _ := a.stubs.Accessor(sig.Name)
				accB, _ := b.stubs.Accessor(sig.Name)
				what := fmt.Sprintf("%s %s %s", sp.Filename, mode, sig.Name)
				for round := 0; round < 40; round++ {
					gap := uint64(rng.Intn(90))
					a.clock.Tick(gap)
					b.clock.Tick(gap)

					v, until, ok := accA.Steady()
					if err := a.same(b); err != nil {
						t.Fatalf("%s: Steady moved the machine: %v", what, err)
					}
					if ok && pre {
						t.Fatalf("%s: Steady answered for a pre-action register", what)
					}
					if !ok && !pre && !fifo {
						// Refused for the read assertion: a Get now raises
						// it, on both twins, so they stay in step.
						_, errA := accA.Get()
						_, errB := accB.Get()
						if mode != codegen.Debug || errA == nil || errB == nil {
							t.Fatalf("%s: Steady refused a value whose Get returns %v", what, errA)
						}
						assertRefused++
					}
					if ok {
						steadyOK++
						get := func() {
							t.Helper()
							got, err := accA.Get()
							if err != nil || got != v {
								t.Fatalf("%s: Steady = %+v until %d, but a Get at %d returned %+v, %v",
									what, v, until, a.clock.Now(), got, err)
							}
						}
						// Gets at random times, skipped one by one.
						for k := rng.Intn(4); k >= 0 && a.clock.Now() < until; k-- {
							g := uint64(rng.Int63n(int64(min(until-a.clock.Now(), 200))))
							if k == 0 && rng.Intn(2) == 0 {
								g = until - 1 - a.clock.Now()
							}
							a.clock.Tick(g)
							b.clock.Tick(g)
							if n := accB.Skip(1, b.clock.Now(), 1, until); n != 1 {
								t.Fatalf("%s: Skip of one Get at %d before %d = %d", what, b.clock.Now(), until, n)
							}
							get()
						}
						// Gets every per ticks: every fragment's port
						// skips the same count.
						max, per, first := uint64(rng.Intn(6)), uint64(rng.Intn(60)), b.clock.Now()
						before, _ := b.bus.Stats()
						n := accB.Skip(max, first, per, until)
						after, _ := b.bus.Stats()
						if frags := uint64(len(vi.Fragments)); after-before != n*frags {
							t.Fatalf("%s: Skip of %d Gets accounted %d reads of %d fragments", what, n, after-before, frags)
						}
						if len(vi.Fragments) > 1 && n > 0 {
							multiSkips++
						}
						for i := range n {
							if i > 0 {
								a.clock.Tick(per)
							}
							get()
						}
						if n < max && first+n*per < until {
							t.Fatalf("%s: Skip from %d every %d until %d stopped after %d of %d Gets",
								what, first, per, until, n, max)
						}
						b.clock.Tick(a.clock.Now() - b.clock.Now())
					}
					if err := a.same(b); err != nil {
						t.Fatalf("%s: Gets predicted by Steady moved the machine: %v", what, err)
					}

					dst := make([]uint32, 1+rng.Intn(20))
					n := accA.Burst(dst)
					if n > 0 && !canBurst {
						t.Fatalf("%s: Burst of %d for a variable that must not burst", what, n)
					}
					bursts += n
					for i, want := range dst[:n] {
						b.clock.Tick(uint64(rng.Intn(3) * rng.Intn(30)))
						got, err := accB.Get()
						if err != nil || got.Val != want {
							t.Fatalf("%s: Burst read %d = %#x, a Get returned %+v, %v", what, i, want, got, err)
						}
					}
					a.clock.Tick(b.clock.Now() - a.clock.Now())
					if err := a.same(b); err != nil {
						t.Fatalf("%s: Burst of %d: %v", what, n, err)
					}
				}
			}
		}
	}
	t.Logf("%d steady answers, %d refusals for a failing assertion, %d burst Gets, %d skips of a multi-fragment variable",
		steadyOK, assertRefused, bursts, multiSkips)
	if steadyOK == 0 || assertRefused == 0 || bursts == 0 || multiSkips == 0 {
		t.Fatal("a prediction case never occurred")
	}
}

// TestAccessorSteadyRefusesInjector: on a bus with a fault injector,
// even a transparent one, Steady predicts no variable, because each
// fragment of a Get rolls its own fault.
func TestAccessorSteadyRefusesInjector(t *testing.T) {
	spec, err := devil.Compile("testdev.dil", testSpec)
	if err != nil {
		t.Fatal(err)
	}
	tw := newTwin(t, spec, codegen.Production)
	steady := 0
	for _, sig := range tw.stubs.Interface().Vars {
		if acc, _ := tw.stubs.Accessor(sig.Name); sig.Readable {
			if _, _, ok := acc.Steady(); ok {
				steady++
			}
		}
	}
	if steady == 0 {
		t.Fatal("no variable predicts without an injector")
	}
	tw.bus.SetInjector(hw.NewInjector(hw.InjectorConfig{}, tw.clock))
	for _, sig := range tw.stubs.Interface().Vars {
		if acc, _ := tw.stubs.Accessor(sig.Name); sig.Readable {
			if _, _, ok := acc.Steady(); ok {
				t.Errorf("%s: Steady answered on a bus with an injector", sig.Name)
			}
		}
	}
}
