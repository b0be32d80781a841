// Package hwtest checks the read predictions of device models
// (hw.SteadyReader and hw.BurstReader) against the reads they stand for.
// The device packages' tests replay their seeded scripts through Check,
// and the hw package fuzzes it over the four models that predict.
package hwtest

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/hw"
	"repro/internal/hw/ide"
	"repro/internal/hw/ne2000"
	"repro/internal/hw/pci"
	"repro/internal/hw/permedia"
)

// Op is one step of a script: a port access, or (Ticks > 0) a clock
// Tick.
type Op struct {
	Write bool
	Port  hw.Port
	Width hw.AccessWidth
	Value uint32
	Ticks uint64
}

// Machine is one device model mapped on a floating bus over its own
// clock.
type Machine struct {
	Bus   *hw.Bus
	Clock *hw.Clock
	// State catches the model up to the clock through an observation
	// that changes nothing, and returns its state: a comparable struct,
	// compared with ==, or anything else for reflect.DeepEqual.
	State func() any
}

// Model builds identical machines of one device model. Ops is a palette
// of typical steps that fuzzed scripts are spelled in; its reads are the
// probes.
type Model struct {
	Name string
	New  func() *Machine
	Ops  []Op
}

// Check replays script on two machines of the model. With a non-nil
// faults, both buses carry a fault injector of that configuration,
// armed at one seed the rng draws. Before each step Check picks a probe
// and checks, on the two machines in the same state:
//
//   - whenever Steady answers, the first machine read at random times
//     before until, often the last of them, returns v every time, and
//     ends in the state of the second, whose clock only moved and whose
//     bus skipped the reads (SkipReads); under an injector the reads are
//     the ones it leaves clean (CleanReads), each landing its latency
//     later;
//   - a Burst of n reads on the first machine returns what n reads of
//     the second, with random ticks between them, return, and both end
//     in the same state.
//
// The state compared is the clock, the bus accounting, the model's
// state and, under an injector, its read ordinal, its fault counts and
// every probe port's latch. The checks keep the machines in step, so
// the script goes on from there. Check returns the first mismatch.
func Check(m Model, faults *hw.InjectorConfig, script []Op, rng *rand.Rand) error {
	var probes []Op
	for _, o := range m.Ops {
		if !o.Write && o.Ticks == 0 {
			probes = append(probes, o)
		}
	}
	a, b := m.New(), m.New()
	if faults != nil {
		seed := rng.Uint64()
		for _, mc := range []*Machine{a, b} {
			inj := hw.NewInjector(*faults, mc.Clock)
			inj.Reseed(seed)
			mc.Bus.SetInjector(inj)
		}
	}
	c := &checker{a: a, b: b, probes: probes, rng: rng}
	for i, o := range script {
		p := probes[rng.Intn(len(probes))]
		if err := c.steady(p); err != nil {
			return fmt.Errorf("%s, before step %d: %w", m.Name, i, err)
		}
		if err := c.burst(p); err != nil {
			return fmt.Errorf("%s, before step %d: %w", m.Name, i, err)
		}
		for _, mc := range []*Machine{a, b} {
			if err := mc.step(o); err != nil {
				return fmt.Errorf("%s, step %d: %w", m.Name, i, err)
			}
		}
	}
	return nil
}

// checker holds the twin machines of one Check.
type checker struct {
	a, b   *Machine
	probes []Op
	rng    *rand.Rand
}

func (mc *Machine) step(o Op) error {
	switch {
	case o.Ticks > 0:
		mc.Clock.Tick(o.Ticks)
		return nil
	case o.Write:
		return mc.Bus.Write(o.Port, o.Width, o.Value)
	}
	_, err := mc.Bus.Read(o.Port, o.Width)
	return err
}

// same reports where the two machines differ: clock, bus accounting,
// injector or model state.
func (c *checker) same() error {
	a, b := c.a, c.b
	if an, bn := a.Clock.Now(), b.Clock.Now(); an != bn {
		return fmt.Errorf("clocks at %d and %d", an, bn)
	}
	aa, af := a.Bus.Stats()
	ba, bf := b.Bus.Stats()
	if aa != ba || af != bf {
		return fmt.Errorf("bus stats %d/%d and %d/%d", aa, af, ba, bf)
	}
	if ai, bi := a.Bus.Injector(), b.Bus.Injector(); ai != nil {
		if ao, bo := ai.Ordinal(), bi.Ordinal(); ao != bo {
			return fmt.Errorf("injector ordinals %d and %d", ao, bo)
		}
		var as, bs [3]uint64
		as[0], as[1], as[2] = ai.Stats()
		bs[0], bs[1], bs[2] = bi.Stats()
		if as != bs {
			return fmt.Errorf("injector drops/dups/stales %v and %v", as, bs)
		}
		for _, p := range c.probes {
			av, aok := a.Bus.Latched(p.Port)
			bv, bok := b.Bus.Latched(p.Port)
			if aok != bok || av != bv {
				return fmt.Errorf("port %#x latches %#x (%v) and %#x (%v)", p.Port, av, aok, bv, bok)
			}
		}
	}
	sa, sb := a.State(), b.State()
	t := reflect.TypeOf(sa)
	plain := t.Kind() == reflect.Struct && t.Comparable()
	if plain && sa != sb || !plain && !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("states differ:\n%+v\n%+v", sa, sb)
	}
	return nil
}

func (c *checker) steady(p Op) error {
	a, b, rng := c.a, c.b, c.rng
	v, until, ok := a.Bus.Steady(p.Port, p.Width)
	if err := c.same(); err != nil {
		return fmt.Errorf("Steady(%#x, %v) moved the model: %w", p.Port, p.Width, err)
	}
	if !ok {
		return nil
	}
	start := a.Clock.Now()
	clean, lat := a.Bus.CleanReads(p.Port, uint64(1+rng.Intn(5)))
	reads := uint64(0)
	for ; reads < clean; reads++ {
		now := a.Clock.Now()
		if now+lat >= until {
			break
		}
		gap := uint64(rng.Int63n(int64(min(until-now-lat, 300))))
		if reads == clean-1 && until-now <= 5000 && rng.Intn(2) == 0 {
			gap = until - 1 - now - lat // the last tick the prediction covers
		}
		a.Clock.Tick(gap)
		got, err := a.Bus.Read(p.Port, p.Width)
		if err != nil {
			return err
		}
		if got != v {
			return fmt.Errorf("Steady(%#x, %v) at %d = %#x until %d, but a read at %d returned %#x",
				p.Port, p.Width, start, v, until, a.Clock.Now(), got)
		}
	}
	b.Clock.Tick(a.Clock.Now() - b.Clock.Now() - reads*lat)
	b.Bus.SkipReads(p.Port, v, reads)
	if err := c.same(); err != nil {
		return fmt.Errorf("%d reads predicted by Steady(%#x, %v) moved the model: %w", reads, p.Port, p.Width, err)
	}
	return nil
}

func (c *checker) burst(p Op) error {
	a, b, rng := c.a, c.b, c.rng
	dst := make([]uint32, 1+rng.Intn([]int{8, 40, 300}[rng.Intn(3)]))
	n := a.Bus.Burst(p.Port, p.Width, dst)
	for i, want := range dst[:n] {
		b.Clock.Tick(uint64(rng.Intn(3) * rng.Intn(30)))
		got, err := b.Bus.Read(p.Port, p.Width)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("Burst(%#x, %v) read %d = %#x, a read returned %#x", p.Port, p.Width, i, want, got)
		}
	}
	a.Clock.Tick(b.Clock.Now() - a.Clock.Now())
	if err := c.same(); err != nil {
		return fmt.Errorf("Burst(%#x, %v) of %d reads: %w", p.Port, p.Width, n, err)
	}
	return nil
}

// Models returns the device models that predict reads.
func Models() []Model { return []Model{IDE(), NE2000(), PCI(), Permedia()} }

func in(port hw.Port, w hw.AccessWidth) Op { return Op{Port: port, Width: w} }

func out(port hw.Port, w hw.AccessWidth, vs ...uint32) []Op {
	s := make([]Op, len(vs))
	for i, v := range vs {
		s[i] = Op{Write: true, Port: port, Width: w, Value: v}
	}
	return s
}

func ticks(ns ...uint64) []Op {
	s := make([]Op, len(ns))
	for i, n := range ns {
		s[i] = Op{Ticks: n}
	}
	return s
}

func cat(parts ...[]Op) []Op {
	var s []Op
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

// must panics on a machine-assembly error: the models' fixed port maps
// never overlap.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// IDE is the ide controller at 0x1f0/0x3f6 with a 16-sector disk.
func IDE() Model {
	return Model{
		Name: "ide",
		New: func() *Machine {
			img := make([][]byte, 16)
			for i := range img {
				img[i] = make([]byte, ide.SectorSize)
				for j := range img[i] {
					img[i][j] = byte(i*7 + j)
				}
			}
			clock, bus := &hw.Clock{}, hw.NewBus()
			bus.SetFloating(true)
			ctrl := ide.NewController(clock, ide.NewDisk("FUZZDISK", img))
			ctl := ctrl.ControlBlock()
			must(bus.Map(0x1f0, 8, ctrl))
			must(bus.Map(0x3f6, 1, ctl))
			return &Machine{Bus: bus, Clock: clock, State: func() any {
				_, _ = ctl.Read(0, hw.Width8)
				return ctrl
			}}
		},
		Ops: cat(ticks(1, 9, 50, 210),
			out(0x1f2, hw.Width8, 1, 2), out(0x1f3, hw.Width8, 1, 3, 40), out(0x1f4, hw.Width8, 0),
			out(0x1f6, hw.Width8, 0xa0, 0xe0, 0xb0),
			out(0x1f7, hw.Width8, ide.CmdIdentify, ide.CmdReadSectors, ide.CmdWriteSectors, ide.CmdRecalibrate, 0x55),
			out(0x3f6, hw.Width8, 0x04, 0x00), out(0x1f0, hw.Width16, 0x1234),
			[]Op{in(0x1f0, hw.Width16), in(0x1f0, hw.Width16), in(0x1f0, hw.Width8), in(0x1f1, hw.Width8),
				in(0x1f2, hw.Width8), in(0x1f6, hw.Width8), in(0x1f7, hw.Width8), in(0x3f6, hw.Width8)}),
	}
}

// NE2000 is the NIC with its register file at 0x300, data port at 0x310
// and reset port at 0x31f.
func NE2000() Model {
	return Model{
		Name: "ne2000",
		New: func() *Machine {
			bus := hw.NewBus()
			bus.SetFloating(true)
			nic := ne2000.New()
			must(bus.Map(0x300, 16, nic.Registers()))
			must(bus.Map(0x310, 1, nic.DataPort()))
			must(bus.Map(0x31f, 1, nic.ResetPort()))
			// A copy of the NIC: == compares its packet memory fast.
			return &Machine{Bus: bus, Clock: &hw.Clock{}, State: func() any { return *nic }}
		},
		Ops: cat(ticks(5),
			out(0x300, hw.Width8, 0x21, 0x22, 0x0a, 0x12, 0x62, 0x26),
			out(0x301, hw.Width8, 0x46), out(0x302, hw.Width8, 0x60), out(0x304, hw.Width8, 0x40),
			out(0x305, hw.Width8, 0x40), out(0x308, hw.Width8, 0, 4), out(0x309, hw.Width8, 0x40, 0x46),
			out(0x30a, hw.Width8, 4, 60, 0xff), out(0x30b, hw.Width8, 0, 1), out(0x30d, hw.Width8, 0x02),
			out(0x307, hw.Width8, 0xff), out(0x310, hw.Width16, 0xbeef),
			[]Op{in(0x300, hw.Width8), in(0x303, hw.Width8), in(0x307, hw.Width8), in(0x30d, hw.Width8),
				in(0x310, hw.Width16), in(0x310, hw.Width16), in(0x310, hw.Width8), in(0x31f, hw.Width8)}),
	}
}

// PCI is the bus master's command, status and descriptor ports at
// 0xc000, 0xc002 and 0xc004.
func PCI() Model {
	return Model{
		Name: "pci",
		New: func() *Machine {
			clock, bus := &hw.Clock{}, hw.NewBus()
			bus.SetFloating(true)
			bm := pci.New(clock)
			must(bus.Map(0xc000, 1, bm.Command()))
			must(bus.Map(0xc002, 1, bm.Status()))
			must(bus.Map(0xc004, 1, bm.Descriptor()))
			return &Machine{Bus: bus, Clock: clock, State: func() any {
				bm.Active()
				return bm
			}}
		},
		Ops: cat(ticks(1, 12, 31),
			out(0xc000, hw.Width8, pci.BMStart, pci.BMStart|pci.BMReadMode, 0),
			out(0xc002, hw.Width8, pci.BMInterrupt, pci.BMError|0x60, 0),
			out(0xc004, hw.Width32, 0x12345677),
			[]Op{in(0xc000, hw.Width8), in(0xc002, hw.Width8), in(0xc004, hw.Width32), in(0xc001, hw.Width8)}),
	}
}

// Permedia is the GPU's control aperture at 0x8000 and FIFO at 0x9000.
func Permedia() Model {
	var probes []Op
	for r := hw.Port(0); r < 24; r++ {
		probes = append(probes, in(0x8000+r, hw.Width32))
	}
	return Model{
		Name: "permedia",
		New: func() *Machine {
			clock, bus := &hw.Clock{}, hw.NewBus()
			bus.SetFloating(true)
			gpu := permedia.New(clock)
			must(bus.Map(0x8000, 24, gpu.Control()))
			must(bus.Map(0x9000, 1, gpu.FIFO()))
			return &Machine{Bus: bus, Clock: clock, State: func() any {
				gpu.Drained()
				return gpu
			}}
		},
		Ops: cat(ticks(1, 5, 17, 120),
			out(0x8000, hw.Width32, 1), out(0x8002, hw.Width32, 0x1f, permedia.IntVRetrace),
			out(0x8006, hw.Width32, 7, 64, 300), out(0x8010, hw.Width32, 0, 9, 64), out(0x8014, hw.Width32, 0, 1),
			out(0x9000, hw.Width32, 1, 2, 3),
			probes, []Op{in(0x9000, hw.Width32), in(0x9000, hw.Width8)}),
	}
}
