package pci_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
	"repro/internal/hw/pci"
)

// op is one step of a replay script: a port write, a port read, or
// (ticks > 0) a clock Tick.
type op struct {
	write bool
	port  hw.Port
	width hw.AccessWidth
	value uint32
	ticks uint64
}

func tick(n uint64) op { return op{ticks: n} }

func out8(port hw.Port, v uint32) op { return op{write: true, port: port, width: hw.Width8, value: v} }

func in8(port hw.Port) op { return op{port: port, width: hw.Width8} }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// replay runs script on a fresh rig and returns every value it read,
// then the final accessors. With split set, each Tick(n) runs as n
// Tick(1) calls, each followed by a side-effect-free observation.
func replay(t *testing.T, script []op, split bool) []uint64 {
	t.Helper()
	bus, clock, bm := newRig(t)
	observe := func(i uint64) {
		switch i % 4 {
		case 0:
			_, _ = bus.Read(0xc002, hw.Width8)
		case 1:
			bm.Active()
		case 2:
			bm.IrqPending()
		default:
			bm.ErrorLatched()
		}
	}
	var got []uint64
	for _, o := range script {
		switch {
		case o.ticks > 0 && split:
			for i := uint64(0); i < o.ticks; i++ {
				clock.Tick(1)
				observe(i)
			}
		case o.ticks > 0:
			clock.Tick(o.ticks)
		case o.write:
			if err := bus.Write(o.port, o.width, o.value); err != nil {
				t.Fatal(err)
			}
		default:
			v, err := bus.Read(o.port, o.width)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, uint64(v))
		}
	}
	return append(got, b2u(bm.Active()), b2u(bm.IrqPending()), b2u(bm.ErrorLatched()),
		uint64(bm.Capabilities()), uint64(bm.DescriptorTable()))
}

// randomScript draws starts, stops, latch clears, descriptor writes,
// reads of all three registers and ticks around the transfer time.
func randomScript(rng *rand.Rand) []op {
	var s []op
	for len(s) < 60 {
		switch rng.Intn(7) {
		case 0, 1:
			s = append(s, tick(uint64(1+rng.Intn(45))))
		case 2:
			cmd := []uint32{pci.BMStart, pci.BMStart | pci.BMReadMode, 0, pci.BMReadMode}
			s = append(s, out8(0xc000, cmd[rng.Intn(len(cmd))]))
		case 3:
			st := []uint32{pci.BMInterrupt, pci.BMError, pci.BMInterrupt | pci.BMError, 0x60, 0x20, 0}
			s = append(s, out8(0xc002, st[rng.Intn(len(st))]))
		case 4:
			s = append(s, op{write: true, port: 0xc004, width: hw.Width32, value: rng.Uint32()})
		default:
			reads := []op{in8(0xc000), in8(0xc002), {port: 0xc004, width: hw.Width32}}
			s = append(s, reads[rng.Intn(len(reads))])
		}
	}
	return s
}

// TestObservationDoesNotChangeState: reading the bus master never moves
// it. Every script reads the same values and leaves the same final
// accessors whether its ticks arrive in batches or one at a time with a
// status read or an accessor call after each.
func TestObservationDoesNotChangeState(t *testing.T) {
	type replayCase struct {
		name   string
		script []op
	}
	cases := []replayCase{
		{"complete", []op{out8(0xc000, pci.BMStart), tick(29), in8(0xc002), tick(1), in8(0xc002)}},
		{"stop-early", []op{out8(0xc000, pci.BMStart), tick(10), out8(0xc000, 0), tick(40), in8(0xc002)}},
		{"restart", []op{out8(0xc000, pci.BMStart), tick(50), out8(0xc002, pci.BMInterrupt),
			out8(0xc000, 0), out8(0xc000, pci.BMStart), tick(15), in8(0xc002), tick(15)}},
	}
	for seed := int64(1); seed <= 200; seed++ {
		cases = append(cases, replayCase{fmt.Sprintf("seed-%d", seed), randomScript(rand.New(rand.NewSource(seed)))})
	}
	for _, c := range cases {
		batched, split := replay(t, c.script, false), replay(t, c.script, true)
		if !reflect.DeepEqual(batched, split) {
			t.Errorf("%s: batched ticks read %v, split ticks read %v", c.name, batched, split)
		}
	}
}

// TestAccessorSeesElapsedTime: each accessor, called first on its own
// rig, reports a completed transfer with no port access after the time
// passed.
func TestAccessorSeesElapsedTime(t *testing.T) {
	for _, c := range []struct {
		name string
		get  func(*pci.BusMaster) bool
		want bool
	}{
		{"Active", (*pci.BusMaster).Active, false},
		{"IrqPending", (*pci.BusMaster).IrqPending, true},
	} {
		bus, clock, bm := newRig(t)
		if err := bus.Out8(0xc000, pci.BMStart); err != nil {
			t.Fatal(err)
		}
		clock.Tick(30)
		if got := c.get(bm); got != c.want {
			t.Errorf("%s after the transfer time = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPredictionsMatchReads replays the seeded scripts through
// hwtest.Check: whenever Steady answers, a twin read at random times
// before until returns the predicted value and ends in the state of a
// twin never read.
func TestPredictionsMatchReads(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var script []hwtest.Op
		for _, o := range randomScript(rng) {
			script = append(script, hwtest.Op{Write: o.write, Port: o.port, Width: o.width, Value: o.value, Ticks: o.ticks})
		}
		if err := hwtest.Check(hwtest.PCI(), nil, script, rng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
