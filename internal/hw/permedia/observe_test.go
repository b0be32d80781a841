package permedia_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
	"repro/internal/hw/permedia"
)

// op is one step of a replay script: a port write, a port read, or
// (ticks > 0) a clock Tick. Every access is 32 bits wide.
type op struct {
	write bool
	port  hw.Port
	value uint32
	ticks uint64
}

func tick(n uint64) op { return op{ticks: n} }

func out32(port hw.Port, v uint32) op { return op{write: true, port: port, value: v} }

func in32(port hw.Port) op { return op{port: port} }

// push is n FIFO words.
func push(n int) []op {
	s := make([]op, n)
	for i := range s {
		s[i] = out32(0x9000, uint32(i))
	}
	return s
}

func cat(parts ...[]op) []op {
	var s []op
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

// replay runs script on a fresh rig and returns every value it read,
// then the final accessors. With split set, each Tick(n) runs as n
// Tick(1) calls, each followed by a side-effect-free observation.
func replay(t *testing.T, script []op, split bool) []uint64 {
	t.Helper()
	bus, clock, gpu := newRig(t)
	observe := func(i uint64) {
		switch i % 5 {
		case 0:
			_, _ = bus.In32(0x8003) // InFIFOSpace
		case 1:
			gpu.Drained()
		case 2:
			gpu.FIFODepth()
		case 3:
			gpu.IntFlags()
		default:
			gpu.DMACount()
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
			if err := bus.Out32(o.port, o.value); err != nil {
				t.Fatal(err)
			}
		default:
			v, err := bus.In32(o.port)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, uint64(v))
		}
	}
	line, err := bus.In32(0x8015)
	if err != nil {
		t.Fatal(err)
	}
	video := uint64(0)
	if gpu.VideoEnabled() {
		video = 1
	}
	return append(got, gpu.Drained(), uint64(gpu.FIFODepth()), uint64(gpu.IntFlags()),
		uint64(gpu.DMACount()), video, uint64(line))
}

// randomScript draws FIFO bursts, DMA starts, video timing, interrupt
// clears, the occasional warm reset, register reads and ticks.
func randomScript(rng *rand.Rand) []op {
	var s []op
	for len(s) < 80 {
		switch rng.Intn(10) {
		case 0, 1:
			s = append(s, tick(uint64(1+rng.Intn(40))))
		case 2:
			s = append(s, tick(uint64(50+rng.Intn(250))))
		case 3, 4:
			s = append(s, push(1+rng.Intn(40))...)
		case 5:
			s = append(s, out32(0x8006, uint32(1+rng.Intn(400)))) // DMACount
		case 6:
			s = append(s, out32(0x8010, uint32(rng.Intn(60))), out32(0x8014, uint32(rng.Intn(2)))) // VTotal, VideoControl
		case 7:
			if rng.Intn(8) == 0 {
				s = append(s, out32(0x8000, 1)) // warm reset
			} else {
				s = append(s, out32(0x8002, uint32(rng.Intn(32)))) // clear IntFlags
			}
		case 8:
			s = append(s, in32(0x9000))
		default:
			s = append(s, in32(0x8000+hw.Port(rng.Intn(24))))
		}
	}
	return s
}

// TestObservationDoesNotChangeState: reading the GPU never moves it.
// Every script reads the same values and leaves the same final
// accessors whether its ticks arrive in batches or one at a time with a
// FIFO-space read or an accessor call after each.
func TestObservationDoesNotChangeState(t *testing.T) {
	type replayCase struct {
		name   string
		script []op
	}
	cases := []replayCase{
		// The drain to empty leaves credit over; the next word must
		// still take a full fifoDrainTime.
		{"credit-after-empty", cat(push(1), []op{tick(13)}, push(1), []op{tick(3), in32(0x8003), tick(5), in32(0x8003)})},
		{"drain-partial", cat(push(20), []op{tick(37), in32(0x8003)}, push(5), []op{tick(100), in32(0x8003)})},
		{"dma", []op{out32(0x8006, 100), tick(5), in32(0x8006), tick(20), in32(0x8006), in32(0x8002)}},
		{"retrace", []op{out32(0x8010, 40), out32(0x8014, 1), tick(30), in32(0x8015), tick(30), in32(0x8002),
			out32(0x8002, permedia.IntVRetrace), out32(0x8010, 10), tick(7), in32(0x8015), in32(0x8002)}},
		{"warm-reset", cat(push(8), []op{out32(0x8000, 1), tick(60), in32(0x8000), tick(40), in32(0x8000)}, push(2), []op{tick(9)})},
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
// rig, reports the FIFO drain or the DMA countdown with no port access
// after the time passed.
func TestAccessorSeesElapsedTime(t *testing.T) {
	for _, c := range []struct {
		name string
		prog []op
		get  func(*permedia.GPU) uint64
		want uint64
	}{
		{"Drained", push(4), func(g *permedia.GPU) uint64 { return g.Drained() }, 3},
		{"FIFODepth", push(4), func(g *permedia.GPU) uint64 { return uint64(g.FIFODepth()) }, 1},
		{"DMACount", []op{out32(0x8006, 400)}, func(g *permedia.GPU) uint64 { return uint64(g.DMACount()) }, 400 - 25*8},
		{"IntFlags", []op{out32(0x8006, 24)}, func(g *permedia.GPU) uint64 { return uint64(g.IntFlags()) }, permedia.IntDMA},
	} {
		bus, clock, gpu := newRig(t)
		for _, o := range c.prog {
			if err := bus.Out32(o.port, o.value); err != nil {
				t.Fatal(err)
			}
		}
		clock.Tick(25) // three FIFO words' drain time, 200 DMA dwords
		if got := c.get(gpu); got != c.want {
			t.Errorf("%s after 25 ticks = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestPredictionsMatchReads replays the seeded scripts through
// hwtest.Check: whenever Steady answers, a twin read at random times
// before until returns the predicted value and ends in the state of a
// twin never read; a FIFO-port Burst matches as many reads with ticks
// between them.
func TestPredictionsMatchReads(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var script []hwtest.Op
		for _, o := range randomScript(rng) {
			script = append(script, hwtest.Op{Write: o.write, Port: o.port, Width: hw.Width32, Value: o.value, Ticks: o.ticks})
		}
		if err := hwtest.Check(hwtest.Permedia(), nil, script, rng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
