package ide_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
	"repro/internal/hw/ide"
)

// op is one step of a replay script: a port write, a port read, or
// (ticks > 0) a clock Tick. Data-port accesses are 16 bits wide, the
// rest 8.
type op struct {
	write bool
	port  hw.Port
	value uint32
	ticks uint64
}

func tick(n uint64) op { return op{ticks: n} }

func out(port hw.Port, v uint32) op { return op{write: true, port: port, value: v} }

func in(port hw.Port) op { return op{port: port} }

// data is n data-port accesses: reads, or writes of a running pattern.
func data(n int, write bool) []op {
	s := make([]op, n)
	for i := range s {
		s[i] = op{write: write, port: 0x1f0, value: uint32(i * 0x0101)}
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
// then the task file and the disk image. With split set, each Tick(n)
// runs as n Tick(1) calls, each followed by a status or alternate
// status read.
func replay(t *testing.T, script []op, split bool) []uint64 {
	t.Helper()
	r := newRig(t, 16)
	access := func(o op) uint64 {
		width := hw.Width8
		if o.port == 0x1f0 {
			width = hw.Width16
		}
		if o.write {
			if err := r.bus.Write(o.port, width, o.value); err != nil {
				t.Fatal(err)
			}
			return 0
		}
		v, err := r.bus.Read(o.port, width)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(v)
	}
	var got []uint64
	for _, o := range script {
		switch {
		case o.ticks > 0 && split:
			for i := uint64(0); i < o.ticks; i++ {
				r.clock.Tick(1)
				access(in([]hw.Port{0x1f7, 0x3f6}[i%2]))
			}
		case o.ticks > 0:
			r.clock.Tick(o.ticks)
		case o.write:
			access(o)
		default:
			got = append(got, access(o))
		}
	}
	for port := hw.Port(0x1f1); port <= 0x1f7; port++ {
		got = append(got, access(in(port)))
	}
	for _, sec := range r.disk.Sectors {
		for _, b := range sec {
			got = append(got, uint64(b))
		}
	}
	return got
}

// randomScript draws task-file setups, commands (valid, bogus and
// out-of-range), soft resets, data-port bursts, register reads and
// ticks around the busy-phase durations.
func randomScript(rng *rand.Rand) []op {
	var s []op
	for len(s) < 400 {
		switch rng.Intn(10) {
		case 0, 1:
			s = append(s, tick(uint64(1+rng.Intn(60))))
		case 2:
			s = append(s, tick(uint64(60+rng.Intn(200))))
		case 3:
			head := []uint32{0xa0, 0xe0, 0xb0}[rng.Intn(3)]
			s = append(s, out(0x1f2, uint32(rng.Intn(4))), out(0x1f3, uint32(rng.Intn(20))),
				out(0x1f4, 0), out(0x1f5, 0), out(0x1f6, head))
		case 4:
			cmds := []uint32{ide.CmdIdentify, ide.CmdReadSectors, ide.CmdWriteSectors,
				ide.CmdRecalibrate, ide.CmdSetFeatures, 0x55}
			s = append(s, out(0x1f7, cmds[rng.Intn(len(cmds))]))
		case 5:
			s = append(s, out(0x3f6, []uint32{0x04, 0x00, 0x02}[rng.Intn(3)]))
		case 6:
			s = append(s, data(1+rng.Intn(300), false)...)
		case 7:
			s = append(s, data(1+rng.Intn(300), true)...)
		default:
			s = append(s, in([]hw.Port{0x1f1, 0x1f2, 0x1f3, 0x1f7, 0x3f6}[rng.Intn(5)]))
		}
	}
	return s
}

// TestObservationDoesNotChangeState: reading the status registers never
// moves the controller. Every script reads the same values and leaves
// the same task file and disk whether its ticks arrive in batches or one
// at a time with a status read after each.
func TestObservationDoesNotChangeState(t *testing.T) {
	type replayCase struct {
		name   string
		script []op
	}
	cases := []replayCase{
		{"identify", cat([]op{out(0x1f6, 0xa0), out(0x1f7, ide.CmdIdentify), tick(49), in(0x1f7), tick(1), in(0x1f7)},
			data(256, false), []op{in(0x1f7)})},
		{"read-two", cat([]op{out(0x1f2, 2), out(0x1f3, 3), out(0x1f4, 0), out(0x1f5, 0), out(0x1f6, 0xe0),
			out(0x1f7, ide.CmdReadSectors), tick(60)}, data(256, false), []op{tick(5), in(0x3f6), tick(5)},
			data(256, false), []op{in(0x1f7)})},
		{"write-two", cat([]op{out(0x1f2, 2), out(0x1f3, 1), out(0x1f6, 0xa0), out(0x1f7, ide.CmdWriteSectors)},
			data(256, true), []op{tick(10)}, data(256, true), []op{in(0x1f7)})},
		{"soft-reset", []op{out(0x3f6, 0x04), tick(10), out(0x3f6, 0x00), tick(199), in(0x3f6), tick(1),
			in(0x1f7), in(0x1f1), in(0x1f2), in(0x1f3)}},
	}
	for seed := int64(1); seed <= 200; seed++ {
		cases = append(cases, replayCase{fmt.Sprintf("seed-%d", seed), randomScript(rand.New(rand.NewSource(seed)))})
	}
	for _, c := range cases {
		batched, split := replay(t, c.script, false), replay(t, c.script, true)
		if !reflect.DeepEqual(batched, split) {
			t.Errorf("%s: batched and split ticks diverge", c.name)
		}
	}
}

// TestPredictionsMatchReads replays the seeded scripts through
// hwtest.Check: whenever Steady answers, a twin read at random times
// before until returns the predicted value and ends in the state of a
// twin never read; a Burst matches as many reads with ticks between
// them.
func TestPredictionsMatchReads(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var script []hwtest.Op
		for _, o := range randomScript(rng) {
			width := hw.Width8
			if o.port == 0x1f0 {
				width = hw.Width16
			}
			script = append(script, hwtest.Op{Write: o.write, Port: o.port, Width: width, Value: o.value, Ticks: o.ticks})
		}
		if err := hwtest.Check(hwtest.IDE(), nil, script, rng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
