package ne2000_test

import (
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
)

func out8(port hw.Port, v uint32) hwtest.Op {
	return hwtest.Op{Write: true, Port: port, Width: hw.Width8, Value: v}
}

// randomScript draws remote reads and writes of random spans, page
// switches, transmits in loopback, interrupt clears, resets, register
// and data-port reads.
func randomScript(rng *rand.Rand) []hwtest.Op {
	var s []hwtest.Op
	for len(s) < 200 {
		switch rng.Intn(8) {
		case 0:
			s = append(s, out8(0x308, uint32(rng.Intn(256))), out8(0x309, uint32(0x40+rng.Intn(0x40))),
				out8(0x30a, uint32(rng.Intn(256))), out8(0x30b, uint32(rng.Intn(2))),
				out8(0x300, []uint32{0x0a, 0x12}[rng.Intn(2)]))
		case 1:
			s = append(s, out8(0x300, []uint32{0x21, 0x22, 0x62, 0x61, 0xa2}[rng.Intn(5)]))
		case 2:
			s = append(s, out8(0x301, 0x46), out8(0x302, 0x60), out8(0x303, 0x46), out8(0x30d, 0x02),
				out8(0x304, 0x40), out8(0x305, uint32(1+rng.Intn(200))), out8(0x306, 0), out8(0x300, 0x26))
		case 3:
			s = append(s, out8(0x307, uint32(rng.Intn(256))))
		case 4:
			s = append(s, hwtest.Op{Port: 0x31f, Width: hw.Width8})
		case 5:
			s = append(s, hwtest.Op{Write: true, Port: 0x310, Width: hw.Width16, Value: rng.Uint32()})
		default:
			s = append(s, hwtest.Op{Port: 0x300 + hw.Port(rng.Intn(17)), Width: hw.Width8})
		}
	}
	return s
}

// TestPredictionsMatchReads replays seeded scripts through
// hwtest.Check: whenever Steady answers, a twin read returns the
// predicted value and ends in the state of a twin never read; a
// data-port Burst matches as many reads.
func TestPredictionsMatchReads(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := hwtest.Check(hwtest.NE2000(), nil, randomScript(rng), rng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
