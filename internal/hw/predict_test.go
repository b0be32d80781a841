package hw_test

import (
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
)

// FuzzDevicePredictions drives scripts through the four device models
// that predict reads, checking every Steady and Burst answer against
// real reads on a twin machine (hwtest.Check). The input picks the
// model (the model byte's low two bits), arms a fault injector (its
// high six bits, see faultsOf), seeds the checks' random times and
// spells the script, one palette step per byte. Its seeds are under
// testdata/fuzz.
func FuzzDevicePredictions(f *testing.F) {
	models := hwtest.Models()
	f.Fuzz(func(t *testing.T, model uint8, seed int64, script []byte) {
		m := models[int(model&3)%len(models)]
		script = script[:min(len(script), 300)] // every step checks: keep an input quick
		ops := make([]hwtest.Op, len(script))
		for i, b := range script {
			ops[i] = m.Ops[int(b)%len(m.Ops)]
		}
		if err := hwtest.Check(m, faultsOf(model>>2), ops, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	})
}

// faultsOf reads an injector configuration from six bits: none for 0;
// otherwise the low three give each of the drop, dup and stale rates in
// steps of 4%, and the high three pick the access latency.
func faultsOf(bits uint8) *hw.InjectorConfig {
	if bits == 0 {
		return nil
	}
	rate := uint32(bits&7) * 400
	return &hw.InjectorConfig{
		DropPerMyriad:  rate,
		DupPerMyriad:   rate,
		StalePerMyriad: rate,
		LatencyTicks:   []uint64{0, 1, 2, 3, 8, 17, 64, 300}[bits>>3&7],
	}
}
