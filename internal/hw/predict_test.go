package hw_test

import (
	"math/rand"
	"testing"

	"repro/internal/hw/hwtest"
)

// FuzzDevicePredictions drives scripts through the four device models
// that predict reads, checking every Steady and Burst answer against
// real reads on a twin machine (hwtest.Check). The input picks the
// model, seeds the checks' random times and spells the script, one
// palette step per byte. Its seeds are under testdata/fuzz.
func FuzzDevicePredictions(f *testing.F) {
	models := hwtest.Models()
	f.Fuzz(func(t *testing.T, model uint8, seed int64, script []byte) {
		m := models[int(model)%len(models)]
		script = script[:min(len(script), 300)] // every step checks: keep an input quick
		ops := make([]hwtest.Op, len(script))
		for i, b := range script {
			ops[i] = m.Ops[int(b)%len(m.Ops)]
		}
		if err := hwtest.Check(m, ops, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	})
}
