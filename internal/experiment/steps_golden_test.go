package experiment

import (
	"testing"

	"repro/internal/drivers"
	"repro/internal/kernel"
)

// TestGoldenPristineSteps pins the watchdog step count of every embedded
// driver's pristine boot, on both execution backends.
//
// Step counts were re-based once, when basic-block charging landed: the
// watchdog charges one step per maximal run of straight-line statements
// (plus one per control-flow statement and per loop back edge), in the
// interpreter and the block backend alike. These constants pin that
// contract. If a change moves them, it changed the charging semantics —
// which moves every budget-edge mutant's outcome and the device timing
// of every boot — and must re-base deliberately: update the constants,
// note the re-base in the commit, and expect BENCH and table churn.
func TestGoldenPristineSteps(t *testing.T) {
	golden := map[string]int64{
		"busmaster_c":     158,
		"busmaster_devil": 162,
		"busmouse_c":      35,
		"busmouse_devil":  11,
		"ide_c":           13922,
		"ide_devil":       4205,
		"ne2000_c":        1900,
		"ne2000_devil":    536,
		"permedia_c":      1333,
		"permedia_devil":  1333,
	}
	for _, driver := range drivers.Names() {
		want, ok := golden[driver]
		if !ok {
			t.Errorf("%s: no golden step count — pin the new driver here", driver)
			continue
		}
		src, err := drivers.Load(driver)
		if err != nil {
			t.Fatal(err)
		}
		toks, err := ParseDriver(src.Text)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendInterp, BackendBlock} {
			res, err := BootDriver(driver, BootInput{Tokens: toks, Devil: src.Devil, Backend: backend})
			if err != nil {
				t.Fatalf("%s/%s: %v", driver, backend, err)
			}
			if res.Outcome != kernel.OutcomeBoot {
				t.Fatalf("%s/%s: pristine boot outcome = %v (%v)", driver, backend, res.Outcome, res.RunErr)
			}
			if res.Steps != want {
				t.Errorf("%s/%s: pristine boot took %d steps, golden %d", driver, backend, res.Steps, want)
			}
		}
	}
}
