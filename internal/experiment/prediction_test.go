package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/devil/codegen"
	"repro/internal/drivers"
	"repro/internal/hw"
)

// opaque hides a device's optional read-prediction interfaces
// (hw.SteadyReader, hw.BurstReader) from the bus.
type opaque struct{ hw.Device }

// hidePredictions remaps every device on the bus behind opaque. Unmapped
// ports of a floating bus still predict: the bus answers for those.
func hidePredictions(t *testing.T, bus *hw.Bus) {
	t.Helper()
	type claim struct {
		base, size hw.Port
		dev        hw.Device
	}
	var claims []claim
	bus.Mappings(func(base, size hw.Port, dev hw.Device) bool {
		claims = append(claims, claim{base, size, dev})
		return true
	})
	for _, c := range claims {
		bus.Unmap(c.dev)
	}
	for _, c := range claims {
		if err := bus.Map(c.base, c.size, opaque{c.dev}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredictionAblation boots TestWorkGate's sample (5%, seed 2001, on
// two block-backend campaign workers), each Devil driver's in both stub
// modes, twice: on plain rigs, where the loop kernels and
// the block stubs fast-forward over predicted reads, and on rigs whose
// devices hide the prediction interfaces, where every read reaches the
// device. It does so on pristine hardware for every driver, under the
// flaky-bus and timing injectors for every C driver, and under
// flaky-bus for ide_devil, whose stub polls would forward were
// Accessor.Steady not to refuse on a bus with an injector. Records,
// steps, console, coverage, the bus accounting and the injector's fault
// counts of every boot must be identical. It logs both wall times and
// the share of steps fast-forwarded, in total and per cell and mode, and
// requires the Devil drivers that poll predictable registers or read a
// FIFO block to fast-forward in both modes on pristine hardware, and
// every C driver that fast-forwards there to do so under both injectors.
func TestPredictionAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the work gate's sample twice per cell")
	}
	wl := NewWorkload().(*workload)
	type side struct {
		wk        *worker
		wall      time.Duration
		steps     int64
		forwarded int64
	}
	plain := &side{wk: newWorker(t, wl, campaign.Spec{})}
	hidden := &side{wk: newWorker(t, wl, campaign.Spec{})}
	mustForward := map[string]bool{"ide_devil": true, "ne2000_devil": true, "permedia_devil": true, "busmaster_devil": true}
	forwards := make(map[string]bool) // drivers that forward on pristine hardware
	type cell struct{ driver, scenario string }
	var cells []cell
	for _, driver := range drivers.Names() {
		cells = append(cells, cell{driver, ""})
	}
	for _, driver := range drivers.Names() {
		if strings.HasSuffix(driver, "_c") {
			cells = append(cells, cell{driver, "flaky-bus"}, cell{driver, "timing"})
		}
	}
	cells = append(cells, cell{"ide_devil", "flaky-bus"})
	for _, c := range cells {
		driver := c.driver
		r, err := hidden.wk.rigs.rigFor(driver, c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		hidePredictions(t, r.Bus)
		p, err := wl.plan(driver)
		if err != nil {
			t.Fatal(err)
		}
		modes := []codegen.Mode{codegen.Debug}
		if p.src.Devil {
			modes = []codegen.Mode{codegen.Debug, codegen.Production}
		}
		for _, mode := range modes {
			plain.wk.mode, hidden.wk.mode = mode, mode
			var steps, forwarded int64
			for _, id := range selectMutants(len(p.res.Mutants), 5, 2001) {
				var res [2]*BootResult
				var stats [2][5]uint64
				task := campaign.Task{Driver: driver, Mutant: id, Scenario: c.scenario}
				for i, s := range []*side{plain, hidden} {
					r, err := s.wk.rigs.rigFor(driver, c.scenario)
					if err != nil {
						t.Fatal(err)
					}
					accesses, faults := r.Bus.Stats()
					start := time.Now()
					res[i] = bootTask(t, s.wk, task)
					s.wall += time.Since(start)
					a, f := r.Bus.Stats()
					stats[i][0], stats[i][1] = a-accesses, f-faults
					if r.Injector != nil {
						stats[i][2], stats[i][3], stats[i][4] = r.Injector.Stats()
					}
					s.steps += res[i].Steps
					s.forwarded += r.Kern.Forwarded()
					if i == 0 {
						steps += res[i].Steps
						forwarded += r.Kern.Forwarded()
						// The result aliases pooled buffers the rig's next
						// boot overwrites; the hidden side boots on another
						// rig.
						res[0].Console = append([]string(nil), res[0].Console...)
						if res[0].Coverage != nil {
							res[0].Coverage = res[0].Coverage.Clone()
						}
					}
				}
				// diffOne's "interp" reads as the plain rig, "compiled" as
				// the hidden one.
				diffOne(t, driver, p, id, res[0], res[1])
				if stats[0] != stats[1] {
					t.Errorf("%s %s %v mutant %d: bus accesses/faults and injected drops/dups/stales %v with prediction, %v without",
						driver, c.scenario, mode, id, stats[0], stats[1])
				}
				if t.Failed() {
					t.Fatalf("%s %s %v: hiding predictions changed mutant %d", driver, c.scenario, mode, id)
				}
			}
			name := driver
			if c.scenario != "" {
				name += "@" + c.scenario
			}
			if p.src.Devil {
				name += " " + mode.String()
			}
			t.Logf("%-36s %10d steps, %5.1f%% fast-forwarded", name, steps, 100*float64(forwarded)/float64(max(steps, 1)))
			if c.scenario == "" && forwarded > 0 {
				forwards[driver] = true
			}
			if (c.scenario == "" && mustForward[driver] || c.scenario != "" && !p.src.Devil && forwards[driver]) && forwarded == 0 {
				t.Errorf("%s: no step fast-forwarded", name)
			}
		}
	}
	for _, c := range []struct {
		name string
		s    *side
	}{{"predicting", plain}, {"hidden", hidden}} {
		t.Logf("%-10s wall %v, %d steps, %.1f%% fast-forwarded",
			c.name, c.s.wall.Round(time.Millisecond), c.s.steps, 100*float64(c.s.forwarded)/float64(max(c.s.steps, 1)))
	}
}
