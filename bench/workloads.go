package main

import (
	"fmt"
	"runtime"

	"repro/internal/campaign"
)

// A workload is one closed loop of campaigns: each boot worker takes the
// next task when its previous boot returns. One pass runs every spec in
// order, each into a fresh FileStore; a run repeats passes until its
// time is up. Why each workload exists is in BENCHMARK.json and the
// README; what it must load is in the comments below.
type workload struct {
	name    string
	workers int
	// specs is one pass.
	specs []campaign.Spec
}

// faultsSampleSeed fixes the faults workload's 20% sample. Drawing it
// from the run's seed instead moved allocs_per_boot by 4.4% between
// seeds, more than that metric's bound, so the run's seed only picks
// the traced run's replay sample.
const faultsSampleSeed = 2001

var (
	cDrivers     = []string{"ide_c", "busmouse_c", "ne2000_c", "permedia_c", "busmaster_c"}
	devilDrivers = []string{"ide_devil", "busmouse_devil", "ne2000_devil", "permedia_devil", "busmaster_devil"}
	allDrivers   = append(append([]string(nil), cDrivers...), devilDrivers...)
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workload{
	{
		// The paper's evaluation: every mutant of every driver, on all
		// cores. Execution-bound, mostly C-driver code.
		name:    "corpus",
		workers: min(runtime.NumCPU(), 4),
		specs:   []campaign.Spec{{Name: "corpus", Drivers: allDrivers}},
	},
	{
		// Execution through generated Devil stubs, with assertions on
		// (debug) and off (production). Bypasses the C-only mechanisms.
		name:    "devil",
		workers: 1,
		specs: []campaign.Spec{
			{Name: "devil-debug", Drivers: devilDrivers, StubMode: "debug"},
			{Name: "devil-production", Drivers: devilDrivers, StubMode: "production"},
		},
	},
	{
		// A fixed sample of the C drivers on degraded hardware: every
		// mapped port access goes through the fault injector, and
		// snapshots are off.
		name:    "faults",
		workers: 1,
		specs: []campaign.Spec{{Name: "faults", Drivers: cDrivers, SamplePct: 20,
			Seed: faultsSampleSeed, Scenarios: []string{"flaky-bus", "timing"}}},
	},
	{
		// Boots of 15-20 us: the time goes to the front end, the store and
		// per-campaign rig assembly, not to execution.
		name:    "short",
		workers: 1,
		specs: []campaign.Spec{{Name: "short",
			Drivers: []string{"busmouse_c", "busmouse_devil", "busmaster_devil"}}},
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// stubName is the golden-record name of a spec's stub mode: "" and
// "debug" are the same build.
func stubName(spec campaign.Spec) string {
	if spec.StubMode == "" {
		return "debug"
	}
	return spec.StubMode
}

// scenarioName is the golden-record name of a scenario cell.
func scenarioName(sc string) string {
	if sc == "" {
		return "pristine"
	}
	return sc
}
