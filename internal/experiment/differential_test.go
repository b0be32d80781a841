package experiment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cdriver/cincr"
	"repro/internal/devil/codegen"
)

// The differential oracle: the block backend and its incremental front
// end exist for throughput, the tree-walking interpreter over a full
// per-mutant parse and check for trust. These tests boot generated
// mutants on the block backend through both front ends — and through
// the same per-worker machine-reuse pattern the campaign engine uses —
// and require the interpreter's observable results: compile-time
// detection, outcome class, terminating error text, console log,
// covered-line set, watchdog step count, and the Table 3/4 row the
// mutant lands in.

// diffRig reuses one rig per workload per backend × front end through
// the same rigSet pool a campaign worker uses: drivers route through
// the workload table, not a name switch.
type diffRig struct {
	backend     Backend
	incremental bool
	// scenario, when non-empty, boots every mutant under the named
	// hardware scenario with the campaign's task-derived fault seed.
	scenario string
	// stubMode is the Devil drivers' stub mode (debug when zero).
	stubMode codegen.Mode
	rigs     rigSet
}

func (r *diffRig) boot(t *testing.T, p *driverPlan, driver string, mutantID int) *BootResult {
	t.Helper()
	m := p.res.Mutants[mutantID]
	input := BootInput{
		Devil:    p.src.Devil,
		StubMode: r.stubMode,
		Budget:   ExperimentBudget,
		Backend:  r.backend,
		// The seed a campaign task of this cell would derive — the
		// scenario determinism contract is that THIS seed, not run
		// structure, decides the fault pattern.
		FaultSeed: campaign.Task{Driver: driver, Mutant: mutantID, Scenario: r.scenario}.FaultSeed(),
	}
	if r.incremental {
		if p.incr == nil {
			t.Fatalf("%s: no span analysis for incremental rig", driver)
		}
		input.Mutation = &cincr.Mutation{Src: p.incr, Index: m.TokenIndex, Replacement: m.Replacement}
	} else {
		input.Tokens = p.res.Apply(m)
	}
	br, err := r.bootInput(driver, input)
	if err != nil {
		t.Fatalf("%s mutant %d (%s): harness error: %v", driver, mutantID, r.backend, err)
	}
	return br
}

// bootInput boots one prepared input on the rig's pooled machine.
func (r *diffRig) bootInput(driver string, input BootInput) (*BootResult, error) {
	if r.rigs == nil {
		r.rigs = make(rigSet)
	}
	rig, err := r.rigs.rigFor(driver, r.scenario)
	if err != nil {
		return nil, err
	}
	return rig.Boot(input)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffOne compares every observable of one mutant's two boots.
func diffOne(t *testing.T, driver string, p *driverPlan, id int, interp, comp *BootResult) {
	t.Helper()
	m := p.res.Mutants[id]
	site := p.res.Sites[m.SiteIndex]
	fail := func(field string, iv, cv interface{}) {
		t.Errorf("%s mutant %d (%s): %s divergence:\n  interp:   %v\n  compiled: %v",
			driver, id, m.Description, field, iv, cv)
	}
	if interp.CompileDetected() != comp.CompileDetected() {
		fail("compile detection", interp.CompileErrors, comp.CompileErrors)
		return
	}
	if interp.CompileDetected() {
		if len(interp.CompileErrors) != len(comp.CompileErrors) ||
			errText(interp.CompileErrors[0]) != errText(comp.CompileErrors[0]) {
			fail("compile errors", interp.CompileErrors, comp.CompileErrors)
		}
		return
	}
	if interp.Outcome != comp.Outcome {
		fail("outcome", interp.Outcome, comp.Outcome)
	}
	if errText(interp.RunErr) != errText(comp.RunErr) {
		fail("terminating error", errText(interp.RunErr), errText(comp.RunErr))
	}
	if fmt.Sprint(interp.Console) != fmt.Sprint(comp.Console) {
		fail("console", interp.Console, comp.Console)
	}
	if !interp.Coverage.Equal(comp.Coverage) {
		fail("coverage", interp.Coverage.Slice(), comp.Coverage.Slice())
	}
	if interp.Steps != comp.Steps {
		fail("steps", interp.Steps, comp.Steps)
	}
	if interp.PartitionTableLost != comp.PartitionTableLost {
		fail("partition table", interp.PartitionTableLost, comp.PartitionTableLost)
	}
	if fmt.Sprint(interp.DamagedSectors) != fmt.Sprint(comp.DamagedSectors) {
		fail("damaged sectors", interp.DamagedSectors, comp.DamagedSectors)
	}
	if ir, cr := classifyRow(interp, site), classifyRow(comp, site); ir != cr {
		fail("table row", ir, cr)
	}
}

// TestDifferentialOracle boots generated mutants of every embedded
// driver on the block backend through the full and the incremental
// front end, anchored to the interpreter over a full parse and check
// (the reference semantics). The busmouse, bus-master and CDevil
// IDE/NE2000/Permedia drivers run their full enumerations; the C IDE,
// C NE2000 and C Permedia drivers (7600+, 13800+ and 5100+ mutants, the
// slowest boots) run seeded samples.
func TestDifferentialOracle(t *testing.T) {
	plans := []struct {
		driver   string
		pct      int // sample percentage (0 = all)
		shortPct int // sample percentage under -short
		scenario string
	}{
		{"busmouse_c", 0, 20, ""},
		{"busmouse_devil", 0, 0, ""},
		{"ide_devil", 0, 10, ""},
		{"ide_c", 8, 2, ""},
		{"ne2000_devil", 0, 5, ""},
		{"ne2000_c", 8, 2, ""},
		{"permedia_devil", 0, 10, ""},
		{"permedia_c", 8, 2, ""},
		{"busmaster_devil", 0, 25, ""},
		{"busmaster_c", 0, 5, ""},
		// The scenario axes: the oracle must hold under injected faults
		// too, because the injector is reseeded per boot from the task
		// identity — both backends and front ends meet the exact same
		// fault pattern at the same access ordinals.
		{"busmouse_c", 0, 20, "flaky-bus:10"},
		{"busmouse_devil", 0, 10, "flaky-bus:10"},
		{"ide_devil", 5, 2, "flaky-bus"},
		{"ne2000_devil", 5, 2, "timing:16"},
		{"ide_c", 2, 1, "timing:8"},
	}
	wl := NewWorkload().(*workload)
	for _, tc := range plans {
		name := tc.driver
		if tc.scenario != "" {
			name += "@" + tc.scenario
		}
		t.Run(name, func(t *testing.T) {
			p, err := wl.plan(tc.driver)
			if err != nil {
				t.Fatal(err)
			}
			pct := tc.pct
			if testing.Short() {
				pct = tc.shortPct
			}
			selected := selectMutants(len(p.res.Mutants), pct, 2001)
			ref := &diffRig{backend: BackendInterp, scenario: tc.scenario}
			variants := []struct {
				name string
				rig  *diffRig
			}{
				{"block/full", &diffRig{backend: BackendBlock, scenario: tc.scenario}},
				{"block/incremental", &diffRig{backend: BackendBlock, incremental: true, scenario: tc.scenario}},
			}
			for _, id := range selected {
				rb := ref.boot(t, p, tc.driver, id)
				// The reference result aliases pooled buffers that the next
				// boot on the same rig overwrites; the variants use separate
				// rigs, but the reference must survive both comparisons.
				rb.Console = append([]string(nil), rb.Console...)
				if rb.Coverage != nil {
					rb.Coverage = rb.Coverage.Clone()
				}
				for _, v := range variants {
					vb := v.rig.boot(t, p, tc.driver, id)
					diffOne(t, tc.driver, p, id, rb, vb)
					if t.Failed() {
						t.Fatalf("%s: %s diverged from interp/full at mutant %d",
							tc.driver, v.name, id)
					}
				}
			}
			t.Logf("%s: %d mutants identical on interp and both block front ends",
				tc.driver, len(selected))
		})
	}
}

// TestDifferentialTables runs the paper's Table 3 and Table 4 end to end
// through the campaign engine on each backend and requires the rendered
// tables to be byte-identical.
func TestDifferentialTables(t *testing.T) {
	sample := 4
	if testing.Short() {
		sample = 1
	}
	spec := campaign.Spec{Drivers: []string{"ide_c", "ide_devil"}, SamplePct: sample, Seed: 2001}
	block, err := RunTables(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.Backend = string(BackendInterp)
	interp, err := RunTables(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		driver  string
		caption string
	}{
		{"ide_c", "Table 3"},
		{"ide_devil", "Table 4"},
	} {
		bt := FormatDriverTable(block[tc.driver], tc.caption)
		it := FormatDriverTable(interp[tc.driver], tc.caption)
		if bt != it {
			t.Errorf("%s differs between backends:\nblock:\n%s\ninterp:\n%s", tc.caption, bt, it)
		}
	}
}

// TestCampaignBlockBackendSmoke runs a parallel campaign on the block
// backend — under -race in CI, this is the data-race smoke for the
// fused-closure hot path (per-site I/O handle caches, pooled machines)
// across concurrent workers.
func TestCampaignBlockBackendSmoke(t *testing.T) {
	spec := campaign.Spec{Drivers: []string{"busmouse_c"}, SamplePct: 30, Seed: 7}
	spec.Backend = "block"
	spec.Shards = 2
	store := campaign.NewMemStore()
	sum, err := campaign.Run(spec, NewWorkload(), store, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatalf("block-backend campaign: %v", err)
	}
	if sum.Ran == 0 {
		t.Fatal("block-backend campaign booted nothing")
	}
}

// TestCampaignBackendField: a campaign spec naming a backend flows it to
// every boot, and an unknown backend — including "compiled", a removed
// per-statement backend old stores may name — is rejected at expansion
// with a message naming the valid choices.
func TestCampaignBackendField(t *testing.T) {
	spec := campaign.Spec{Drivers: []string{"busmouse_devil"}, SamplePct: 20, Seed: 5}
	spec.Backend = "interp"
	store := campaign.NewMemStore()
	if _, err := campaign.Run(spec, NewWorkload(), store, campaign.Options{}); err != nil {
		t.Fatalf("interp-backend campaign: %v", err)
	}
	for _, name := range []string{"jit", "compiled"} {
		bad := spec
		bad.Backend = name
		_, _, err := NewWorkload().Expand(bad)
		if err == nil || !strings.Contains(err.Error(), "block") || !strings.Contains(err.Error(), "interp") {
			t.Errorf("Expand with backend %q: err = %v, want one naming block and interp", name, err)
		}
	}
}
