package experiment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cdriver/ctoken"
)

// The differential oracle: the block backend and its incremental front
// end exist for throughput, the tree-walking interpreter over a full
// per-mutant parse and check for trust. These tests boot generated
// mutants on the block backend through both front ends — through the
// campaign worker's own input builder and rig pool — and require the
// interpreter's observable results: compile-time
// detection, outcome class, terminating error text, console log,
// covered-line set, watchdog step count, and the Table 3/4 row the
// mutant lands in.

// newWorker builds a campaign worker of wl for spec: the oracle boots
// through the worker's input builder and rig pool, as a campaign does.
func newWorker(tb testing.TB, wl *workload, spec campaign.Spec) *worker {
	tb.Helper()
	w, err := wl.NewWorker(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return w.(*worker)
}

// bootTask boots task on wk exactly as its campaign would.
func bootTask(t *testing.T, wk *worker, task campaign.Task) *BootResult {
	t.Helper()
	br, _, err := wk.boot(task)
	if err == nil && br == nil {
		err = fmt.Errorf("harness error (classified %s)", RowCrash)
	}
	if err != nil {
		t.Fatalf("%s (%s): %v", task.Key(), wk.backend, err)
	}
	return br
}

// bootFull boots task's input on wk over a full compile: toks, or when
// nil the input's mutation materialised, in place of the incremental
// front end's Mutation.
func bootFull(t *testing.T, wk *worker, task campaign.Task, toks []ctoken.Token) *BootResult {
	t.Helper()
	input, _, err := wk.input(task)
	if err != nil {
		t.Fatal(err)
	}
	if toks == nil {
		toks = input.Mutation.Apply()
	}
	input.Tokens, input.Mutation = toks, nil
	rig, err := wk.rigs.rigFor(task.Driver, task.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	br, err := rig.Boot(input)
	if err != nil {
		t.Fatalf("%s (%s, full front end): harness error: %v", task.Key(), wk.backend, err)
	}
	return br
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
			ref := newWorker(t, wl, campaign.Spec{Backend: string(BackendInterp)})
			full, incr := newWorker(t, wl, campaign.Spec{}), newWorker(t, wl, campaign.Spec{})
			variants := []struct {
				name string
				boot func(campaign.Task) *BootResult
			}{
				{"block/full", func(task campaign.Task) *BootResult { return bootFull(t, full, task, nil) }},
				{"block/incremental", func(task campaign.Task) *BootResult { return bootTask(t, incr, task) }},
			}
			for _, id := range selected {
				// The task a campaign of this cell would boot: its key
				// derives the fault seed, so the scenario's fault pattern
				// is the campaign's.
				task := campaign.Task{Driver: tc.driver, Mutant: id, Scenario: tc.scenario}
				rb := bootTask(t, ref, task)
				// The reference result aliases pooled buffers that the next
				// boot on the same rig overwrites; the variants boot on
				// their own workers' rigs, but the reference must survive
				// both comparisons.
				rb.Console = append([]string(nil), rb.Console...)
				if rb.Coverage != nil {
					rb.Coverage = rb.Coverage.Clone()
				}
				for _, v := range variants {
					diffOne(t, tc.driver, p, id, rb, v.boot(task))
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
