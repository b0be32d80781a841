// Benchmark harness: one bench per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. The table benches
// report their headline numbers as custom metrics (percentages, counts),
// so `go test -bench=. -benchmem` regenerates the evaluation end to end.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/devil"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/hw"
	"repro/internal/hw/ide"
	"repro/internal/kernel"
	"repro/internal/mutation/cmut"
	"repro/internal/mutation/devilmut"
	"repro/internal/obs"
	"repro/internal/specs"
)

// benchSample keeps the driver-mutation benches affordable per iteration;
// cmd/driverlab runs the paper's 25% (or 100%) when exact numbers are
// wanted.
const benchSample = 10

// BenchmarkTable1OperatorRules measures operator-mutant enumeration over
// the C driver and reports the reconstructed rule count (Table 1).
func BenchmarkTable1OperatorRules(b *testing.B) {
	src, err := drivers.Load("ide_c")
	if err != nil {
		b.Fatal(err)
	}
	toks, err := experiment.ParseDriver(src.Text)
	if err != nil {
		b.Fatal(err)
	}
	var ops int
	for i := 0; i < b.N; i++ {
		res, err := cmut.Enumerate(toks, cmut.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ops = 0
		for _, s := range res.Sites {
			if s.Kind == cmut.SiteOperator {
				ops++
			}
		}
	}
	b.ReportMetric(float64(len(cmut.OperatorClasses)), "rules")
	b.ReportMetric(float64(ops), "operator-sites")
}

// BenchmarkTable2SpecCoverage regenerates Table 2: per specification, the
// full mutant enumeration and Devil-compiler detection rate.
func BenchmarkTable2SpecCoverage(b *testing.B) {
	for _, s := range specs.All() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			var row experiment.SpecRow
			for i := 0; i < b.N; i++ {
				r, err := experiment.Table2Row(s)
				if err != nil {
					b.Fatal(err)
				}
				row = r
			}
			b.ReportMetric(float64(row.Mutants), "mutants")
			b.ReportMetric(float64(row.Sites), "sites")
			b.ReportMetric(row.PctDetected(), "%detected")
		})
	}
}

// runTable runs a one-driver campaign per iteration and returns the
// driver's last aggregated cell.
func runTable(b *testing.B, spec campaign.Spec) *campaign.TableData {
	b.Helper()
	var t *campaign.TableData
	for i := 0; i < b.N; i++ {
		tables, err := experiment.RunTables(spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		t = tables[spec.Drivers[0]]
	}
	return t
}

// driverBench runs a Table 3/4 experiment per iteration and reports the
// paper's headline rows as metrics.
func driverBench(b *testing.B, spec campaign.Spec) {
	b.Helper()
	t := runTable(b, spec)
	b.ReportMetric(t.Pct(experiment.RowCompile), "%compile")
	b.ReportMetric(t.Pct(experiment.RowRuntime), "%runtime")
	b.ReportMetric(t.Pct(experiment.RowBoot), "%silent-boot")
	b.ReportMetric(t.Pct(experiment.RowCrash), "%crash")
	b.ReportMetric(experiment.DetectedPct(t), "%detected")
	b.ReportMetric(float64(t.Selected), "mutants-booted")
}

// extensionBench runs one driver's extension experiment per iteration and
// reports its detection and silent-boot shares.
func extensionBench(b *testing.B, driver string, sample int) {
	b.Helper()
	t := runTable(b, campaign.Spec{Drivers: []string{driver}, SamplePct: sample, Seed: 2001})
	b.ReportMetric(experiment.DetectedPct(t), "%detected")
	b.ReportMetric(experiment.SilentPct(t), "%silent-boot")
	b.ReportMetric(float64(t.Selected), "mutants-booted")
}

// BenchmarkTable3CMutations regenerates Table 3 (C driver mutation run).
func BenchmarkTable3CMutations(b *testing.B) {
	driverBench(b, campaign.Spec{Drivers: []string{"ide_c"}, SamplePct: benchSample, Seed: 2001})
}

// BenchmarkTable4CDevilMutations regenerates Table 4 (CDevil mutation run).
func BenchmarkTable4CDevilMutations(b *testing.B) {
	driverBench(b, campaign.Spec{Drivers: []string{"ide_devil"}, SamplePct: benchSample, Seed: 2001})
}

// BenchmarkExtensionBusmouseMutations runs the second-driver-pair
// extension (the paper's stated future work) end to end.
func BenchmarkExtensionBusmouseMutations(b *testing.B) {
	for _, drv := range []string{"busmouse_c", "busmouse_devil"} {
		drv := drv
		b.Run(drv, func(b *testing.B) { extensionBench(b, drv, 50) })
	}
}

// BenchmarkExtensionNE2000Mutations runs the third-driver-pair extension
// (the interrupt- and DMA-heavy NE2000 adapter) end to end.
func BenchmarkExtensionNE2000Mutations(b *testing.B) {
	for _, drv := range []string{"ne2000_c", "ne2000_devil"} {
		drv := drv
		b.Run(drv, func(b *testing.B) { extensionBench(b, drv, 5) })
	}
}

// BenchmarkExtensionTable2Completion runs the last two Table-2 device
// pairs (the Permedia 2 frame buffer and the 82371FB bus master) end to
// end — the workloads that completed the five-specification evaluation.
func BenchmarkExtensionTable2Completion(b *testing.B) {
	for _, tc := range []struct {
		driver string
		sample int
	}{
		{"permedia_c", 5}, {"permedia_devil", 10},
		{"busmaster_c", 10}, {"busmaster_devil", 25},
	} {
		tc := tc
		b.Run(tc.driver, func(b *testing.B) { extensionBench(b, tc.driver, tc.sample) })
	}
}

// BenchmarkFigure1CleanBoot measures the two clean boots of Figure 1's two
// driver architectures — the baseline every mutant run is compared to.
func BenchmarkFigure1CleanBoot(b *testing.B) {
	for _, name := range []string{"ide_c", "ide_devil"} {
		name := name
		b.Run(name, func(b *testing.B) {
			src, err := drivers.Load(name)
			if err != nil {
				b.Fatal(err)
			}
			toks, err := experiment.ParseDriver(src.Text)
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := experiment.BootDriver(name, experiment.BootInput{Tokens: toks, Devil: src.Devil})
				if err != nil {
					b.Fatal(err)
				}
				if res.CompileDetected() || res.Outcome != kernel.OutcomeBoot {
					b.Fatalf("clean boot failed: %v / %v", res.CompileErrors, res.Outcome)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "boot-steps")
		})
	}
}

// BenchmarkFigure3SpecCompile measures compiling the busmouse spec of
// Figure 3 through the full front end.
func BenchmarkFigure3SpecCompile(b *testing.B) {
	s, err := specs.Load("busmouse")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := devil.Compile(s.Filename, s.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4StubEmission measures emitting the Figure-4 debug stub
// text for the IDE Drive variable.
func BenchmarkFigure4StubEmission(b *testing.B) {
	s, err := specs.Load("ide")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := devil.Compile(s.Filename, s.Source)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spec.EmitCVariable(devil.Debug, "Drive"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWeakTyping reruns Table 4 with the strict checker
// downgraded to plain C rules: the compile-time column collapses, showing
// how much of the Devil win is the distinct-struct-type encoding.
func BenchmarkAblationWeakTyping(b *testing.B) {
	driverBench(b, campaign.Spec{
		Drivers: []string{"ide_devil"}, SamplePct: benchSample, Seed: 2001, Permissive: true,
	})
}

// BenchmarkAblationProductionStubs reruns Table 4 with production-mode
// stubs: the run-time-check row collapses, isolating the contribution of
// the debug assertions.
func BenchmarkAblationProductionStubs(b *testing.B) {
	driverBench(b, campaign.Spec{
		Drivers: []string{"ide_devil"}, SamplePct: benchSample, Seed: 2001, StubMode: "production",
	})
}

// BenchmarkStubOverhead compares a device-variable read through production
// vs debug stubs — the cost the paper's companion result says is paid only
// during development.
func BenchmarkStubOverhead(b *testing.B) {
	for _, mode := range []devil.Mode{devil.Production, devil.Debug} {
		mode := mode
		b.Run(fmt.Sprintf("%v", mode), func(b *testing.B) {
			s, err := specs.Load("ide")
			if err != nil {
				b.Fatal(err)
			}
			spec, err := devil.Compile(s.Filename, s.Source)
			if err != nil {
				b.Fatal(err)
			}
			clock := &hw.Clock{}
			bus := hw.NewBus()
			img, err := kernel.BuildImage(kernel.DefaultFiles(), 8)
			if err != nil {
				b.Fatal(err)
			}
			ctrl := ide.NewController(clock, ide.NewDisk("BENCH", img.Sectors))
			if err := bus.Map(0x1f0, 8, ctrl); err != nil {
				b.Fatal(err)
			}
			if err := bus.Map(0x3f6, 1, ctrl.ControlBlock()); err != nil {
				b.Fatal(err)
			}
			stubs, err := spec.Generate(devil.Config{
				Bus:   bus,
				Bases: map[string]hw.Port{"cmd": 0x1f0, "ctl": 0x3f6, "data": 0x1f0},
				Mode:  mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stubs.Get("Busy"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDevilMutantCheck measures one spec-mutant compile (the unit of
// Table 2's inner loop).
func BenchmarkDevilMutantCheck(b *testing.B) {
	s, err := specs.Load("busmouse")
	if err != nil {
		b.Fatal(err)
	}
	res, err := devilmut.Enumerate(s.Source)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Mutants) == 0 {
		b.Fatal("no mutants")
	}
	for i := 0; i < b.N; i++ {
		devilmut.CheckMutant(res, res.Mutants[i%len(res.Mutants)], s.Filename)
	}
}

// BenchmarkCampaignThroughput measures end-to-end campaign execution —
// enumeration amortised, per-worker machine/stub/env reuse, the block
// execution backend, JSONL-shaped records into an in-memory store — and
// reports boots per second plus each boot-pipeline phase's wall time
// per boot, read from the observed workload's phase histograms. Only the
// mutated declaration re-runs the parse-check-compile chain (the
// incremental front end). Add -cpuprofile or -memprofile to profile one
// driver's campaign loop, e.g. -bench CampaignThroughput/ide_c.
func BenchmarkCampaignThroughput(b *testing.B) {
	for _, driver := range drivers.Names() {
		b.Run(driver, func(b *testing.B) {
			col := obs.New()
			wl := experiment.NewObservedWorkload(col)
			spec := campaign.Spec{Drivers: []string{driver}, SamplePct: 2, Seed: 2001}
			boots := 0
			for i := 0; i < b.N; i++ {
				store := campaign.NewMemStore()
				sum, err := campaign.Run(spec, wl, store, campaign.Options{})
				if err != nil {
					b.Fatal(err)
				}
				boots += sum.Ran
			}
			b.ReportMetric(float64(boots)/b.Elapsed().Seconds(), "boots/s")
			b.ReportMetric(float64(boots)/float64(b.N), "boots/op")
			phaseSec := make(map[string]float64)
			for _, s := range col.Gather() {
				if s.Name == experiment.MetricBootPhase {
					phaseSec[s.Label("phase")] += s.Sum
				}
			}
			for _, ph := range experiment.BootPhases {
				b.ReportMetric(phaseSec[ph]/float64(boots)*1e6, ph+"-us/boot")
			}
		})
	}
}
