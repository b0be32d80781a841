// Benchmark harness: one bench per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. The table benches
// report their headline numbers as custom metrics (percentages, counts),
// so `go test -bench=. -benchmem` regenerates the evaluation end to end.
package repro_test

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/campaign"
	"repro/internal/devil"
	"repro/internal/devil/codegen"
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

// driverBench runs a Table 3/4 experiment per iteration and reports the
// paper's headline rows as metrics.
func driverBench(b *testing.B, table func(experiment.MutationOptions) (*experiment.DriverTable, error),
	opts experiment.MutationOptions) {
	b.Helper()
	var t *experiment.DriverTable
	for i := 0; i < b.N; i++ {
		res, err := table(opts)
		if err != nil {
			b.Fatal(err)
		}
		t = res
	}
	b.ReportMetric(t.Pct(experiment.RowCompile), "%compile")
	b.ReportMetric(t.Pct(experiment.RowRuntime), "%runtime")
	b.ReportMetric(t.Pct(experiment.RowBoot), "%silent-boot")
	b.ReportMetric(t.Pct(experiment.RowCrash), "%crash")
	b.ReportMetric(t.DetectedPct(), "%detected")
	b.ReportMetric(float64(t.TotalMutants), "mutants-booted")
}

// BenchmarkTable3CMutations regenerates Table 3 (C driver mutation run).
func BenchmarkTable3CMutations(b *testing.B) {
	driverBench(b, experiment.Table3,
		experiment.MutationOptions{SamplePct: benchSample, Seed: 2001})
}

// BenchmarkTable4CDevilMutations regenerates Table 4 (CDevil mutation run).
func BenchmarkTable4CDevilMutations(b *testing.B) {
	driverBench(b, experiment.Table4,
		experiment.MutationOptions{SamplePct: benchSample, Seed: 2001})
}

// BenchmarkExtensionBusmouseMutations runs the second-driver-pair
// extension (the paper's stated future work) end to end.
func BenchmarkExtensionBusmouseMutations(b *testing.B) {
	for _, drv := range []string{"busmouse_c", "busmouse_devil"} {
		drv := drv
		b.Run(drv, func(b *testing.B) {
			var t *experiment.DriverTable
			for i := 0; i < b.N; i++ {
				res, err := experiment.DriverMutation(drv,
					experiment.MutationOptions{SamplePct: 50, Seed: 2001})
				if err != nil {
					b.Fatal(err)
				}
				t = res
			}
			b.ReportMetric(t.DetectedPct(), "%detected")
			b.ReportMetric(t.SilentPct(), "%silent-boot")
			b.ReportMetric(float64(t.TotalMutants), "mutants-booted")
		})
	}
}

// BenchmarkExtensionNE2000Mutations runs the third-driver-pair extension
// (the interrupt- and DMA-heavy NE2000 adapter) end to end.
func BenchmarkExtensionNE2000Mutations(b *testing.B) {
	for _, drv := range []string{"ne2000_c", "ne2000_devil"} {
		drv := drv
		b.Run(drv, func(b *testing.B) {
			var t *experiment.DriverTable
			for i := 0; i < b.N; i++ {
				res, err := experiment.DriverMutation(drv,
					experiment.MutationOptions{SamplePct: 5, Seed: 2001})
				if err != nil {
					b.Fatal(err)
				}
				t = res
			}
			b.ReportMetric(t.DetectedPct(), "%detected")
			b.ReportMetric(t.SilentPct(), "%silent-boot")
			b.ReportMetric(float64(t.TotalMutants), "mutants-booted")
		})
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
		b.Run(tc.driver, func(b *testing.B) {
			var t *experiment.DriverTable
			for i := 0; i < b.N; i++ {
				res, err := experiment.DriverMutation(tc.driver,
					experiment.MutationOptions{SamplePct: tc.sample, Seed: 2001})
				if err != nil {
					b.Fatal(err)
				}
				t = res
			}
			b.ReportMetric(t.DetectedPct(), "%detected")
			b.ReportMetric(t.SilentPct(), "%silent-boot")
			b.ReportMetric(float64(t.TotalMutants), "mutants-booted")
		})
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
	driverBench(b, experiment.Table4, experiment.MutationOptions{
		SamplePct: benchSample, Seed: 2001, ForcePermissive: true,
	})
}

// BenchmarkAblationProductionStubs reruns Table 4 with production-mode
// stubs: the run-time-check row collapses, isolating the contribution of
// the debug assertions.
func BenchmarkAblationProductionStubs(b *testing.B) {
	driverBench(b, experiment.Table4, experiment.MutationOptions{
		SamplePct: benchSample, Seed: 2001, StubMode: codegen.Production,
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
// reports boots per second, the headline throughput number of the batch
// engine. Only the mutated declaration re-runs the parse-check-compile
// chain (the incremental front end).
func BenchmarkCampaignThroughput(b *testing.B) {
	for _, driver := range drivers.Names() {
		b.Run(driver, func(b *testing.B) {
			wl := experiment.NewWorkload()
			spec := experiment.CampaignSpec(driver,
				experiment.MutationOptions{SamplePct: 2, Seed: 2001})
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
		})
	}
}

// BenchmarkCampaignThroughputObserved is the campaign throughput bench
// with the full observability stack enabled — boot-pipeline phase
// spans, engine counters, store latency histograms, and a live status
// tracker. Comparing against BenchmarkCampaignThroughput quantifies the
// instrumentation overhead, which CI separately gates at 3% via
// `driverlab bench -obs compare`.
func BenchmarkCampaignThroughputObserved(b *testing.B) {
	for _, driver := range []string{"ide_c", "ide_devil"} {
		driver := driver
		b.Run(driver, func(b *testing.B) {
			col := obs.New()
			wl := experiment.NewObservedWorkload(col)
			metrics := campaign.NewMetrics(col)
			spec := experiment.CampaignSpec(driver,
				experiment.MutationOptions{SamplePct: 2, Seed: 2001})
			boots := 0
			for i := 0; i < b.N; i++ {
				store := campaign.NewMemStore()
				sum, err := campaign.Run(spec, wl, store, campaign.Options{
					Metrics: metrics, Status: campaign.NewStatusTracker(),
				})
				if err != nil {
					b.Fatal(err)
				}
				boots += sum.Ran
			}
			b.ReportMetric(float64(boots)/b.Elapsed().Seconds(), "boots/s")
			b.ReportMetric(float64(boots)/float64(b.N), "boots/op")
		})
	}
}

// BenchmarkBackendComparison pits the block execution backend against
// the tree-walking reference oracle on the same campaign, isolating the
// win of closure compilation from the rest of the engine.
func BenchmarkBackendComparison(b *testing.B) {
	for _, backend := range []experiment.Backend{experiment.BackendBlock, experiment.BackendInterp} {
		backend := backend
		b.Run(string(backend), func(b *testing.B) {
			wl := experiment.NewWorkload()
			spec := experiment.CampaignSpec("ide_devil",
				experiment.MutationOptions{SamplePct: 2, Seed: 2001, Backend: backend})
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
		})
	}
}

// BenchmarkMachineReuse isolates the campaign engine's hot-path saving:
// booting the clean CDevil driver on a freshly built machine per boot
// versus Reset-and-reuse of one machine.
func BenchmarkMachineReuse(b *testing.B) {
	src, err := drivers.Load("ide_devil")
	if err != nil {
		b.Fatal(err)
	}
	toks, err := experiment.ParseDriver(src.Text)
	if err != nil {
		b.Fatal(err)
	}
	input := experiment.BootInput{Tokens: toks, Devil: true, Budget: experiment.ExperimentBudget}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.BootDriver("ide_devil", input); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		m, err := experiment.NewRig("ide")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		// Zero-delta check on the pooled console buffer: across reused
		// boots BootResult.Console must alias one kernel-owned array —
		// the same backing pointer every boot — rather than a per-boot
		// copy. (The first boot may still grow the buffer, so the
		// anchor is taken from boot two.)
		var consoleBuf *string
		for i := 0; i < b.N; i++ {
			m.Reset()
			res, err := experiment.BootOn(m, input)
			if err != nil {
				b.Fatal(err)
			}
			if i >= 1 && len(res.Console) > 0 {
				p := unsafe.SliceData(res.Console)
				if consoleBuf == nil {
					consoleBuf = p
				} else if p != consoleBuf {
					b.Fatal("console buffer reallocated between reused boots (pooling regressed)")
				}
			}
		}
	})
}

// BenchmarkMutantBoot measures one mutant boot (the unit of Table 3/4's
// inner loop), using the unmutated driver as a stand-in.
func BenchmarkMutantBoot(b *testing.B) {
	src, err := drivers.Load("ide_devil")
	if err != nil {
		b.Fatal(err)
	}
	toks, err := experiment.ParseDriver(src.Text)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BootDriver("ide_devil", experiment.BootInput{
			Tokens: toks, Devil: true, Budget: experiment.ExperimentBudget,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
