package experiment

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/hw/permedia"
	"repro/internal/kernel"
)

// TestCleanGfxBoot: both Permedia drivers must compile, bring the chip
// up, feed the whole render script and finish the DMA transfer with
// every audit check green.
func TestCleanGfxBoot(t *testing.T) {
	for _, name := range []string{"permedia_c", "permedia_devil"} {
		t.Run(name, func(t *testing.T) {
			src, err := drivers.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			toks, err := ParseDriver(src.Text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := BootDriver(name, BootInput{Tokens: toks, Devil: src.Devil})
			if err != nil {
				t.Fatal(err)
			}
			if res.CompileDetected() {
				for _, e := range res.CompileErrors {
					t.Errorf("  compile: %v", e)
				}
				t.Fatal("clean driver failed to compile")
			}
			if res.Outcome != kernel.OutcomeBoot {
				t.Errorf("outcome = %v (%v)", res.Outcome, res.RunErr)
				for _, line := range res.Console {
					t.Logf("console: %s", line)
				}
			}
			t.Logf("%s: %d steps", name, res.Steps)
		})
	}
}

// TestGfxRigResetRestoresCleanBoot: after a boot that filled the FIFO,
// programmed the timing generator and latched interrupts, Reset must
// return the rig to a state where the clean driver boots cleanly — the
// rig-reuse guarantee campaign workers depend on.
func TestGfxRigResetRestoresCleanBoot(t *testing.T) {
	assertResetRestoresCleanBoot(t, "permedia_c", nil, func(t *testing.T, m *Rig) {
		gpu := m.Dev.(*permedia.GPU)
		if gpu.Drained() != 0 || gpu.VideoEnabled() || gpu.IntFlags() != 0 {
			t.Fatalf("GPU state survived Reset: drained=%d video=%v flags=%#x",
				gpu.Drained(), gpu.VideoEnabled(), gpu.IntFlags())
		}
	})
}

// TestGfxMutationSmoke runs a sampled Permedia mutation experiment and
// checks the Devil-vs-C shape carries over to the fourth driver pair.
func TestGfxMutationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation smoke test is not short")
	}
	tables, err := RunTables(campaign.Spec{Drivers: []string{"permedia_c", "permedia_devil"}, SamplePct: 10, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, d := tables["permedia_c"], tables["permedia_devil"]
	t.Logf("\n%s\n%s",
		FormatDriverTable(c, "Extension: mutations on the C Permedia driver"),
		FormatDriverTable(d, "Extension: mutations on the CDevil Permedia driver"))
	if DetectedPct(d) <= DetectedPct(c) {
		t.Errorf("Devil detection (%.1f%%) should exceed C (%.1f%%)",
			DetectedPct(d), DetectedPct(c))
	}
	if d.Counts[RowRuntime] == 0 {
		t.Error("CDevil driver produced no run-time checks")
	}
}
