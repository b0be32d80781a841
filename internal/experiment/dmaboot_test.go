package experiment

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/hw/pci"
	"repro/internal/kernel"
)

// TestCleanBMBoot: both bus-master drivers must compile, probe the
// engine and run the whole transfer script with every audit check
// green.
func TestCleanBMBoot(t *testing.T) {
	for _, name := range []string{"busmaster_c", "busmaster_devil"} {
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

// TestBMRigResetRestoresCleanBoot: after a boot that programmed the
// descriptor pointer and latched the completion interrupt, Reset must
// return the rig to a state where the clean driver boots cleanly.
func TestBMRigResetRestoresCleanBoot(t *testing.T) {
	assertResetRestoresCleanBoot(t, "busmaster_c", nil, func(t *testing.T, m *Rig) {
		bm := m.Dev.(*pci.BusMaster)
		if bm.DescriptorTable() != 0 || bm.Active() || bm.IrqPending() {
			t.Fatalf("bus-master state survived Reset: prdt=%#x active=%v irq=%v",
				bm.DescriptorTable(), bm.Active(), bm.IrqPending())
		}
	})
}

// TestBMMutationSmoke runs a sampled bus-master mutation experiment and
// checks the Devil-vs-C shape carries over to the fifth driver pair.
func TestBMMutationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation smoke test is not short")
	}
	tables, err := RunTables(campaign.Spec{Drivers: []string{"busmaster_c", "busmaster_devil"}, SamplePct: 25, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, d := tables["busmaster_c"], tables["busmaster_devil"]
	t.Logf("\n%s\n%s",
		FormatDriverTable(c, "Extension: mutations on the C bus-master driver"),
		FormatDriverTable(d, "Extension: mutations on the CDevil bus-master driver"))
	if DetectedPct(d) <= DetectedPct(c) {
		t.Errorf("Devil detection (%.1f%%) should exceed C (%.1f%%)",
			DetectedPct(d), DetectedPct(c))
	}
	if d.Counts[RowRuntime] == 0 {
		t.Error("CDevil driver produced no run-time checks")
	}
}

// TestNewDeviceCampaignDeterminism: a campaign over the two new Table-2
// device pairs satisfies the shared determinism protocol (serial =
// sharded+merged = resumed = interp oracle), and both Devil drivers
// detect strictly more mutants than their C counterparts.
func TestNewDeviceCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign determinism test is not short")
	}
	spec := campaign.Spec{
		Name:      "table2-completion",
		Drivers:   []string{"permedia_c", "permedia_devil", "busmaster_c", "busmaster_devil"},
		SamplePct: 5,
		Seed:      11,
		Shards:    2,
	}
	tables := assertCampaignDeterminism(t, spec)

	for _, pair := range []struct{ c, devil string }{
		{"permedia_c", "permedia_devil"},
		{"busmaster_c", "busmaster_devil"},
	} {
		c := tables[pair.c]
		d := tables[pair.devil]
		if DetectedPct(d) <= DetectedPct(c) {
			t.Errorf("%s detection (%.1f%%) should exceed %s (%.1f%%)",
				pair.devil, DetectedPct(d), pair.c, DetectedPct(c))
		}
	}
}
