package experiment

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/kernel"
)

// TestCleanNetBoot: both NE2000 drivers must compile, bring the adapter
// up, and deliver the frame script verbatim through loopback.
func TestCleanNetBoot(t *testing.T) {
	for _, name := range []string{"ne2000_c", "ne2000_devil"} {
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

// TestNetMachineResetRestoresCleanBoot: after a boot that filled packet
// memory and scribbled the register file, Reset must return the rig to a
// state where the clean driver boots cleanly — the rig-reuse guarantee
// campaign workers depend on.
func TestNetMachineResetRestoresCleanBoot(t *testing.T) {
	assertResetRestoresCleanBoot(t, "ne2000_c", nil, nil)
}

// TestNetMutationSmoke runs a sampled NE2000 mutation experiment and
// checks the Devil-vs-C shape carries over to the third driver pair:
// the Devil driver must detect strictly more mutants (compile-time plus
// run-time checks) than the hand-written C driver.
func TestNetMutationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation smoke test is not short")
	}
	tables, err := RunTables(campaign.Spec{Drivers: []string{"ne2000_c", "ne2000_devil"}, SamplePct: 10, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, d := tables["ne2000_c"], tables["ne2000_devil"]
	t.Logf("\n%s\n%s",
		FormatDriverTable(c, "Extension: mutations on the C NE2000 driver"),
		FormatDriverTable(d, "Extension: mutations on the CDevil NE2000 driver"))
	if DetectedPct(d) <= DetectedPct(c) {
		t.Errorf("Devil detection (%.1f%%) should exceed C (%.1f%%)",
			DetectedPct(d), DetectedPct(c))
	}
	if d.Counts[RowRuntime] == 0 {
		t.Error("CDevil driver produced no run-time checks")
	}
}

// TestNetCampaignDeterminism: an NE2000 campaign over both drivers
// satisfies the shared determinism protocol (serial = sharded+merged =
// resumed = interp oracle), and the Devil driver detects strictly more
// mutants.
func TestNetCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign determinism test is not short")
	}
	spec := campaign.Spec{
		Name:      "ne2000",
		Drivers:   []string{"ne2000_c", "ne2000_devil"},
		SamplePct: 5,
		Seed:      11,
		Shards:    3,
	}
	tables := assertCampaignDeterminism(t, spec)

	c := tables["ne2000_c"]
	d := tables["ne2000_devil"]
	if DetectedPct(d) <= DetectedPct(c) {
		t.Errorf("Devil detection (%.1f%%) should exceed C (%.1f%%)",
			DetectedPct(d), DetectedPct(c))
	}
}
