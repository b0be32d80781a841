package experiment

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/kernel"
)

// TestCleanMouseBoot: both busmouse drivers must compile and deliver the
// motion script verbatim.
func TestCleanMouseBoot(t *testing.T) {
	for _, name := range []string{"busmouse_c", "busmouse_devil"} {
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

// TestBusmouseMutationSmoke runs a small sample of the extension experiment
// and checks the Devil-vs-C shape carries over to the second driver pair.
func TestBusmouseMutationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation smoke test is not short")
	}
	tables, err := RunTables(campaign.Spec{Drivers: []string{"busmouse_c", "busmouse_devil"}, SamplePct: 20, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, d := tables["busmouse_c"], tables["busmouse_devil"]
	t.Logf("\n%s\n%s",
		FormatDriverTable(c, "Extension: mutations on the C busmouse driver"),
		FormatDriverTable(d, "Extension: mutations on the CDevil busmouse driver"))
	if DetectedPct(d) <= DetectedPct(c) {
		t.Errorf("Devil detection (%.1f%%) should exceed C (%.1f%%)",
			DetectedPct(d), DetectedPct(c))
	}
}
