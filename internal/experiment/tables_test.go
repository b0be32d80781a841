package experiment

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/specs"
)

// TestTable2Busmouse runs the spec-mutation experiment on the smallest
// corpus member and checks the headline shape: the Devil compiler catches
// the overwhelming majority of injected errors (paper: 88.8%–95.4%).
func TestTable2Busmouse(t *testing.T) {
	s, err := specs.Load("busmouse")
	if err != nil {
		t.Fatal(err)
	}
	row, err := Table2Row(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("busmouse: %d lines, %d sites, %d mutants, %.1f%% detected",
		row.Lines, row.Sites, row.Mutants, row.PctDetected())
	if row.Mutants < 100 {
		t.Errorf("suspiciously few mutants: %d", row.Mutants)
	}
	if pct := row.PctDetected(); pct < 70 || pct > 100 {
		t.Errorf("detection %.1f%% outside plausible range", pct)
	}
}

// TestDriverMutationSmoke boots a small sample of both drivers' mutants
// and checks the paper's headline shape: the Devil driver detects roughly
// 3× more mutants than the C driver, and boots silently far less often.
func TestDriverMutationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation smoke test is not short")
	}
	tables, err := RunTables(campaign.Spec{Drivers: []string{"ide_c", "ide_devil"}, SamplePct: 5, Seed: 42}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, d := tables["ide_c"], tables["ide_devil"]
	t.Logf("\n%s\n%s",
		FormatDriverTable(c, "Table 3: Mutations on C code"),
		FormatDriverTable(d, "Table 4: Mutations on CDevil code"))
	if DetectedPct(d) <= DetectedPct(c) {
		t.Errorf("Devil detection (%.1f%%) should exceed C detection (%.1f%%)",
			DetectedPct(d), DetectedPct(c))
	}
	if SilentPct(d) >= SilentPct(c) {
		t.Errorf("Devil silent boots (%.1f%%) should be below C (%.1f%%)",
			SilentPct(d), SilentPct(c))
	}
}

// TestMultiDriverTablesMatchSingle: one campaign over several drivers
// aggregates each driver's cell exactly as a one-driver campaign does —
// driverlab -table all renders every mutation table from one campaign.
func TestMultiDriverTablesMatchSingle(t *testing.T) {
	spec := campaign.Spec{Drivers: []string{"busmouse_c", "busmouse_devil"}, SamplePct: 10, Seed: 7}
	both, err := RunTables(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, driver := range spec.Drivers {
		one := spec
		one.Drivers = []string{driver}
		alone, err := RunTables(one, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(both[driver], alone[driver]) {
			t.Errorf("%s: two-driver cell %+v differs from the one-driver cell %+v",
				driver, both[driver], alone[driver])
		}
	}
}
