package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

func TestCheckCountsWrongRecords(t *testing.T) {
	g := golden{
		{"ide_c", "pristine", "debug", 1}:     {"Boot", 3, 100},
		{"ide_c", "pristine", "debug", 2}:     {"Crash", 4, 50},
		{"ide_c", "pristine", "debug", 3}:     {"Halt", 5, 70},
		{"ide_c", "flaky-bus", "debug", 1}:    {"Infinite loop", 3, 400000},
		{"ide_devil", "pristine", "debug", 1}: {"Boot", 1, 10},
	}
	store := campaign.NewMemStore()
	for _, r := range []campaign.Record{
		{Kind: campaign.KindSpec},
		{Kind: campaign.KindMeta, Driver: "ide_c"},
		{Kind: campaign.KindResult, Driver: "ide_c", Mutant: 1, Row: "Boot", Site: 3, Steps: 100},
		{Kind: campaign.KindResult, Driver: "ide_c", Mutant: 2, Row: "Crash", Site: 4, Steps: 51}, // doctored
		{Kind: campaign.KindResult, Driver: "ide_c", Mutant: 3, Row: campaign.RowHarnessPanic, HarnessPanic: true},
		{Kind: campaign.KindResult, Driver: "ide_c", Mutant: 9, Row: "Boot", Site: 3, Steps: 100}, // not golden
		{Kind: campaign.KindResult, Driver: "ide_c", Scenario: "flaky-bus", Mutant: 1, Row: "Infinite loop", Site: 3, Steps: 400000},
	} {
		store.Append(r)
	}
	got := g.check("debug", store.Records())
	if want := (checkResult{Results: 5, Wrong: 2, Panics: 1}); got != want {
		t.Errorf("check = %+v, want %+v", got, want)
	}
	// The same records under production stubs match nothing.
	if got := g.check("production", store.Records()); got.Wrong != 4 {
		t.Errorf("production check: wrong = %d, want 4", got.Wrong)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	g := golden{
		{"busmouse_c", "pristine", "debug", 0}:          {"Compile-time check", 7, 0},
		{"busmouse_c", "timing", "debug", 0}:            {"Damaged boot", 7, 1234},
		{"busmouse_devil", "pristine", "debug", 2}:      {"Run-time check", 1, 99},
		{"busmouse_devil", "pristine", "production", 2}: {"Boot", 1, 98},
	}
	path := filepath.Join(t.TempDir(), "golden.csv.gz")
	if err := writeGolden(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := loadGolden(data, map[goldenCell]bool{{"busmouse_c", "timing", "debug"}: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[goldenKey{"busmouse_c", "timing", "debug", 0}] != (goldenVal{"Damaged boot", 7, 1234}) {
		t.Errorf("filtered load = %v", back)
	}
	if back, err = loadGolden(data, nil); err != nil || len(back) != len(g) {
		t.Errorf("full load = %v, %v", back, err)
	}
}

// The checked-in golden set covers every benchmarked cell in full.
func TestEmbeddedGoldenCoversWorkloads(t *testing.T) {
	g, err := loadGolden(goldenCSV, nil)
	if err != nil {
		t.Fatal(err)
	}
	per := make(map[goldenCell]int)
	for k := range g {
		per[goldenCell{k.Driver, k.Scenario, k.Stub}]++
	}
	for _, wl := range workloads {
		for c := range cellsOf(wl.specs) {
			if per[c] == 0 {
				t.Errorf("workload %s: no golden records for %+v", wl.name, c)
			}
		}
	}
	if want := 38203 + 7918 + 60570; len(g) != want {
		t.Errorf("golden set has %d records, want %d", len(g), want)
	}
}

// A workload whose records differ from one golden record fails the run.
func TestAlteredGoldenFailsRun(t *testing.T) {
	g, err := loadGolden(goldenCSV, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := goldenKey{"busmouse_c", "pristine", "debug", 0}
	v, ok := g[k]
	if !ok {
		t.Fatalf("no golden record %v", k)
	}
	v.Steps++
	g[k] = v
	path := filepath.Join(t.TempDir(), "golden.csv.gz")
	if err := writeGolden(path, g); err != nil {
		t.Fatal(err)
	}
	doctored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := goldenCSV
	goldenCSV = doctored
	t.Cleanup(func() { goldenCSV = saved })

	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "short", "-seconds", "0", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("run exited 0 with an altered golden record\n%s", stdout.String())
	}
	out := stdout.Bytes()
	if !bytes.Contains(out, []byte(`"correct":false,"attempted":2073,"failed":1`)) ||
		!bytes.Contains(out, []byte("short wrong_frac ")) || bytes.Contains(out, []byte("short wrong_frac 0 ")) {
		t.Errorf("want one wrong record in the result line and wrong_frac, got\n%s", stdout.String())
	}
}
