package experiment

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestObservedCampaignMetrics runs a small real campaign with the full
// instrumentation stack enabled and checks the two contracts the
// observability layer makes: every gathered family is declared (so the
// docs check covers it), and the counter arithmetic matches the store.
func TestObservedCampaignMetrics(t *testing.T) {
	col := obs.New()
	wl := NewObservedWorkload(col)
	store := campaign.NewMemStore()
	spec := campaign.Spec{Drivers: []string{"busmouse_c"}, SamplePct: 3, Seed: 11}
	spec.Name = "observed"
	sum, err := campaign.Run(spec, wl, store, campaign.Options{
		Workers: 2,
		Metrics: campaign.NewMetrics(col),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran == 0 {
		t.Fatal("campaign booted nothing; test premise broken")
	}

	declared := make(map[string]bool)
	for _, n := range append(campaign.MetricNames(), BootMetricNames()...) {
		declared[n] = true
	}
	for _, name := range col.Names() {
		if !declared[name] {
			t.Errorf("collector registered undeclared family %q (add it to MetricNames/BootMetricNames)", name)
		}
	}

	var boots float64
	phases := make(map[string]uint64)
	for _, s := range col.Gather() {
		switch s.Name {
		case campaign.MetricBoots:
			boots += s.Value
		case MetricBootPhase:
			if s.Label("workload") != "busmouse" {
				t.Errorf("phase span for workload %q, want busmouse", s.Label("workload"))
			}
			phases[s.Label("phase")] += s.Count
		}
	}
	if int(boots) != sum.Ran {
		t.Errorf("%s = %v, want %d", campaign.MetricBoots, boots, sum.Ran)
	}
	// Execute and classify run once per non-compile-detected boot; the
	// front-end phases at least once per boot. All must have fired.
	for _, ph := range []string{PhaseRespan, PhaseCheck, PhaseExecute, PhaseClassify} {
		if phases[ph] == 0 {
			t.Errorf("phase %q never recorded (got %v)", ph, phases)
		}
	}
	if phases[PhaseExecute] != phases[PhaseClassify] {
		t.Errorf("execute (%d) and classify (%d) span counts differ",
			phases[PhaseExecute], phases[PhaseClassify])
	}
	if phases[PhaseExecute] > uint64(sum.Ran) {
		t.Errorf("execute spans (%d) exceed boots (%d)", phases[PhaseExecute], sum.Ran)
	}
}

// TestObservedMatchesUnobserved: instrumentation must not change
// results — the same spec aggregates identically with and without the
// collector.
func TestObservedMatchesUnobserved(t *testing.T) {
	spec := campaign.Spec{Drivers: []string{"busmouse_c"}, SamplePct: 2, Seed: 5}
	plain := campaign.NewMemStore()
	if _, err := campaign.Run(spec, NewWorkload(), plain, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	observed := campaign.NewMemStore()
	if _, err := campaign.Run(spec, NewObservedWorkload(col), observed, campaign.Options{
		Metrics: campaign.NewMetrics(col),
	}); err != nil {
		t.Fatal(err)
	}
	want, _, err := campaign.Aggregate(plain.Records())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := campaign.Aggregate(observed.Records())
	if err != nil {
		t.Fatal(err)
	}
	for d, w := range want {
		g := got[d]
		if g == nil || FormatDriverTable(g, d) != FormatDriverTable(w, d) {
			t.Errorf("driver %s: observed table differs from unobserved", d)
		}
	}
}
