package experiment

import (
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cdriver/ctoken"
	"repro/internal/drivers"
	"repro/internal/obs"
)

// spanUnsafe lists, per driver, the mutants the incremental front end
// hands to the full pipeline: both replace a '-' with '+', and the
// re-parsed span no longer matches the pristine declaration.
var spanUnsafe = map[string][]int{
	"ne2000_c":     {11915},
	"ne2000_devil": {3522},
}

// TestRespanRejectsOnlyKnownMutants runs the span re-parse of every
// mutant of every embedded driver: it must accept all of them but the
// two known span-unsafe ones, so the full pipeline stays a fallback for
// two mutants of the corpus and not a second campaign path.
func TestRespanRejectsOnlyKnownMutants(t *testing.T) {
	wl := NewWorkload().(*workload)
	for _, driver := range drivers.Names() {
		p, err := wl.plan(driver)
		if err != nil {
			t.Fatal(err)
		}
		var rejected []int
		var scratch []ctoken.Token
		for id, m := range p.res.Mutants {
			if scratch, _, _, err = p.incr.Respan(scratch, m.TokenIndex, m.Replacement); err != nil {
				rejected = append(rejected, id) // cincr.ErrSpanUnsafe
			}
		}
		want := spanUnsafe[driver]
		if !slices.Equal(rejected, want) {
			t.Errorf("%s: Respan rejects mutants %v, want %v", driver, rejected, want)
		}
	}
}

// TestCampaignBootsThroughIncrementalFrontEnd pins that block campaign
// workers hand every boot to the incremental front end: over all mutants
// of busmouse_c and ne2000_devil, exactly ne2000_devil's one span-unsafe
// mutant falls back to the full pipeline. An interp campaign over the
// same drivers boots every mutant through the full pipeline without
// counting a fallback, and stores the block campaign's records.
func TestCampaignBootsThroughIncrementalFrontEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("four full enumerations are not short")
	}
	run := func(backend Backend) (map[string]float64, map[string]campaign.Record) {
		col := obs.New()
		spec := campaign.Spec{Name: "frontend", Drivers: []string{"busmouse_c", "ne2000_devil"},
			Backend: string(backend)}
		store := campaign.NewMemStore()
		if _, err := campaign.Run(spec, NewObservedWorkload(col), store, campaign.Options{}); err != nil {
			t.Fatal(err)
		}
		full := map[string]float64{"busmouse": -1, "ne2000": -1}
		for _, s := range col.Gather() {
			if s.Name == MetricFullFrontend {
				full[s.Label("workload")] = s.Value
			}
		}
		recs := make(map[string]campaign.Record)
		for _, r := range store.Records() {
			if r.Kind == campaign.KindResult {
				recs[r.Key()] = r
			}
		}
		return full, recs
	}
	blockFull, block := run(BackendBlock)
	if blockFull["busmouse"] != 0 || blockFull["ne2000"] != 1 {
		t.Errorf("block: %s by workload = %v, want busmouse 0 and ne2000 1", MetricFullFrontend, blockFull)
	}
	interpFull, interp := run(BackendInterp)
	if interpFull["busmouse"] != 0 || interpFull["ne2000"] != 0 {
		t.Errorf("interp: %s by workload = %v, want 0 for both", MetricFullFrontend, interpFull)
	}
	if len(interp) != len(block) {
		t.Errorf("interp stored %d results, block %d", len(interp), len(block))
	}
	for key, b := range block {
		if i, ok := interp[key]; !ok || i != b {
			t.Errorf("%s: interp record %+v, block %+v", key, i, b)
		}
	}
}
