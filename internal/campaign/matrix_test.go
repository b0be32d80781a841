package campaign_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// matrixSpec crosses the fake two-driver campaign with a scenario cell.
func matrixSpec() campaign.Spec {
	s := spec2()
	s.Scenarios = []string{"pristine", "flaky"}
	return s
}

// TestScenarioNormalizationAndFingerprint pins the matrix compatibility
// contract: every spelling of the classic pristine-only campaign
// fingerprints identically to a pre-matrix spec, scenario cells are
// fingerprinted (different matrices are different campaigns), and the
// wall-clock deadline is an execution knob outside the fingerprint.
func TestScenarioNormalizationAndFingerprint(t *testing.T) {
	base := spec2()
	for _, scenarios := range [][]string{nil, {}, {"pristine"}, {""}, {"", "pristine"}} {
		s := spec2()
		s.Scenarios = scenarios
		if s.Fingerprint() != base.Fingerprint() {
			t.Errorf("Scenarios=%q fingerprints differently from the pristine default", scenarios)
		}
		if n := s.Normalized(); len(n.Scenarios) != 0 {
			t.Errorf("Normalized(%q).Scenarios = %q, want none", scenarios, n.Scenarios)
		}
	}

	matrix := matrixSpec()
	if matrix.Fingerprint() == base.Fingerprint() {
		t.Error("a scenario matrix fingerprints like the pristine campaign")
	}
	// "pristine" and "" are one cell; duplicates collapse.
	spelled := spec2()
	spelled.Scenarios = []string{"", "flaky", "pristine", "flaky"}
	if spelled.Fingerprint() != matrix.Fingerprint() {
		t.Error(`["", flaky, pristine, flaky] fingerprints differently from [pristine, flaky]`)
	}
	if n := spelled.Normalized(); !reflect.DeepEqual(n.Scenarios, []string{"", "flaky"}) {
		t.Errorf("normalized scenarios = %q", n.Scenarios)
	}

	timeout := matrixSpec()
	timeout.BootTimeoutMS = 5000
	if timeout.Fingerprint() != matrix.Fingerprint() {
		t.Error("BootTimeoutMS changed the fingerprint (must stay an execution knob)")
	}
}

// TestMatrixRunCoversEveryCell: a scenario spec boots every selected
// mutant once per cell, records carry the scenario, and the aggregate
// keys cells by label with the pristine cell under the bare driver name.
func TestMatrixRunCoversEveryCell(t *testing.T) {
	store := campaign.NewMemStore()
	sum, err := campaign.Run(matrixSpec(), &fakeWorkload{}, store, campaign.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 130 || sum.Ran != 130 {
		t.Fatalf("summary = %+v, want 130 selected and ran (65 tasks × 2 cells)", sum)
	}
	tables, order, err := campaign.Aggregate(store.Records())
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"alpha", "beta", "alpha@flaky", "beta@flaky"}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("cell order = %v, want %v (scenario-major)", order, wantOrder)
	}
	for _, label := range wantOrder {
		cell := tables[label]
		if cell == nil || !cell.Complete() {
			t.Fatalf("cell %s incomplete: %+v", label, cell)
		}
		if cell.Label() != label {
			t.Errorf("cell %s labels itself %q", label, cell.Label())
		}
	}
	if tables["alpha@flaky"].Driver != "alpha" || tables["alpha@flaky"].Scenario != "flaky" {
		t.Errorf("scenario cell fields = %q/%q", tables["alpha@flaky"].Driver, tables["alpha@flaky"].Scenario)
	}
	// The pristine cell's records keep the historical shape: no scenario
	// field, so pre-matrix tooling reads them unchanged.
	for _, r := range store.Records() {
		if r.Kind == campaign.KindResult && r.Scenario != "" && r.Scenario != "flaky" {
			t.Fatalf("record with unexpected scenario %q", r.Scenario)
		}
	}

	// Offline status: per-cell progress and full totals.
	snap := campaign.SnapshotFromRecords(store.Records())
	if snap.Total != 130 || snap.Recorded != 130 {
		t.Errorf("offline snapshot %d/%d, want 130/130", snap.Recorded, snap.Total)
	}
	if len(snap.Drivers) != 4 {
		t.Errorf("offline snapshot has %d cells, want 4: %+v", len(snap.Drivers), snap.Drivers)
	}
}

// TestMatrixSerialShardedResumedIdentical runs the determinism protocol
// over the matrix: the serial aggregate, a per-shard run merged, and a
// kill-and-resume run must all reduce to identical per-cell tables.
func TestMatrixSerialShardedResumedIdentical(t *testing.T) {
	serial := campaign.NewMemStore()
	if _, err := campaign.Run(matrixSpec(), &fakeWorkload{}, serial, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _, err := campaign.Aggregate(serial.Records())
	if err != nil {
		t.Fatal(err)
	}

	var stores []campaign.Store
	covered := 0
	for sh := 0; sh < 4; sh++ {
		st := campaign.NewMemStore()
		sum, err := campaign.Run(matrixSpec(), &fakeWorkload{}, st, campaign.Options{Shards: []int{sh}})
		if err != nil {
			t.Fatal(err)
		}
		covered += sum.Ran
		stores = append(stores, st)
	}
	if covered != 130 {
		t.Fatalf("shards covered %d tasks, want 130", covered)
	}
	merged := campaign.NewMemStore()
	if err := campaign.Merge(merged, stores...); err != nil {
		t.Fatal(err)
	}
	got, _, err := campaign.Aggregate(merged.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded+merged matrix differs from serial:\ngot  %+v\nwant %+v", got, want)
	}

	// Kill mid-run (prefix of the record stream), resume, compare.
	partial := campaign.NewMemStore()
	recs := serial.Records()
	for _, r := range recs[:len(recs)/3] {
		if err := partial.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := campaign.Run(matrixSpec(), &fakeWorkload{}, partial, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran == 0 || sum.Skipped == 0 {
		t.Fatalf("resume summary %+v does not exercise the resume path", sum)
	}
	got, _, err = campaign.Aggregate(partial.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed matrix differs from serial")
	}
}

// TestMergeRejectsScenarioCellMismatch (the merge satellite): stores
// whose specs differ only in their scenario matrix are separate
// campaigns; the merge error must name the mismatched cells instead of
// dumping two fingerprints.
func TestMergeRejectsScenarioCellMismatch(t *testing.T) {
	pristine := campaign.NewMemStore()
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, pristine, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	matrix := campaign.NewMemStore()
	if _, err := campaign.Run(matrixSpec(), &fakeWorkload{}, matrix, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	dst := campaign.NewMemStore()
	err := campaign.Merge(dst, pristine, matrix)
	if err == nil {
		t.Fatal("merge of different scenario matrices accepted")
	}
	for _, want := range []string{"scenario", "flaky", "pristine"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("scenario-mismatch error %q does not name %q", err, want)
		}
	}

	// A genuinely different spec (not just scenarios) keeps the plain
	// fingerprint error.
	other := spec2()
	other.Seed = 99
	foreign := campaign.NewMemStore()
	if _, err := campaign.Run(other, &fakeWorkload{}, foreign, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	dst2 := campaign.NewMemStore()
	err = campaign.Merge(dst2, pristine, foreign)
	if err == nil {
		t.Fatal("merge of different specs accepted")
	}
	if strings.Contains(err.Error(), "scenario") {
		t.Errorf("unrelated spec mismatch misreported as a scenario mismatch: %v", err)
	}
}

// panickyWorkload panics the harness on every alpha mutant divisible by
// 10 — a worker-killing fault the engine must quarantine, not die from.
type panickyWorkload struct {
	fakeWorkload
	mu      sync.Mutex
	workers int
}

func (f *panickyWorkload) NewWorker(campaign.Spec) (campaign.Worker, error) {
	f.mu.Lock()
	f.workers++
	f.mu.Unlock()
	return &panickyWorker{f: f}, nil
}

type panickyWorker struct{ f *panickyWorkload }

func (w *panickyWorker) Boot(t campaign.Task) (campaign.Outcome, error) {
	if t.Driver == "alpha" && t.Mutant%10 == 0 {
		panic(fmt.Sprintf("sim blew up on %s", t.Key()))
	}
	return (&fakeWorker{f: &w.f.fakeWorkload}).Boot(t)
}

func (w *panickyWorker) Close() {}

// TestHarnessPanicQuarantine: a panicking boot is recovered, recorded as
// a quarantined RowHarnessPanic result with the panic text, the worker
// is rebuilt, and the campaign completes with a live process.
func TestHarnessPanicQuarantine(t *testing.T) {
	wl := &panickyWorkload{}
	store := campaign.NewMemStore()
	sum, err := campaign.Run(spec2(), wl, store, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Panics != 4 { // alpha mutants 0, 10, 20, 30
		t.Errorf("panics = %d, want 4", sum.Panics)
	}
	if sum.Ran != 61 || sum.Ran+sum.Panics != sum.Total {
		t.Errorf("summary = %+v, want every task recorded", sum)
	}
	if wl.workers <= 2 {
		t.Errorf("workers built = %d; quarantine must rebuild the panicked worker", wl.workers)
	}
	quarantined := 0
	for _, r := range store.Records() {
		if r.Kind != campaign.KindResult || !r.HarnessPanic {
			continue
		}
		quarantined++
		if r.Row != campaign.RowHarnessPanic {
			t.Errorf("panic record row = %q", r.Row)
		}
		if !strings.Contains(r.Panic, "sim blew up") {
			t.Errorf("panic record text = %q", r.Panic)
		}
		if r.Driver != "alpha" || r.Mutant%10 != 0 {
			t.Errorf("unexpected quarantined mutant %s#%d", r.Driver, r.Mutant)
		}
	}
	if quarantined != 4 {
		t.Errorf("%d quarantined records, want 4", quarantined)
	}

	// The quarantined row reaches the offline snapshot and the tables.
	snap := campaign.SnapshotFromRecords(store.Records())
	if snap.Panics != 4 || snap.Recorded != 65 {
		t.Errorf("offline snapshot panics=%d recorded=%d, want 4/65", snap.Panics, snap.Recorded)
	}
	tables, _, err := campaign.Aggregate(store.Records())
	if err != nil {
		t.Fatal(err)
	}
	if tables["alpha"].Counts[campaign.RowHarnessPanic] != 4 {
		t.Errorf("alpha table counts %d harness panics, want 4",
			tables["alpha"].Counts[campaign.RowHarnessPanic])
	}

	// A rerun over the store treats quarantined mutants as decided.
	sum, err = campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 0 || sum.Skipped != 65 {
		t.Errorf("rerun after quarantine: %+v, want everything skipped", sum)
	}
}

// alwaysPanicWorkload panics on every single boot — the pathological
// workload of the CI smoke: the run must still finish with a live
// process and a fully quarantined store.
type alwaysPanicWorkload struct{ fakeWorkload }

func (f *alwaysPanicWorkload) NewWorker(campaign.Spec) (campaign.Worker, error) {
	return alwaysPanicWorker{}, nil
}

type alwaysPanicWorker struct{}

func (alwaysPanicWorker) Boot(t campaign.Task) (campaign.Outcome, error) {
	panic("every boot dies")
}
func (alwaysPanicWorker) Close() {}

func TestAlwaysPanickingWorkloadCompletes(t *testing.T) {
	store := campaign.NewMemStore()
	sum, err := campaign.Run(spec2(), &alwaysPanicWorkload{}, store, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Panics != 65 || sum.Ran != 0 {
		t.Errorf("summary = %+v, want all 65 quarantined", sum)
	}
	snap := campaign.SnapshotFromRecords(store.Records())
	if snap.Panics != 65 || snap.Recorded != 65 {
		t.Errorf("offline snapshot %+v, want 65 panics", snap)
	}
}
