package campaign_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// fakeWorkload is a deterministic synthetic workload: driver "alpha" has
// 40 mutants, "beta" 25; the outcome row is a pure function of the task.
// With interrupt set, the stopAfter-th boot closes it, as a signal
// handler would mid-campaign.
type fakeWorkload struct {
	mu        sync.Mutex
	boots     int
	stopAfter int
	interrupt chan struct{}
}

var fakeRows = []string{"Boot", "Crash", "Halt"}

func (f *fakeWorkload) Expand(spec campaign.Spec) ([]campaign.Meta, []campaign.Task, error) {
	sizes := map[string]int{"alpha": 40, "beta": 25}
	var metas []campaign.Meta
	var tasks []campaign.Task
	for _, d := range spec.Drivers {
		n, ok := sizes[d]
		if !ok {
			return nil, nil, fmt.Errorf("unknown driver %q", d)
		}
		metas = append(metas, campaign.Meta{Driver: d, Sites: n / 2, Enumerated: n, Selected: n})
		for i := 0; i < n; i++ {
			tasks = append(tasks, campaign.Task{Driver: d, Mutant: i})
		}
	}
	return metas, tasks, nil
}

func (f *fakeWorkload) NewWorker(campaign.Spec) (campaign.Worker, error) {
	return &fakeWorker{f: f}, nil
}

type fakeWorker struct{ f *fakeWorkload }

func (w *fakeWorker) Boot(t campaign.Task) (campaign.Outcome, error) {
	w.f.mu.Lock()
	w.f.boots++
	if w.f.interrupt != nil && w.f.boots == w.f.stopAfter {
		close(w.f.interrupt)
	}
	w.f.mu.Unlock()
	return campaign.Outcome{
		Row:   fakeRows[t.Mutant%len(fakeRows)],
		Site:  t.Mutant / 2,
		Lost:  t.Mutant == 7,
		Steps: int64(100 + t.Mutant),
	}, nil
}

func (w *fakeWorker) Close() {}

func spec2() campaign.Spec {
	return campaign.Spec{Name: "t", Drivers: []string{"alpha", "beta"}, Seed: 1, Shards: 4}
}

func TestRunRecordsEverything(t *testing.T) {
	store := campaign.NewMemStore()
	sum, err := campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 65 || sum.Ran != 65 || sum.Skipped != 0 {
		t.Fatalf("summary = %+v, want 65/65/0", sum)
	}
	tables, order, err := campaign.Aggregate(store.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"alpha", "beta"}) {
		t.Errorf("driver order = %v", order)
	}
	if !tables["alpha"].Complete() || tables["alpha"].Results != 40 {
		t.Errorf("alpha incomplete: %+v", tables["alpha"])
	}
	if tables["alpha"].Losses != 1 {
		t.Errorf("alpha losses = %d, want 1 (mutant 7)", tables["alpha"].Losses)
	}
	if tables["beta"].Losses != 1 {
		t.Errorf("beta losses = %d, want 1 (mutant 7)", tables["beta"].Losses)
	}
}

// TestRunIsIdempotent: a second run over a complete store boots nothing.
func TestRunIsIdempotent(t *testing.T) {
	store := campaign.NewMemStore()
	wl := &fakeWorkload{}
	if _, err := campaign.Run(spec2(), wl, store, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	sum, err := campaign.Run(spec2(), wl, store, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 0 || sum.Skipped != 65 {
		t.Errorf("second run: %+v, want 0 ran / 65 skipped", sum)
	}
	if wl.boots != 65 {
		t.Errorf("total boots = %d, want 65", wl.boots)
	}
}

// TestShardedRunsMergeToSerialResult: running each shard into its own
// store and merging yields exactly the serial aggregate.
func TestShardedRunsMergeToSerialResult(t *testing.T) {
	serial := campaign.NewMemStore()
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, serial, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _, err := campaign.Aggregate(serial.Records())
	if err != nil {
		t.Fatal(err)
	}

	var stores []campaign.Store
	seen := 0
	for sh := 0; sh < 4; sh++ {
		st := campaign.NewMemStore()
		sum, err := campaign.Run(spec2(), &fakeWorkload{}, st, campaign.Options{Shards: []int{sh}})
		if err != nil {
			t.Fatal(err)
		}
		seen += sum.Ran
		stores = append(stores, st)
	}
	if seen != 65 {
		t.Fatalf("shards covered %d tasks, want 65", seen)
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
		t.Errorf("merged aggregate differs from serial:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestResumeSkipsStoredResults: a store holding half the results only
// boots the other half, and the aggregate matches a full run.
func TestResumeSkipsStoredResults(t *testing.T) {
	full := campaign.NewMemStore()
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, full, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	recs := full.Records()
	partial := campaign.NewMemStore()
	for _, r := range recs[:len(recs)/2] {
		if err := partial.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wl := &fakeWorkload{}
	sum, err := campaign.Run(spec2(), wl, partial, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran == 0 || sum.Ran == 65 || sum.Ran+sum.Skipped != 65 {
		t.Fatalf("resume summary = %+v", sum)
	}
	want, _, _ := campaign.Aggregate(recs)
	got, _, _ := campaign.Aggregate(partial.Records())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed aggregate differs from full run")
	}
}

// TestFingerprintMismatchRejected: a store from one spec refuses a run
// of another.
func TestFingerprintMismatchRejected(t *testing.T) {
	store := campaign.NewMemStore()
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	other := spec2()
	other.Seed = 99
	if _, err := campaign.Run(other, &fakeWorkload{}, store, campaign.Options{}); err == nil {
		t.Error("run with a different spec accepted")
	}
	// Shard count is a partition choice, not a workload change: same
	// fingerprint, so a differently-sharded resume is allowed.
	resharded := spec2()
	resharded.Shards = 2
	if resharded.Fingerprint() != spec2().Fingerprint() {
		t.Error("shard count changed the fingerprint")
	}
}

// TestBackendSpellingsFingerprintIdentically: every spelling of the same
// execution engine must canonicalize to one fingerprint, so a rerun that
// names the default explicitly (or uses an alias) still resumes.
func TestBackendSpellingsFingerprintIdentically(t *testing.T) {
	base := spec2()
	want := base.Fingerprint()
	explicit := spec2()
	explicit.Backend = "block"
	if explicit.Fingerprint() != want {
		t.Error(`"block" fingerprints differently from the "" default`)
	}
	// A name that is not a spelling of block (here the removed
	// per-statement backend) must not canonicalize to it: its store
	// would otherwise resume as a block campaign.
	compiled := spec2()
	compiled.Backend = "compiled"
	if compiled.Fingerprint() == want {
		t.Error(`"compiled" fingerprints like the block default`)
	}
	interp := spec2()
	interp.Backend = "interp"
	tree := spec2()
	tree.Backend = "tree"
	if interp.Fingerprint() != tree.Fingerprint() {
		t.Error(`"tree" fingerprints differently from "interp"`)
	}
	if interp.Fingerprint() == want {
		t.Error("interp backend fingerprints like the block default")
	}
}

// TestFileStoreRoundTripAndTornLine: records survive reopen, and a torn
// final line (the crash artefact) is ignored.
func TestFileStoreRoundTripAndTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	st, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, st, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	n := len(st.Records())
	st.Close()

	// Simulate a crash mid-append: torn trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"result","driver":"alp`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(st2.Records()) != n {
		t.Errorf("reopened store has %d records, want %d", len(st2.Records()), n)
	}
	sum, err := campaign.Run(spec2(), &fakeWorkload{}, st2, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 0 {
		t.Errorf("complete store reran %d tasks after torn line", sum.Ran)
	}
}

// TestInvalidShardLeavesStoreUntouched: a rejected invocation must not
// initialize the store (a later resume would silently launch it).
func TestInvalidShardLeavesStoreUntouched(t *testing.T) {
	store := campaign.NewMemStore()
	_, err := campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{Shards: []int{9}})
	if err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if n := len(store.Records()); n != 0 {
		t.Errorf("rejected run wrote %d records to the store", n)
	}
}

// failingStore rejects every Append after the first result record.
type failingStore struct {
	campaign.MemStore
	mu      sync.Mutex
	results int
}

func (s *failingStore) Append(r campaign.Record) error {
	if r.Kind == campaign.KindResult {
		s.mu.Lock()
		s.results++
		dead := s.results > 1
		s.mu.Unlock()
		if dead {
			return fmt.Errorf("disk full")
		}
	}
	return s.MemStore.Append(r)
}

// TestRunAbortsOnPersistentStoreError: once the store fails, the engine
// must stop booting instead of paying for the whole campaign.
func TestRunAbortsOnPersistentStoreError(t *testing.T) {
	wl := &fakeWorkload{}
	st := &failingStore{}
	_, err := campaign.Run(spec2(), wl, st, campaign.Options{Workers: 2})
	if err == nil {
		t.Fatal("store failure not reported")
	}
	// The feed aborts promptly: far fewer boots than the 65-task campaign.
	if wl.boots > 20 {
		t.Errorf("engine booted %d tasks after the store died", wl.boots)
	}
}

// TestFileStoreAppendsAfterCrashSurviveReopen: a torn line must not
// orphan the records a resume appends after it — OpenFile truncates the
// crash artefact, so the resumed store converges on disk.
func TestFileStoreAppendsAfterCrashSurviveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	st, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := spec2()
	spec.Drivers = []string{"beta"}
	if _, err := campaign.Run(spec, &fakeWorkload{}, st, campaign.Options{Shards: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Crash artefact at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"result","driver":"be`)
	f.Close()

	// Resume: the remaining shards' results append after the truncated
	// artefact and must be visible on the next open.
	st2, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := campaign.Run(spec, &fakeWorkload{}, st2, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran == 0 {
		t.Fatal("nothing left to resume; test premise broken")
	}
	want := len(st2.Records())
	st2.Close()

	st3, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := len(st3.Records()); got != want {
		t.Errorf("records after reopen = %d, want %d (post-crash appends lost)", got, want)
	}
	sum, err = campaign.Run(spec, &fakeWorkload{}, st3, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 0 {
		t.Errorf("store did not converge: %d tasks reran", sum.Ran)
	}
}

// TestOpenFileRejectsForeignFile: pointing the store at some other file
// must fail instead of silently loading nothing (or truncating it).
func TestOpenFileRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "go.mod")
	if err := os.WriteFile(path, []byte("module repro\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.OpenFile(path); err == nil {
		t.Fatal("foreign file accepted as a campaign store")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "module repro\n\ngo 1.24\n" {
		t.Error("foreign file was modified by OpenFile")
	}
}

// TestShardAssignmentIsStable: the hash partition covers every task and
// does not depend on enumeration order.
func TestShardAssignmentIsStable(t *testing.T) {
	counts := make(map[int]int)
	for i := 0; i < 65; i++ {
		sh := campaign.ShardOfTask(campaign.Task{Driver: "alpha", Mutant: i}, 4)
		if sh < 0 || sh >= 4 {
			t.Fatalf("shard %d outside range", sh)
		}
		counts[sh]++
		if sh != campaign.ShardOfTask(campaign.Task{Driver: "alpha", Mutant: i}, 4) {
			t.Fatal("shard assignment not deterministic")
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d of 4 shards populated: %v", len(counts), counts)
	}
	if campaign.ShardOfTask(campaign.Task{Driver: "alpha", Mutant: 3}, 1) != 0 {
		t.Error("single-shard campaign must map everything to shard 0")
	}
}

// TestReconcile pins the one resume scan Run and the fleet coordinator
// share: what it appends through put, what it refuses, and which stored
// result it returns per task key.
func TestReconcile(t *testing.T) {
	spec := spec2()
	other := spec2()
	other.Seed = 99
	metas := []campaign.Meta{
		{Driver: "alpha", Sites: 20, Enumerated: 40, Selected: 40},
		{Driver: "beta", Sites: 12, Enumerated: 25, Selected: 25},
	}
	result := func(mutant int, row string) campaign.Record {
		return campaign.Record{Kind: campaign.KindResult, Driver: "alpha", Mutant: mutant, Row: row}
	}
	diskFull := errors.New("disk full")
	for _, tc := range []struct {
		name    string
		store   []campaign.Record
		putErr  error
		wantPut []campaign.Record // every record put was called with
		wantRow map[string]string // returned task key -> row
		wantErr string
	}{
		{
			name:    "fresh store gets the spec and every meta",
			wantPut: []campaign.Record{campaign.SpecRecord(spec), campaign.MetaRecord(metas[0]), campaign.MetaRecord(metas[1])},
			wantRow: map[string]string{},
		},
		{
			name:    "store with some metas gets only the missing ones",
			store:   []campaign.Record{campaign.SpecRecord(spec), campaign.MetaRecord(metas[1])},
			wantPut: []campaign.Record{campaign.MetaRecord(metas[0])},
			wantRow: map[string]string{},
		},
		{
			name:    "foreign fingerprint is refused and nothing appended",
			store:   []campaign.Record{campaign.SpecRecord(other)},
			wantErr: "store belongs to a different spec (fingerprint " + other.Fingerprint() + ", want " + spec.Fingerprint() + ")",
		},
		{
			name: "duplicate results resolve first-record-wins",
			store: []campaign.Record{campaign.SpecRecord(spec), campaign.MetaRecord(metas[0]), campaign.MetaRecord(metas[1]),
				result(3, "Boot"), result(4, "Halt"), result(3, "Crash")},
			wantRow: map[string]string{"alpha#3": "Boot", "alpha#4": "Halt"},
		},
		{
			name:    "failing put returns its error",
			putErr:  diskFull,
			wantPut: []campaign.Record{campaign.SpecRecord(spec)},
			wantErr: diskFull.Error(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := campaign.NewMemStore()
			for _, r := range tc.store {
				if err := store.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			var put []campaign.Record
			stored, err := campaign.Reconcile(spec, metas, store, func(r campaign.Record) error {
				put = append(put, r)
				return tc.putErr
			})
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Errorf("err = %v, want %q", err, tc.wantErr)
				}
				if tc.putErr != nil && !errors.Is(err, tc.putErr) {
					t.Errorf("err = %v does not wrap put's error", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(put, tc.wantPut) {
				t.Errorf("put %+v, want %+v", put, tc.wantPut)
			}
			if tc.wantErr != "" {
				return
			}
			rows := make(map[string]string, len(stored))
			for key, r := range stored {
				if r.Key() != key {
					t.Errorf("stored[%s] holds the record of %s", key, r.Key())
				}
				rows[key] = r.Row
			}
			if !reflect.DeepEqual(rows, tc.wantRow) {
				t.Errorf("stored rows %v, want %v", rows, tc.wantRow)
			}
		})
	}
}

// TestMergeRejectsForeignStore: merging stores of different specs fails.
func TestMergeRejectsForeignStore(t *testing.T) {
	a := campaign.NewMemStore()
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, a, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	other := spec2()
	other.SamplePct = 50
	b := campaign.NewMemStore()
	if _, err := campaign.Run(other, &fakeWorkload{}, b, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	dst := campaign.NewMemStore()
	if err := campaign.Merge(dst, a, b); err == nil {
		t.Error("merge of stores with different fingerprints accepted")
	}
}

// TestFlushEveryKnob: Spec.FlushEvery reaches the file store, does not
// change the fingerprint (a durability knob, not a workload change),
// and a crash-resume at a non-default interval converges exactly like
// the default — the unflushed tail simply reruns.
func TestFlushEveryKnob(t *testing.T) {
	spec := spec2()
	spec.FlushEvery = 7
	if spec.Fingerprint() != spec2().Fingerprint() {
		t.Error("FlushEvery changed the fingerprint")
	}

	path := filepath.Join(t.TempDir(), "c.jsonl")
	st, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// campaign.Run only part of the campaign, then simulate a crash: drop the
	// file without Close, so everything since the last 7-record
	// checkpoint is lost, then corrupt the tail like a torn write.
	if _, err := campaign.Run(spec, &fakeWorkload{}, st, campaign.Options{Shards: []int{0, 2}}); err != nil {
		t.Fatal(err)
	}
	inMemory := len(st.Records())
	// Abandon st (no Close, no flush): the OS file holds only complete
	// checkpoints.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"result","driver":"alp`)
	f.Close()

	st2, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	onDisk := len(st2.Records())
	if onDisk >= inMemory {
		t.Fatalf("crash lost nothing (%d on disk, %d were appended); flush interval not in effect?",
			onDisk, inMemory)
	}
	sum, err := campaign.Run(spec, &fakeWorkload{}, st2, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran == 0 {
		t.Fatal("resume booted nothing")
	}
	if sum.Ran+sum.Skipped != sum.Total || sum.Total != 65 {
		t.Errorf("resume summary %+v does not converge", sum)
	}
	tables, _, err := campaign.Aggregate(st2.Records())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"alpha", "beta"} {
		if !tables[d].Complete() {
			t.Errorf("%s incomplete after crash-resume at FlushEvery=7: %d/%d",
				d, tables[d].Results, tables[d].Selected)
		}
	}
}
