package campaign_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// gatherSums totals a collector's samples per family name (histograms
// contribute their observation count).
func gatherSums(col *obs.Collector) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range col.Gather() {
		switch s.Kind {
		case obs.KindHistogram:
			out[s.Name] += float64(s.Count)
		default:
			out[s.Name] += s.Value
		}
	}
	return out
}

// TestMetricsMatchStoreExactly is the concurrency-exactness contract:
// a sharded run on a busy worker pool must end with counter totals equal to the store's record counts — no lost or
// double counts. CI runs this package under -race.
func TestMetricsMatchStoreExactly(t *testing.T) {
	col := obs.New()
	store := campaign.NewMemStore()
	tracker := campaign.NewStatusTracker()
	sum, err := campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{
		Workers: 8,
		Metrics: campaign.NewMetrics(col),
		Status:  tracker,
	})
	if err != nil {
		t.Fatal(err)
	}

	results := 0
	for _, r := range store.Records() {
		if r.Kind == campaign.KindResult {
			results++
		}
	}
	got := gatherSums(col)
	if int(got[campaign.MetricBoots]) != sum.Ran {
		t.Errorf("%s = %v, want %d", campaign.MetricBoots, got[campaign.MetricBoots], sum.Ran)
	}
	if int(got[campaign.MetricOutcomes]) != results {
		t.Errorf("%s = %v, want %d (every result record counts once)",
			campaign.MetricOutcomes, got[campaign.MetricOutcomes], results)
	}
	if int(got[campaign.MetricWorkerBoots]) != sum.Ran {
		t.Errorf("%s = %v, want %d", campaign.MetricWorkerBoots, got[campaign.MetricWorkerBoots], sum.Ran)
	}
	if int(got[campaign.MetricSteps]) != sum.Ran {
		t.Errorf("%s count = %v, want %d", campaign.MetricSteps, got[campaign.MetricSteps], sum.Ran)
	}

	// The tracker is the same arithmetic through the other door.
	snap := tracker.Snapshot()
	if snap.Recorded != results || snap.Ran != sum.Ran {
		t.Errorf("snapshot %d/%d does not match summary %d/%d", snap.Recorded, snap.Ran,
			results, sum.Ran)
	}
	if snap.Total != sum.Total {
		t.Errorf("snapshot total = %d, want %d", snap.Total, sum.Total)
	}
	outcomeSum := 0
	for _, n := range snap.Outcomes {
		outcomeSum += n
	}
	if outcomeSum != results {
		t.Errorf("snapshot outcome histogram sums to %d, want %d", outcomeSum, results)
	}
	shardSum := 0
	for _, sh := range snap.Shards {
		shardSum += sh.Recorded
		if sh.Recorded != sh.Planned {
			t.Errorf("shard %d: %d/%d recorded", sh.Shard, sh.Recorded, sh.Planned)
		}
	}
	if shardSum != results {
		t.Errorf("per-shard recorded sums to %d, want %d", shardSum, results)
	}
}

// TestResumeMetricsCountSkips: on resume, already-stored results land
// in the skipped counter and still count as recorded outcomes.
func TestResumeMetricsCountSkips(t *testing.T) {
	store := campaign.NewMemStore()
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	tracker := campaign.NewStatusTracker()
	sum, err := campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{
		Metrics: campaign.NewMetrics(col),
		Status:  tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := gatherSums(col)
	if int(got[campaign.MetricSkipped]) != sum.Skipped || sum.Skipped != 65 {
		t.Errorf("%s = %v, want %d", campaign.MetricSkipped, got[campaign.MetricSkipped], sum.Skipped)
	}
	if int(got[campaign.MetricOutcomes]) != 65 {
		t.Errorf("outcomes = %v, want 65", got[campaign.MetricOutcomes])
	}
	snap := tracker.Snapshot()
	if snap.Recorded != 65 || snap.Skipped != 65 || snap.Ran != 0 {
		t.Errorf("resume snapshot = %+v", snap)
	}
}

// TestSnapshotFromRecordsMatchesLive: the offline reconstruction of a
// completed store agrees with the live tracker on every count it can
// know.
func TestSnapshotFromRecordsMatchesLive(t *testing.T) {
	store := campaign.NewMemStore()
	tracker := campaign.NewStatusTracker()
	spec := spec2()
	spec.Shards = 2
	if _, err := campaign.Run(spec, &fakeWorkload{}, store, campaign.Options{Status: tracker}); err != nil {
		t.Fatal(err)
	}
	live := tracker.Snapshot()
	off := campaign.SnapshotFromRecords(store.Records())
	if off.Live {
		t.Error("offline snapshot claims to be live")
	}
	if off.Name != "t" || off.Fingerprint != spec.Fingerprint() {
		t.Errorf("offline identity = %q/%q", off.Name, off.Fingerprint)
	}
	if off.Total != live.Total || off.Recorded != live.Recorded ||
		off.Ran != live.Ran {
		t.Errorf("offline %d/%d/%d differs from live %d/%d/%d",
			off.Total, off.Recorded, off.Ran,
			live.Total, live.Recorded, live.Ran)
	}
	if !reflect.DeepEqual(off.Outcomes, live.Outcomes) {
		t.Errorf("outcome histograms differ:\noffline %v\nlive    %v", off.Outcomes, live.Outcomes)
	}
	offShards := make(map[int]int)
	for _, sh := range off.Shards {
		offShards[sh.Shard] = sh.Recorded
	}
	for _, sh := range live.Shards {
		if offShards[sh.Shard] != sh.Recorded {
			t.Errorf("shard %d: offline %d, live %d", sh.Shard, offShards[sh.Shard], sh.Recorded)
		}
	}
}

// TestInterruptStopsFeedAndResumes: closing Options.Interrupt stops
// the campaign early with ErrInterrupted, the store stays consistent,
// and a plain re-run finishes the remainder to the same aggregate as
// an uninterrupted run.
func TestInterruptStopsFeedAndResumes(t *testing.T) {
	store := campaign.NewMemStore()
	wl := &fakeWorkload{stopAfter: 1, interrupt: make(chan struct{})}
	sum, err := campaign.Run(spec2(), wl, store, campaign.Options{
		Workers:   1,
		Interrupt: wl.interrupt,
	})
	if !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if sum.Ran == 0 || sum.Ran >= sum.Total {
		t.Fatalf("interrupted run booted %d of %d", sum.Ran, sum.Total)
	}

	resumed, err := campaign.Run(spec2(), &fakeWorkload{}, store, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Skipped != sum.Ran || resumed.Ran+resumed.Skipped != resumed.Total {
		t.Errorf("resume summary %+v after interrupting %d boots", resumed, sum.Ran)
	}
	full := campaign.NewMemStore()
	if _, err := campaign.Run(spec2(), &fakeWorkload{}, full, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _, _ := campaign.Aggregate(full.Records())
	got, _, _ := campaign.Aggregate(store.Records())
	if !reflect.DeepEqual(got, want) {
		t.Error("interrupted+resumed aggregate differs from a clean run")
	}
}

// TestSignalFlushBeatsCrash is the graceful-interruption contract: at
// a large FlushEvery, a signal-style stop (interrupt, then Flush, as
// the CLI does) persists everything recorded so far, while a crash at
// the same point loses the unflushed tail — and both converge on
// resume. The stop comes after 62 of the 65 boots, when the store holds
// 65 records: more than the default checkpoint interval of 64, so a
// store that missed FlushEvery would keep all but the last one.
func TestSignalFlushBeatsCrash(t *testing.T) {
	spec := spec2()
	spec.FlushEvery = 1000 // never checkpoint on its own

	runInterrupted := func(path string) (*campaign.FileStore, int) {
		t.Helper()
		st, err := campaign.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wl := &fakeWorkload{stopAfter: 62, interrupt: make(chan struct{})}
		_, err = campaign.Run(spec, wl, st, campaign.Options{
			Workers:   1,
			Interrupt: wl.interrupt,
		})
		if !errors.Is(err, campaign.ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		return st, len(st.Records())
	}

	dir := t.TempDir()

	// Signal path: flush before exiting (what the CLI's handler does),
	// then abandon the store without Close, like a dying process.
	sigPath := filepath.Join(dir, "signal.jsonl")
	sigStore, sigMem := runInterrupted(sigPath)
	if err := sigStore.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := campaign.OpenFile(sigPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reopened.Records()); got != sigMem {
		t.Errorf("signal path lost records: %d on disk, %d recorded", got, sigMem)
	}
	sum, err := campaign.Run(spec, &fakeWorkload{}, reopened, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran+sum.Skipped != sum.Total {
		t.Errorf("signal resume does not converge: %+v", sum)
	}
	reopened.Close()

	// Crash path: no flush. The unflushed tail (all but the records the
	// file store's write buffer spilled, at FlushEvery=1000) is gone;
	// resume reruns it.
	crashPath := filepath.Join(dir, "crash.jsonl")
	_, crashMem := runInterrupted(crashPath)
	crashReopened, err := campaign.OpenFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer crashReopened.Close()
	if onDisk := len(crashReopened.Records()); onDisk >= 64 {
		t.Errorf("crash kept %d of %d records, as a checkpoint every 64 would; FlushEvery not in effect?",
			onDisk, crashMem)
	}
	sum, err = campaign.Run(spec, &fakeWorkload{}, crashReopened, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran+sum.Skipped != sum.Total || sum.Ran == 0 {
		t.Errorf("crash resume does not converge: %+v", sum)
	}
}

// TestSnapshotPercent pins the progress arithmetic shared by the CLI
// progress line and the status view.
func TestSnapshotPercent(t *testing.T) {
	s := &campaign.Snapshot{Total: 200, Recorded: 50}
	if got := s.Percent(); got != 25 {
		t.Errorf("Percent() = %g, want 25", got)
	}
	empty := &campaign.Snapshot{}
	if got := empty.Percent(); got != 0 {
		t.Errorf("empty Percent() = %g, want 0", got)
	}
}

// TestFlushHookObservesCheckpoints: the store flush hook fires on
// periodic checkpoints, explicit Flush and Close.
func TestFlushHookObservesCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	st, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	m := campaign.NewMetrics(col)
	spec := spec2()
	spec.FlushEvery = 5
	if _, err := campaign.Run(spec, &fakeWorkload{}, st, campaign.Options{Metrics: m}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	got := gatherSums(col)
	if got[campaign.MetricFlush] == 0 {
		t.Errorf("no flushes observed at FlushEvery=5")
	}
	if int(got[campaign.MetricAppend]) != len(st.Records()) {
		t.Errorf("%s count = %v, want %d appends", campaign.MetricAppend,
			got[campaign.MetricAppend], len(st.Records()))
	}
	_ = os.Remove(path)
}
